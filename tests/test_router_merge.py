"""The router's merge against a uid-deduped-union oracle.

A routed read joins 0..k shard frames: the first record of each uid in
shard order, then an optional top-level ``OrderBy`` and ``Limit``.  The
frames are drawn with empty ones, uids repeated across shards, and
columns that pack as ``N`` / ``q`` / ``d`` / ``J`` — the same or mixed
across shards — and reach the merge as parsed bytes, as a received reply
does.  Whatever path the merge takes, what it sends must be byte for
byte the frame a shard would pack from the oracle's records.
"""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import Stab
from repro.cluster.router import _merge_frames
from repro.engine.queries import OrderBy
from repro.server import protocol as P

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
ints = st.integers(-1000, 1000)
#: endpoints that pack as ``q`` / ``d``, or a mix (``J``)
ENDPOINTS = {"q": ints, "d": finite, "J": st.one_of(ints, finite)}
#: payloads that pack as ``N`` / ``q`` / ``d`` / ``J``
PAYLOADS = {
    "N": st.none(),
    "q": st.integers(-(2**63), 2**63 - 1),
    "d": finite,
    "J": st.one_of(st.none(), st.booleans(), st.integers(), finite, st.text(max_size=3)),
}
layouts = st.tuples(st.sampled_from(sorted(ENDPOINTS)), st.sampled_from(sorted(PAYLOADS)))


@st.composite
def shard_rows(draw, layout, first_uid):
    """One shard's answer: rows with distinct uids from a small pool."""
    ends, payloads = ENDPOINTS[layout[0]], PAYLOADS[layout[1]]
    uids = draw(st.lists(st.integers(first_uid, first_uid + 11), unique=True, max_size=6))
    rows = []
    for uid in uids:
        low, high = sorted(draw(st.tuples(ends, ends)))
        rows.append([low, high, draw(payloads), uid])
    return rows


@st.composite
def shard_answers(draw):
    """0..4 shards' rows: one layout shared by all, or one per shard; uids
    from one pool (repeated across shards) or from one pool per shard."""
    shared = draw(st.one_of(st.none(), layouts))
    pool = draw(st.sampled_from([0, 12]))
    return [
        draw(shard_rows(shared if shared is not None else draw(layouts), pool * shard))
        for shard in range(draw(st.integers(0, 4)))
    ]


def received(rows):
    """The frame a shard packs for ``rows``, as the router receives it."""
    frame = P.RecordFrame.from_columns(
        [r[0] for r in rows], [r[1] for r in rows], [r[3] for r in rows], [r[2] for r in rows]
    )
    return P.RecordFrame.parse(frame.data)


def typed(rows):
    """Rows compared type for type (``1 == 1.0`` would hide a repack)."""
    return [[(type(v), v) for v in row] for row in rows]


def oracle(answers, order, cap):
    first = {}
    for row in (row for rows in answers for row in rows):
        first.setdefault(row[3], row)
    rows = list(first.values())
    if order is not None:
        if order.key is None:
            key = lambda r: (r[0], r[1], r[3])  # noqa: E731
        else:
            key = {"low": lambda r: r[0], "high": lambda r: r[1]}[order.key]
        rows.sort(key=key, reverse=order.reverse)
    return rows if cap is None else rows[:cap]


orders = st.one_of(
    st.none(),
    st.builds(lambda key, rev: OrderBy(Stab(0), key, rev),
              st.sampled_from([None, "low", "high"]), st.booleans()),
)


@settings(max_examples=300, deadline=None)
@given(shard_answers(), orders, st.one_of(st.none(), st.integers(0, 8)))
def test_merge_equals_the_deduped_union_oracle(answers, order, cap):
    frames = [received(rows) for rows in answers]
    merged = _merge_frames(frames, dedupe=True, order=order, cap=cap)
    want = oracle(answers, order, cap)
    assert typed(merged.rows()) == typed(want)
    assert merged.count == len(want)
    # what the merge sends is exactly the frame of those records
    assert merged.data == received(want).data
    assert typed(P.RecordFrame.parse(merged.data).rows()) == typed(want)


def test_packed_frames_keep_their_packing_and_mixed_ones_are_packed_as_the_union():
    a = received([[1.0, 2.0, None, 1], [3.0, 4.0, None, 2]])
    b = received([[5.0, 6.0, None, 3]])
    merged = _merge_frames([a, P.RecordFrame.from_columns((), (), (), ()), b], dedupe=True)
    assert merged.kinds == a.kinds == (float, float, int, type(None))
    assert merged.data == received([[1.0, 2.0, None, 1], [3.0, 4.0, None, 2],
                                    [5.0, 6.0, None, 3]]).data
    # ints in one shard and floats in another are packed as the union
    c = received([[5, 6, None, 3]])
    union = [[1.0, 2.0, None, 1], [3.0, 4.0, None, 2], [5, 6, None, 3]]
    assert typed(_merge_frames([a, c], dedupe=True).rows()) == typed(union)
    assert _merge_frames([a, c], dedupe=True).data == received(union).data


def test_a_lone_frame_with_records_is_forwarded_as_it_came():
    a = received([[1.0, 2.0, "x", 1]])
    empty = received([])
    assert _merge_frames([empty, a, empty], dedupe=True) is a
    assert _merge_frames([empty, empty], dedupe=True).count == 0


@pytest.mark.parametrize("around", [
    lambda bad, good, empty: [good, bad],
    lambda bad, good, empty: [empty, bad],
    lambda bad, good, empty: [bad, empty, empty],
], ids=["beside-records", "after-empty", "before-empties"])
def test_a_crc_valid_frame_with_low_above_high_is_refused(around):
    bad = P.RecordFrame.parse(P.RecordFrame.from_columns([5.0], [1.0], [7], [None]).data)
    good = received([[1.0, 2.0, None, 1]])
    with pytest.raises(P.ProtocolError):
        _merge_frames(around(bad, good, received([])), dedupe=True)


def test_an_empty_frame_is_validated_too():
    body = P.RecordFrame.from_columns((), (), (), ()).data[8:] + b"x"  # a trailing byte
    bad = P.RecordFrame.parse(P.FRAME_MAGIC + zlib.crc32(body).to_bytes(4, "little") + body)
    with pytest.raises(P.ProtocolError, match="trailing"):
        _merge_frames([received([[1.0, 2.0, None, 1]]), bad], dedupe=True)
