"""The page format (``repro.io.pagecodec``): round trip, canonical bytes,
the closed value domain, corruption, format refusal, lazy materialisation,
cross-backend equivalence.
"""

import copy
import json
import math
import os
import pickle
import random
import struct
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ClassRange, EndpointRange, Engine, FileDisk, Range, SimulatedDisk, Stab
from repro.classes.hierarchy import ClassObject
from repro.cli import main
from repro.errors import DomainError
from repro.interval import Interval
from repro.io import pagecodec
from repro.io.pagecodec import PAGE_FORMAT, PageCorruptError, PageFormatError
from repro.metablock.geometry import PlanarPoint
from repro.values import identical
from repro.workloads.generators import (
    balanced_hierarchy,
    random_class_objects,
    random_intervals,
)
from tests.domain import records as domain_records, same, values

SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# --------------------------------------------------------------------------- #
# every shape a page holds, over the whole value domain
# --------------------------------------------------------------------------- #
floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
ints = st.integers(min_value=-(2**63), max_value=2**63 - 1)
big_ints = st.integers(min_value=2**63, max_value=2**80)
uids = st.integers(min_value=0, max_value=2**40)
payloads = values()


def _ordered(endpoints):
    return st.tuples(endpoints, endpoints).map(sorted)


#: int / float / mixed / string endpoint pairs, low <= high within a pair
endpoint_pairs = st.one_of(
    _ordered(ints), _ordered(floats), _ordered(st.text(max_size=4)),
    st.tuples(ints, floats).map(lambda p: sorted(p, key=float)),
)


def _uniform(pairs):
    """Lists whose endpoints all come from one strategy (a typed column)
    next to lists that mix them (the escape hatch)."""
    return st.one_of(
        st.lists(_ordered(floats), max_size=12),
        st.lists(_ordered(ints), max_size=12),
        st.lists(pairs, max_size=12),
    )


@st.composite
def intervals(draw, payload=payloads):
    return [
        Interval(low, high, draw(payload), draw(uids))
        for low, high in draw(_uniform(endpoint_pairs))
    ]


@st.composite
def stab_points(draw):
    """What the interval manager stores: the point (low, high) of an interval."""
    none_or_any = draw(st.sampled_from([st.none(), payloads]))
    return [
        PlanarPoint(iv.low, iv.high, payload=iv, uid=draw(uids))
        for iv in draw(intervals(none_or_any))
    ]


@st.composite
def class_objects(draw):
    return [
        ClassObject(draw(floats), draw(st.sampled_from(["A", "B", "C"])), draw(payloads), draw(uids))
        for _ in range(draw(st.integers(0, 10)))
    ]


record_lists = st.one_of(
    stab_points(),
    # a point whose payload interval is *not* its own coordinates
    st.lists(st.builds(PlanarPoint, floats, floats, st.builds(Interval, st.just(0), st.just(1)), uids), max_size=6),
    class_objects().map(lambda objs: [PlanarPoint(o.key, o.key, o, o.uid) for o in objs]),
    intervals(),
    intervals().map(lambda ivs: [(iv.low, iv) for iv in ivs]),                   # leaf entries
    class_objects().map(lambda objs: [(o.key, o) for o in objs]),
    st.lists(st.tuples(floats, ints), max_size=12),                               # internal nodes
    st.lists(floats, max_size=12),                                                # corner index
    st.lists(ints, max_size=12),
    st.lists(big_ints, max_size=4),
    st.lists(st.booleans(), max_size=4),
    st.lists(st.tuples(ints, ints, ints), max_size=4),
    st.lists(values(), max_size=8),                                               # anything: ``V``
    st.lists(domain_records(payloads), max_size=6),
    st.just([]),
)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), ints, floats, st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8,
)
headers = st.one_of(
    st.just({}),
    st.fixed_dictionaries({"leaf": st.booleans(), "next": st.one_of(st.none(), ints)}),
    st.fixed_dictionaries({"is_leaf": st.booleans(), "n_points": ints, "children": ints}),
    st.dictionaries(st.text(max_size=4), st.one_of(floats, st.text(max_size=4)), max_size=3),
    st.just({"entries": [{"name": "c", "params": {"dynamic": True}}], "format": 1}),
    st.dictionaries(st.text(max_size=4), json_values, max_size=3),               # nested JSON
    st.dictionaries(st.text(max_size=4), st.one_of(values(), st.sampled_from([math.inf, -math.inf])),
                    min_size=1, max_size=3),                                     # anything: ``V``
)


@settings(**SETTINGS)
@given(records=record_lists, header=headers, extra=st.integers(0, 5))
def test_decode_inverts_encode(records, header, extra):
    capacity = len(records) + extra
    raw = pagecodec.encode(capacity, records, header)
    got_capacity, count, got_header, column = pagecodec.decode(raw)
    decoded = column.tolist()
    assert (got_capacity, count) == (capacity, len(records))
    assert type(decoded) is list and decoded == records            # values, order
    assert same(decoded, records) and same(got_header, header)     # type for type, uid for uid
    # rows taken one at a time are the same records
    assert same(column.take(range(len(records))), records)


@settings(**SETTINGS)
@given(records=record_lists, header=headers)
def test_encoding_is_canonical(records, header):
    """Identical blocks give identical bytes: a deep copy, a header built in
    another key order, and the decoded block all encode identically."""
    raw = pagecodec.encode(len(records), records, header)
    shuffled = dict(sorted(header.items(), reverse=True))
    assert pagecodec.encode(len(records), copy.deepcopy(records), shuffled) == raw
    _capacity, _count, got_header, column = pagecodec.decode(raw)
    assert pagecodec.encode(len(records), column.tolist(), got_header) == raw


@settings(**SETTINGS)
@given(a=values(), b=values())
def test_identical_values_are_exactly_those_with_one_encoding(a, b):
    """``repro.values.identical`` — how the rebuilding core tells a dead
    copy from a live version — agrees with the page bytes."""
    def page(value):
        return pagecodec.encode(1, [value], {})

    assert identical(pagecodec.decode(page(a))[3].tolist()[0], a)
    assert identical(a, b) == (page(a) == page(b))


def test_types_and_zeros_stay_apart():
    """What ``==`` conflates the bytes keep apart: ``tuple``/``list``,
    ``int``/``float``/``bool``, ``str``/``bytes``, ``0.0``/``-0.0``."""
    alike = [[(1, 2), [1, 2]], [1, 1.0, True], ["a", b"a"], [0.0, -0.0], [{"k": 0.0}, {"k": -0.0}],
             [Interval(0, 1, {"v": 1}, uid=5), Interval(0, 1, {"v": 1.0}, uid=5)]]
    for group in alike:
        assert not any(identical(x, y) for i, x in enumerate(group) for y in group[i + 1:])
        for mixed in ([], ["pad"]):    # a typed column, and one ``V`` column
            pages = [pagecodec.encode(4, [value] + mixed, {}) for value in group]
            assert len(set(pages)) == len(group), group
            for value, raw in zip(group, pages):
                assert same(pagecodec.decode(raw)[3].tolist(), [value] + mixed)


def test_what_is_outside_the_domain_is_refused_not_stored():
    class Opaque:
        pass

    for bad in ({1, 2}, Opaque(), {1: "int key"}, [0.5j]):
        with pytest.raises(DomainError):
            pagecodec.encode(4, [("key", bad)], {})      # no encoding exists for it
    for bad in ({1, 2}, 0.5j, {1: 2}):
        with pytest.raises(DomainError):
            pagecodec.encode(4, [], {"h": bad})


def test_a_header_is_json_when_json_holds_it_exactly_and_a_v_value_else():
    """Tag 1 (JSON) for what nearly every block holds, tag 2 (one ``V``
    dict) for a tuple, a ``Fraction``, an infinity or a record."""
    from fractions import Fraction

    def tag(header):
        return pagecodec.encode(4, [], header)[24]

    assert tag({}) == 0
    assert tag({"leaf": True, "next": None, "split": [0.5, -2, "s"], "d": {"k": -0.0}}) == 1
    for value in ((1, 2), Fraction(1, 3), math.inf, -math.inf, b"b", ClassObject(1.0, "A"),
                  [("animal",), None]):
        raw = pagecodec.encode(4, [], {"h": value})
        assert raw[24] == 2 and same(pagecodec.decode(raw)[2], {"h": value})


def test_typed_kinds_and_omitted_payload_column():
    def kind(records):
        return chr(pagecodec.encode(16, records, {})[9])

    ivs = [Interval(1.0, 2.0), Interval(3.0, 4.5)]
    assert kind([PlanarPoint(iv.low, iv.high, iv) for iv in ivs]) == "S"
    assert kind([PlanarPoint(0.0, 9.0, iv) for iv in ivs]) == "P"
    assert kind([(iv.low, iv) for iv in ivs]) == "T"
    assert kind(ivs) == "I" and kind([1.0, 2.0]) == "d" and kind([1, 2]) == "q"
    assert kind([]) == "-" and kind([None]) == "N"
    assert kind([ClassObject(1.0, "A")]) == "V" and kind([1, 2.0]) == "V" and kind([2**64]) == "V"
    bare = pagecodec.encode(16, ivs, {})
    tagged = pagecodec.encode(16, [Interval(1.0, 2.0, 7), Interval(3.0, 4.5, 8)], {})
    assert len(tagged) - len(bare) == 8 * len(ivs)      # all-None payloads cost no bytes


# --------------------------------------------------------------------------- #
# a damaged page is an error, never data
# --------------------------------------------------------------------------- #
def _disk_with_page(tmp_path):
    disk = FileDisk(str(tmp_path / "db.pages"), block_size=8)
    ivs = [Interval(float(i), float(i + 2), i) for i in range(6)]
    block = disk.allocate(
        records=[PlanarPoint(iv.low, iv.high, iv) for iv in ivs], header={"leaf": True}
    )
    disk._file.flush()          # the tests below damage the file through a second handle
    return disk, block.block_id


def _flip(disk, at):
    offset, _length = disk._extents[0]
    with open(disk.path, "r+b") as fh:
        fh.seek(offset + at)
        byte = fh.read(1)
        fh.seek(offset + at)
        fh.write(bytes([byte[0] ^ 0x40]))


#: one byte in each section of the page: magic, crc, version, kind, count,
#: capacity, body length, header section, record column, last byte
SECTIONS = {"magic": 0, "crc": 5, "version": 8, "kind": 9, "count": 12, "capacity": 16,
            "body_length": 20, "header": 30, "column": 60, "tail": -1}


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_flipped_byte_raises_typed_error_from_every_read_path(tmp_path, section):
    disk, bid = _disk_with_page(tmp_path)
    try:
        at = SECTIONS[section]
        _flip(disk, at if at >= 0 else disk._extents[bid][1] + at)
        for access in (disk.read, disk.peek, lambda _bid: disk.compact()):
            with pytest.raises(PageCorruptError) as err:
                access(bid)
            assert err.value.block_id == bid and err.value.offset == 0
            assert err.value.reason and str(bid) in str(err.value)
        assert disk.file_bytes == disk._extents[bid][1]      # compact touched nothing
    finally:
        disk.close()


def test_truncated_extent_wrong_magic_and_unknown_version(tmp_path):
    disk, bid = _disk_with_page(tmp_path)
    try:
        raw = Path(disk.path).read_bytes()
        with pytest.raises(PageCorruptError, match="bad magic"):
            pagecodec.decode(b"XXXX" + raw[4:], bid)
        future = raw[:8] + bytes([PAGE_FORMAT + 1]) + raw[9:]
        with pytest.raises(PageCorruptError, match=f"version {PAGE_FORMAT + 1}.*version {PAGE_FORMAT}"):
            pagecodec.decode(future, bid)
        with pytest.raises(PageCorruptError, match="truncated"):
            pagecodec.decode(raw[:10], bid)
        os.truncate(disk.path, len(raw) - 7)
        with pytest.raises(PageCorruptError, match="truncated extent"):
            disk.read(bid)
    finally:
        disk.close()


def test_body_the_checksum_blesses_but_cannot_be_decoded_fails_typed(tmp_path):
    # a foreign writer with a valid crc over a nonsense column tag
    body = bytes([0]) + b"?" + struct.pack("<2d", 1.0, 2.0)
    tail = struct.pack("<BBxxIII", PAGE_FORMAT, ord("?"), 2, 4, len(body))
    raw = pagecodec.MAGIC + struct.pack("<I", zlib.crc32(tail + body)) + tail + body
    with pytest.raises(PageCorruptError, match="undecodable"):
        pagecodec.decode(raw, 3, 64)


def test_other_page_formats_are_refused_not_misdecoded(tmp_path):
    path = str(tmp_path / "db.pages")
    engine = Engine(FileDisk(path, block_size=8))
    engine.create_collection("c", [Interval(1.0, 2.0)])
    engine.close()
    sidecar = Path(path + ".meta")
    written = sidecar.read_bytes()
    state = json.loads(written)
    assert state["page_format"] == PAGE_FORMAT == 2
    assert pagecodec.canonical_json(state).encode() == written   # canonical JSON, nothing else
    # format 1 pickled its sidecar (and its pages' escape hatch); format 0 had no field
    others = {
        "0": json.dumps({k: v for k, v in state.items() if k != "page_format"}).encode(),
        "1 or earlier": pickle.dumps({**state, "page_format": 1}),
        str(PAGE_FORMAT + 1): json.dumps({**state, "page_format": PAGE_FORMAT + 1}).encode(),
    }
    for label, other in others.items():
        sidecar.write_bytes(other)
        for opener in (FileDisk.open, Engine.open):
            with pytest.raises(PageFormatError, match=f"format {label};.*format {PAGE_FORMAT}"):
                opener(path)
        assert main(["catalog", "--db", path]) == 2
    sidecar.write_bytes(written)
    reopened = Engine.open(path)
    assert len(reopened.query("c", Stab(1.5)).all()) == 1
    reopened.close()


def _answer(engine, name, q):
    return sorted((getattr(r, "uid", None), str(r)) for r in engine.query(name, q).all())


def test_class_and_constraint_catalogs_are_json_and_reopen(tmp_path, capsys):
    """The two kinds whose pages and catalog entries held objects: the root
    entry stores the hierarchy as its ordered pairs, ``repro catalog`` lists
    it, and a reopened engine labels the classes as the original did."""
    from repro.constraints.relation import GeneralizedRelation
    from repro.constraints.terms import Constraint, GeneralizedTuple, Variable

    path = str(tmp_path / "db.pages")
    hierarchy = balanced_hierarchy(2, 3)
    x = Variable("x")
    tuples = [GeneralizedTuple([Constraint(x, ">=", i), Constraint(x, "<", i + 5)], name=f"t{i}")
              for i in range(40)]
    with Engine.open_or_create(path, block_size=8) as engine:
        engine.create_class_index("k", hierarchy, random_class_objects(hierarchy, 80, seed=2),
                                  method="combined")
        engine.create_constraint_index("r", GeneralizedRelation(["x"], tuples, name="r"), "x")
        queries = [("k", ClassRange(c, 100.0, 700.0)) for c in hierarchy.classes()]
        queries += [("r", Stab(12.5)), ("r", Range(3.0, 9.0))]
        want = [_answer(engine, n, q) for n, q in queries]
    header = json.loads(Path(path + ".meta").read_text())
    assert header["meta"]["catalog_root"] in [b for b, *_ in header["blocks"]]
    with Engine.open(path) as reopened:
        assert [_answer(reopened, n, q) for n, q in queries] == want
        labels = reopened["k"].hierarchy.labels()
        assert labels == hierarchy.labels()
    assert main(["catalog", "--db", path]) == 0
    out = capsys.readouterr().out
    assert f"hierarchy={len(hierarchy)} classes" in out and "relation_name='r'" in out


# --------------------------------------------------------------------------- #
# lazy blocks
# --------------------------------------------------------------------------- #
def test_block_from_filedisk_is_lazy_until_records_are_touched(tmp_path):
    disk, bid = _disk_with_page(tmp_path)
    try:
        block = disk.read(bid)
        assert disk.decoded.pages == 1 and disk.decoded.records == 0
        assert block.count == 6 and block.capacity == 8
        assert [iv.payload for iv in block.take([1, 4], payloads=True)] == [1, 4]
        assert disk.decoded.records == 2
        records = block.records()
        assert disk.decoded.records == 8
        assert block.records() is not records and disk.decoded.records == 14   # built anew
        disk.write(block.replace(records + records[:1]))
        assert disk.read(bid).count == 7 and block.count == 6
    finally:
        disk.close()


@settings(**SETTINGS)
@given(records=st.one_of(record_lists, st.lists(domain_records(payloads), max_size=6)))
def test_the_split_is_the_reader_decode_gives_back(records):
    """What a page holds on every backend: the columns ``split`` makes of
    its records are the columns ``decode`` makes of its bytes — the same
    readers, kinds and records, and they pack to the same bytes."""
    split = pagecodec.split(records)
    decoded = pagecodec.decode(pagecodec.encode(len(records), records, {}))[3]
    assert _structure(split) == _structure(decoded)
    assert same(split.tolist(), decoded.tolist()) and same(split.tolist(), records)
    assert pagecodec.pack(len(records), len(records), {}, split) == pagecodec.pack(
        len(records), len(records), {}, decoded
    )


def test_filedisk_stab_materialises_what_it_returns_plus_at_most_a_block(tmp_path):
    B = 16
    disk = FileDisk(str(tmp_path / "db.pages"), block_size=B)
    engine = Engine(disk)
    engine.create_collection("c", random_intervals(3000, (0.0, 1000.0), 20.0, seed=3))
    try:
        rnd = random.Random(4)
        for _ in range(25):
            before = (disk.decoded.pages, disk.decoded.records)
            result = engine.query("c", Stab(rnd.uniform(0.0, 1000.0)))
            hits = result.all()
            assert disk.decoded.pages - before[0] == result.ios
            assert len(hits) <= disk.decoded.records - before[1] <= len(hits) + B
    finally:
        engine.close()


# --------------------------------------------------------------------------- #
# the backend does not change answers or I/Os
# --------------------------------------------------------------------------- #
def test_same_answers_and_same_ios_on_memory_and_file(tmp_path):
    hierarchy = balanced_hierarchy(2, 3)
    answers = {}
    for label, backend in (
        ("memory", SimulatedDisk(16)),
        ("file", FileDisk(str(tmp_path / "db.pages"), block_size=16)),
    ):
        engine = Engine(backend)
        ivs = random_intervals(2500, (0.0, 1000.0), 20.0, seed=9)
        engine.create_collection("c", [Interval(iv.low, iv.high, iv.payload, uid=i)
                                       for i, iv in enumerate(ivs)])
        objects = random_class_objects(hierarchy, 1200, seed=9)
        engine.create_class_index("k", hierarchy, [
            ClassObject(o.key, o.class_name, o.payload, uid=i) for i, o in enumerate(objects)
        ])
        # writes too, so update blocks and split leaves are on the read path
        for i in range(40):
            engine.insert("c", Interval(10.0 * i, 10.0 * i + 35.0, -i, uid=100_000 + i))
        rnd = random.Random(10)
        got = []
        for _ in range(30):
            x = rnd.uniform(0.0, 1000.0)
            queries = [
                ("c", Stab(x)),
                ("c", Range(x, x + 15.0)),
                ("c", EndpointRange("low", x, x + 5.0)),
                ("c", EndpointRange("high", x, x + 5.0, min_inclusive=False)),
                ("k", ClassRange(rnd.choice(hierarchy.classes()), x, x + 80.0)),
            ]
            for name, q in queries:
                result = engine.query(name, q)
                records = result.all()
                got.append(([(r.uid, r) for r in records], result.ios))
        answers[label] = got
        engine.close()
    assert answers["memory"] == answers["file"]
    assert sum(ios for _records, ios in answers["file"]) > 0


# --------------------------------------------------------------------------- #
# unpack plans: a packed page in one struct call, read exactly as the
# generic column reader reads it
# --------------------------------------------------------------------------- #
PLAN_B = 16
#: int64 extremes, both zeros, both infinities
EDGE_INTS = [-(2**63), 2**63 - 1, 0, -1, 7]
EDGE_FLOATS = [-0.0, 0.0, math.inf, -math.inf, 1.5, -2.25, 5e-324]
FINITE_FLOATS = [f for f in EDGE_FLOATS if math.isfinite(f)]


def _cycle(values, n):
    return [values[i % len(values)] for i in range(n)]


def _ordered_pairs(values, n):
    return [tuple(sorted((a, b))) for a, b in zip(_cycle(values, n), _cycle(values[::-1], n))]


def _packed_pages(n):
    """A page of ``n`` records of every packed layout: name -> records."""
    uids = [1000 + i for i in range(n)]
    pages = {}
    for ends_name, ends in (("d", EDGE_FLOATS), ("q", EDGE_INTS)):
        pairs = _ordered_pairs(ends, n)
        for pay_name, pay in (("d", FINITE_FLOATS), ("q", EDGE_INTS), ("N", [None])):
            ivs = [Interval(lo, hi, p, u) for (lo, hi), p, u in zip(pairs, _cycle(pay, n), uids)]
            pages[f"I{ends_name}{pay_name}"] = ivs
            pages[f"S{ends_name}{pay_name}"] = [
                PlanarPoint(iv.low, iv.high, iv, u + 1) for iv, u in zip(ivs, uids)
            ]
            pages[f"P{ends_name}{pay_name}"] = [
                PlanarPoint(lo, hi, p, u) for (lo, hi), p, u in zip(pairs, _cycle(pay, n), uids)
            ]
            pages[f"T{ends_name}{pay_name}"] = [(iv.low, iv) for iv in ivs]
    pages["Tqq"] = list(zip(_cycle(EDGE_INTS, n), _cycle(EDGE_INTS[::-1], n)))
    pages["d"] = _cycle(EDGE_FLOATS, n)
    pages["q"] = _cycle(EDGE_INTS, n)
    pages["N"] = [None] * n
    return pages


def _counting_generic(monkeypatch):
    real = pagecodec.decode_column

    def counting(*args):
        counting.calls += 1
        return real(*args)

    counting.calls = 0
    monkeypatch.setattr(pagecodec, "decode_column", counting)
    return counting


def _structure(column):
    """What a reader is made of: reader types, kinds, the S page's shared
    endpoint columns — everything but the values ``same`` compares."""
    if type(column) is tuple:
        return "tuple"
    slots = [getattr(column, name) for name in type(column).__slots__ if name != "objects"]
    shape = [type(column).__name__, getattr(column, "kinds", None)]
    shape += [_structure(part) for part in slots if not isinstance(part, tuple)]
    if type(column) is pagecodec.PointColumn and type(column.payloads) is pagecodec.IntervalColumn:
        shape.append(column.payloads.lows is column.xs and column.payloads.highs is column.ys)
    return shape


@pytest.mark.parametrize("n", range(PLAN_B + 1))
def test_the_unpack_plan_reads_what_the_generic_decoder_reads(n, monkeypatch):
    generic = _counting_generic(monkeypatch)
    monkeypatch.setattr(pagecodec, "_PLANS", {})
    for name, records in _packed_pages(n).items():
        raw = pagecodec.encode(PLAN_B, records, {"leaf": True})
        column = 24 + len(pagecodec._encode_header({"leaf": True}))
        assert raw[column] == ord(name[0] if n else "-"), name   # the layout of this case
        pagecodec._PLANS.clear()
        generic.calls = 0
        first = pagecodec.decode(raw)                        # the generic reader, which learns
        assert generic.calls > 0, name
        generic.calls = 0
        planned = pagecodec.decode(raw)                      # the plan alone
        assert generic.calls == 0, name
        assert first[:3] == planned[:3]
        assert same(planned[3].tolist(), records) and same(first[3].tolist(), records), name
        assert same(planned[3].take(range(n)), records), name
        assert _structure(planned[3]) == _structure(first[3]), name


def _with_crc(raw):
    """``raw`` with its crc recomputed: only the decoder's own checks remain."""
    return raw[:4] + struct.pack("<I", zlib.crc32(raw[8:])) + raw[8:]


def test_a_plan_decoded_page_with_a_wrong_tag_or_length_fails_typed(monkeypatch):
    monkeypatch.setattr(pagecodec, "_PLANS", {})
    n = 6
    ivs = [Interval(float(i), float(i + 2), i, 50 + i) for i in range(n)]
    raw = pagecodec.encode(8, [PlanarPoint(iv.low, iv.high, iv, i) for i, iv in enumerate(ivs)], {})
    pagecodec.decode(raw)
    assert pagecodec._PLANS                                  # learned: the next read is planned
    column = 25                                              # frame (24) + empty header tag
    uids_tag = column + 1 + 2 * (1 + 8 * n)
    assert raw[column:column + 2] == b"Sd" and raw[uids_tag] == ord("q")
    damaged = {
        "unknown tag": raw[:uids_tag] + b"x" + raw[uids_tag + 1:],
        "outer tag": raw[:column] + b"I" + raw[column + 1:],
        "shorter body": raw[:-8],
        "longer body": raw + bytes(8),
        "tag of another width": raw[:uids_tag] + b"N" + raw[uids_tag + 1:],
    }
    for why, page in damaged.items():
        body = len(page) - 24
        page = _with_crc(page[:20] + struct.pack("<I", body) + page[24:])
        with pytest.raises(PageCorruptError) as err:
            pagecodec.decode(page, 41, 4096)
        assert err.value.block_id == 41 and "block 41" in str(err.value), why
    assert same(pagecodec.decode(raw)[3].payloads.tolist(), ivs)     # the plan itself is intact
