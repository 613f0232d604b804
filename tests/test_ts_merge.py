"""The TS structures are built by a running merge; this pins it to the re-sort.

``_top_blockings`` used to sort every growing prefix of the siblings' points
and cut it to ``B^2``; it now keeps that cut list and merges each sibling's
sorted points into it.  The property below holds the merge to the old code,
kept here as the oracle: on tie-heavy point sets (coordinates drawn from
five values, so equal ``(x, y)`` pairs recur under distinct uids) every TS
page — and, for the 3-sided tree, every ``ts_right`` page — is the same
``FileDisk`` page, byte for byte, whichever of the two built it.  It covers
the static build, a dynamic tree's ``_ts_reorganisation`` after inserts and
both sibling passes of the 3-sided tree.
"""

from contextlib import contextmanager
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.io import FileDisk
from repro.metablock import AugmentedMetablockTree, StaticMetablockTree, ThreeSidedMetablockTree
from repro.metablock import blocking as blk
from repro.metablock.geometry import PlanarPoint

FIVE = [0.0, 1.0, 2.0, 3.0, 4.0]


def _prefix_resort(self, point_sets):
    """The code the merge replaced: re-sort every prefix, cut to ``B^2``."""
    accumulated = []
    for points in point_sets:
        top = sorted(accumulated, key=lambda p: (p.y, p.x), reverse=True)[: self.capacity]
        yield (blk.build_horizontal(self.disk, top) if top else None), len(top)
        accumulated.extend(points)


@contextmanager
def _oracle(use):
    if not use:
        yield
        return
    with mock.patch.object(StaticMetablockTree, "_top_blockings", _prefix_resort):
        yield


def _ts_pages(tree):
    """Per metablock, in walk order: the raw pages of each TS structure it holds."""
    disk = tree.disk
    out = []
    for mb in tree.iter_metablocks():
        for side in ("ts", "ts_right"):
            blocking = getattr(mb, side, None)
            if blocking is not None:
                out.append((side, [disk._extent(bid)[2] for bid in blocking.block_ids]))
    return out


def _build(cls, B, points, inserts, use_oracle):
    """The TS pages of ``cls`` over ``points``; with ``inserts`` (a list, maybe
    empty) those are inserted and the root's TS structures reorganised."""
    disk = FileDisk(block_size=B)
    with _oracle(use_oracle):
        tree = cls(disk, points)
        if inserts is not None:
            for p in inserts:
                tree.insert(p)
            tree._ts_reorganisation(tree.root)
    pages = _ts_pages(tree)
    disk.close()
    return pages


@st.composite
def tied_points(draw):
    """``B`` and points over five values, with repeated ``(x, y)`` pairs."""
    B = draw(st.sampled_from([2, 3, 4, 8]))
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(FIVE), st.sampled_from(FIVE)),
        min_size=2 * B * B + 1, max_size=4 * B * B + B,
    ))
    repeats = draw(st.lists(st.integers(0, len(pairs) - 1), max_size=B * B))
    pairs += [pairs[i] for i in repeats]
    points = [PlanarPoint(x, y, payload=i) for i, (x, y) in enumerate(pairs)]
    return B, points


SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@settings(**SETTINGS)
@given(tied_points(), st.sampled_from([StaticMetablockTree, ThreeSidedMetablockTree]))
def test_a_built_trees_ts_pages_equal_the_prefix_resorts(case, cls):
    B, points = case
    merged = _build(cls, B, points, None, use_oracle=False)
    assert merged == _build(cls, B, points, None, use_oracle=True)
    # more than 2B^2 points: the root keeps B^2 and cuts more than B^2 into
    # groups of at most B^2, so it has two children or more and TS pages exist
    sides = {"ts", "ts_right"} if cls is ThreeSidedMetablockTree else {"ts"}
    assert {side for side, _ in merged} == sides


@settings(**SETTINGS)
@given(tied_points(), st.data())
def test_a_dynamic_ts_reorganisation_equals_the_prefix_resort(case, data):
    B, points = case
    cut = data.draw(st.integers(2 * B * B + 1, len(points)))
    bulk, inserts = points[:cut], points[cut:]
    for cls in (AugmentedMetablockTree, ThreeSidedMetablockTree):
        merged = _build(cls, B, bulk, inserts, use_oracle=False)
        assert merged and merged == _build(cls, B, bulk, inserts, use_oracle=True)
