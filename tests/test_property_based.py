"""Property-based tests (hypothesis) for the core data structures and invariants.

Each property compares an external structure against its brute-force oracle
on arbitrary generated inputs, or checks a structural invariant the paper's
proofs rely on.  Sizes are kept moderate so the whole module stays fast.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Engine, Stab
from repro.btree import BPlusTree
from repro.classes import CombinedClassIndex, SimpleClassIndex
from repro.classes.decomposition import label_edges, rake_and_contract
from repro.classes.hierarchy import ClassHierarchy, ClassObject
from repro.core import ExternalIntervalManager
from repro.interval import Interval
from repro.io import FileDisk, SimulatedDisk
from repro.metablock import AugmentedMetablockTree, StaticMetablockTree, ThreeSidedMetablockTree
from repro.metablock.corner import CornerStructure
from repro.metablock.geometry import PlanarPoint
from repro.pst import ExternalPST

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
small_float = st.floats(min_value=0, max_value=1000, allow_nan=False, allow_infinity=False)


# --------------------------------------------------------------------------- #
# B+-tree
# --------------------------------------------------------------------------- #
@settings(**SETTINGS)
@given(
    keys=st.lists(st.integers(min_value=-500, max_value=500), max_size=150),
    bounds=st.tuples(st.integers(-500, 500), st.integers(-500, 500)),
    block_size=st.sampled_from([4, 8, 16]),
)
def test_btree_range_search_matches_oracle(keys, bounds, block_size):
    tree = BPlusTree(SimulatedDisk(block_size))
    for i, k in enumerate(keys):
        tree.insert(k, i)
    lo, hi = min(bounds), max(bounds)
    expected = sorted((k, i) for i, k in enumerate(keys) if lo <= k <= hi)
    assert sorted(tree.range_search(lo, hi)) == expected


@settings(**SETTINGS)
@given(keys=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=120))
def test_btree_iteration_is_sorted_and_complete(keys):
    tree = BPlusTree.bulk_load(SimulatedDisk(8), ((k, None) for k in keys))
    stored = [k for k, _ in tree.iter_pairs()]
    assert stored == sorted(keys)
    assert len(tree) == len(keys)


# --------------------------------------------------------------------------- #
# corner structure and metablock trees
# --------------------------------------------------------------------------- #
def _interval_points(raw):
    return [PlanarPoint(lo, lo + abs(length), payload=i) for i, (lo, length) in enumerate(raw)]


@settings(**SETTINGS)
@given(
    raw=st.lists(st.tuples(small_float, small_float), max_size=120),
    q=st.floats(min_value=-100, max_value=2100, allow_nan=False),
)
def test_corner_structure_matches_oracle(raw, q):
    pts = _interval_points(raw)
    corner = CornerStructure(SimulatedDisk(4), pts)
    got, _ = corner.query(q)
    assert sorted((p.x, p.y) for p in got) == sorted(
        (p.x, p.y) for p in pts if p.x <= q and p.y >= q
    )


# The trees are drawn over floats (untied, as the paper assumes) and over
# integer grids small enough that x and y values tie; with small B the
# trees are deep and every reorganisation is reached within 300 points.
# Query corners are taken from the data's own coordinates, where a boundary
# or a stale shortcut shows, and answers are compared record by record.
# Derandomized: whether one of these fails must not depend on the run.
TREE_SETTINGS = dict(SETTINGS, max_examples=150, derandomize=True)


@st.composite
def planar_case(draw, diagonal, floats=True):
    """Points (``y >= x`` when ``diagonal``), a block size, how many of the
    points are bulk-built before the rest is inserted, and query corners
    (triples of them for the 3-sided tree).  Without ``floats`` every
    coordinate is drawn from an integer grid."""
    grid = draw(st.sampled_from([None, 5, 20, 1000] if floats else [5, 20, 1000]))
    coord = small_float if grid is None else st.integers(0, grid)
    # the size is drawn first: a bare ``lists`` averages five elements
    n = draw(st.integers(0, 300))
    raw = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    points = [PlanarPoint(x, x + h if diagonal else h, payload=i) for i, (x, h) in enumerate(raw)]
    # most reorganisations need B^2 inserts to come about: favour small B
    # and trees grown from nothing
    block_size = draw(st.sampled_from([2, 2, 3, 4, 8]))
    bulk = draw(st.one_of(st.just(0), st.just(1), st.integers(0, n)))
    values = sorted({v for p in points for v in (p.x, p.y)}) or [0]
    corner = st.sampled_from([values[0] - 1] + values + [values[-1] + 1])
    query = corner if diagonal else st.tuples(corner, corner, corner)
    return points, block_size, min(bulk, n), draw(st.lists(query, min_size=1, max_size=12))


def _uids(points):
    return sorted(p.uid for p in points)


@settings(**TREE_SETTINGS)
@given(case=planar_case(diagonal=True))
def test_static_metablock_tree_matches_oracle(case):
    pts, block_size, _, corners = case
    tree = StaticMetablockTree(SimulatedDisk(block_size), pts)
    tree.check_invariants()
    for q in corners:
        assert _uids(tree.diagonal_query(q)) == _uids(p for p in pts if p.x <= q and p.y >= q)


@settings(**TREE_SETTINGS)
@given(case=planar_case(diagonal=True))
def test_dynamic_metablock_tree_matches_oracle_after_inserts(case):
    pts, block_size, bulk, corners = case
    tree = AugmentedMetablockTree(SimulatedDisk(block_size), pts[:bulk])
    for p in pts[bulk:]:
        tree.insert(p)
    tree.check_invariants()
    for q in corners:
        assert _uids(tree.diagonal_query(q)) == _uids(p for p in pts if p.x <= q and p.y >= q)


@settings(**TREE_SETTINGS)
@given(case=planar_case(diagonal=False, floats=False))
def test_external_pst_matches_oracle(case):
    points, block_size, _, windows = case
    pst = ExternalPST(SimulatedDisk(block_size), points)
    for a, b, y0 in windows:
        x1, x2 = min(a, b), max(a, b)
        assert _uids(pst.query_3sided(x1, x2, y0)) == _uids(
            p for p in points if x1 <= p.x <= x2 and p.y >= y0
        )
        assert _uids(pst.query_2sided(x2, y0)) == _uids(p for p in points if p.x <= x2 and p.y >= y0)


@settings(**TREE_SETTINGS)
@given(case=planar_case(diagonal=False))
def test_three_sided_metablock_matches_oracle(case):
    points, block_size, bulk, windows = case
    tree = ThreeSidedMetablockTree(SimulatedDisk(block_size), points[:bulk])
    for p in points[bulk:]:
        tree.insert(p)
    tree.check_invariants()
    # the window that holds everything finds a point no block holds
    for a, b, y0 in [(-1, 1001, -1)] + windows:
        x1, x2 = min(a, b), max(a, b)
        assert _uids(tree.query_3sided(x1, x2, y0)) == _uids(
            p for p in points if x1 <= p.x <= x2 and p.y >= y0
        )


# -- what the properties above found, as plain cases ------------------------- #
def _grown(first, inserts, block_size=2):
    """An augmented tree bulk-built over ``first`` and grown by ``inserts``."""
    points = [PlanarPoint(x, y, payload=i) for i, (x, y) in enumerate(first + inserts)]
    tree = AugmentedMetablockTree(SimulatedDisk(block_size), points[: len(first)])
    tree.insert_many(points[len(first) :])
    return tree, points


def _assert_diagonal_exact(tree, points, q):
    assert _uids(tree.diagonal_query(q)) == _uids(p for p in points if p.x <= q and p.y >= q)


def test_left_siblings_sharing_a_max_x_are_all_reported():
    """Two left children with one ``subtree_max_x``: the TS shortcut must be
    the last one's, the only one that spans the other."""
    tree, points = _grown(
        [(3, 6)],
        [(3, 4), (1, 2), (7, 7), (3, 6), (1, 8), (3, 5), (0, 7), (3, 7), (0, 4), (7, 7),
         (2, 2), (3, 7), (2, 7), (0, 5), (1, 3)],
    )
    _assert_diagonal_exact(tree, points, 4)  # used to omit (3, 6) and (3, 5)


def test_push_down_interrupted_by_a_split_strands_no_update_points():
    """A level II push-down whose first receiver splits must still put the
    other receivers' points in a block (distinct coordinates)."""
    tree, points = _grown(
        [(24, 96)],
        [(76, 139), (2, 170), (60, 186), (65, 185), (44, 190), (88, 109), (8, 108), (86, 167),
         (37, 161), (104, 166), (102, 179), (47, 197), (169, 199), (48, 193), (92, 178)],
    )
    _assert_diagonal_exact(tree, points, 2)  # used to omit (2, 170)


def test_insert_through_a_split_is_recorded_above_it():
    """A point whose insertion splits a metablock is still new to the TS
    structures of every ancestor above the split, so their TD structures
    must get it (distinct coordinates)."""
    tree, points = _grown(
        [],
        [(70, 191), (82, 156), (52, 187), (16, 160), (66, 194), (97, 177), (26, 121), (84, 152),
         (76, 193), (75, 161), (86, 179), (74, 166), (99, 136), (53, 119), (43, 174), (93, 181),
         (81, 155), (71, 199), (83, 131), (58, 135), (29, 109), (90, 143), (64, 100), (67, 184),
         (24, 124), (34, 111), (44, 140), (13, 148), (54, 168), (2, 189), (35, 185)],
    )
    _assert_diagonal_exact(tree, points, 168)  # used to omit (35, 185)


def test_a_point_copied_into_td_is_reported_once():
    """TD(root) copies (0, 5), which also lives in the root's rightmost
    child.  TS(rightmost) stands in for the other child, a leaf, so the walk
    reads TD(root) and enters the rightmost child too: it must deduplicate
    while a TD holds points — and a walk that does not reports (0, 5)
    twice."""
    tree, points = _grown(
        [(6, 30), (8, 27), (1, 20), (-9, -3), (-2, 1), (0, 21), (-6, 19), (7, 32), (9, 28)],
        [(0, 5)],
    )
    assert tree.td_holders == 1
    _assert_diagonal_exact(tree, points, 1)
    tree.td_holders = 0  # force Hits to stop tracking
    assert _uids(tree.diagonal_query(1)) == sorted([points[-1].uid] + _uids(
        p for p in points if p.x <= 1 and p.y >= 1
    ))


def test_engine_stab_is_exact_on_integer_endpoints():
    """The same defects through the public API: tied endpoints, small pages."""
    rnd = random.Random(14)

    def interval(i):
        low = rnd.randint(0, 20)
        return Interval(low, rnd.randint(low, 20), payload=i)

    engine = Engine(block_size=8)
    stored = [interval(i) for i in range(50)]
    engine.create_collection("c", stored)
    for i in range(50, 300):
        stored.append(interval(i))
        engine.insert("c", stored[-1])
    for x in range(21):
        hits = engine.query("c", Stab(x)).all()
        assert len(hits) == sum(1 for iv in stored if iv.low <= x <= iv.high), x


# --------------------------------------------------------------------------- #
# interval manager
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ["memory", "file"])
@settings(**dict(TREE_SETTINGS, max_examples=60))
@given(case=planar_case(diagonal=True, floats=False), data=st.data())
def test_interval_manager_matches_oracle(backend, case, data):
    """Bulk-built prefix, inserts (which fill TD structures), deletes; the
    file leg runs the scans over packed page columns."""
    points, block_size, bulk, stabs = case
    intervals = [Interval(p.x, p.y, payload=i) for i, p in enumerate(points)]
    doomed = data.draw(st.lists(st.sampled_from(intervals), max_size=len(intervals) // 3)
                       if intervals else st.just([]))
    disk = SimulatedDisk(block_size) if backend == "memory" else FileDisk(block_size=block_size)
    try:
        manager = ExternalIntervalManager(disk, intervals[:bulk])
        for iv in intervals[bulk:]:
            manager.insert(iv)
        live = {iv.uid: iv for iv in intervals}
        for iv in doomed:
            assert manager.delete(iv) == (live.pop(iv.uid, None) is not None)
        manager._stabbing.check_invariants()
        for x, other in zip(stabs, reversed(stabs)):
            assert _uids(manager.stabbing_query(x)) == _uids(
                iv for iv in live.values() if iv.contains(x)
            )
            lo, hi = min(x, other), max(x, other)
            assert _uids(manager.intersection_query(lo, hi)) == _uids(
                iv for iv in live.values() if iv.intersects_range(lo, hi)
            )
    finally:
        if backend == "file":
            disk.close()


# --------------------------------------------------------------------------- #
# class hierarchies
# --------------------------------------------------------------------------- #
@st.composite
def hierarchies(draw):
    size = draw(st.integers(min_value=1, max_value=24))
    parents = [draw(st.integers(min_value=0, max_value=max(0, i - 1))) for i in range(size)]
    hierarchy = ClassHierarchy()
    for i in range(size):
        hierarchy.add_class(f"C{i}", None if i == 0 else f"C{parents[i]}")
    return hierarchy


@settings(**SETTINGS)
@given(hierarchy=hierarchies())
def test_label_class_ranges_nest_exactly(hierarchy):
    labels = hierarchy.labels()
    for cls in hierarchy.classes():
        lo, hi = labels[cls]
        descendants = set(hierarchy.descendants(cls))
        for other in hierarchy.classes():
            inside = lo <= labels[other][0] < hi
            assert inside == (other in descendants)


@settings(**SETTINGS)
@given(hierarchy=hierarchies())
def test_rake_and_contract_invariants(hierarchy):
    labeling = label_edges(hierarchy)
    decomposition = rake_and_contract(hierarchy, labeling)
    c = len(hierarchy)
    assert set(decomposition.query_plan) == set(hierarchy.classes())
    limit = math.ceil(math.log2(c)) + 1 if c > 1 else 1
    assert decomposition.max_copies() <= limit
    for cls in hierarchy.classes():
        assert labeling.thin_edge_count_to_root(cls, hierarchy) <= (math.log2(c) if c > 1 else 0)


@pytest.mark.parametrize("backend", ["memory", "file"])
@settings(**dict(TREE_SETTINGS, max_examples=40))
@given(hierarchy=hierarchies(), data=st.data())
def test_class_indexes_match_oracle(backend, hierarchy, data):
    """Both schemes over integer keys that tie, a bulk-built prefix then
    inserts, ``B`` in {2, 3, 4, 8}, and windows from the data's own keys
    ± 1; answers are compared as multisets of object uids.  The file leg
    reads decoded page columns."""
    classes = hierarchy.classes()
    n = data.draw(st.integers(0, 300))
    grid = data.draw(st.sampled_from([3, 20, 200]))
    raw = data.draw(st.lists(
        st.tuples(st.integers(0, grid), st.integers(0, len(classes) - 1)), min_size=n, max_size=n
    ))
    objects = [ClassObject(key, classes[c], payload=i) for i, (key, c) in enumerate(raw)]
    block_size = data.draw(st.sampled_from([2, 3, 4, 8]))
    bulk = data.draw(st.one_of(st.just(0), st.integers(0, n)))
    keys = sorted({o.key for o in objects}) or [0]
    key = st.sampled_from([keys[0] - 1] + keys + [keys[-1] + 1])
    windows = data.draw(st.lists(st.tuples(st.sampled_from(classes), key, key), min_size=1, max_size=6))
    for index_cls in (SimpleClassIndex, CombinedClassIndex):
        disk = SimulatedDisk(block_size) if backend == "memory" else FileDisk(block_size=block_size)
        try:
            index = index_cls(disk, hierarchy, objects[:bulk])
            for obj in objects[bulk:]:
                index.insert(obj)
            for cls, a, b in windows:
                lo, hi = min(a, b), max(a, b)
                wanted = set(hierarchy.descendants(cls))
                expected = Counter(
                    o.uid for o in objects if o.class_name in wanted and lo <= o.key <= hi
                )
                assert Counter(o.uid for o in index.query(cls, lo, hi)) == expected, index_cls
        finally:
            if backend == "file":
                disk.close()
