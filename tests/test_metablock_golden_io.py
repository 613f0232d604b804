"""Golden I/O table for the two insert-capable metablock trees.

The 3-sided tree shares its build, insert, reorganisation and split code
with the augmented tree, so a change to that code moves both.  This table
pins what must not move: per ``B``, on a :class:`SimulatedDisk` and seeded
untied points, ``block_count()`` and the disk's read / write / allocation /
free totals after a bulk build and after a fixed insert sequence, plus the
I/Os of each query of a fixed list at both moments.  The insert sequence is
long enough to reach leaf splits, a branching-factor split of a non-root
metablock and level II push-downs (the test asserts that it still does).

Recorded at commit d93722e, the parent of the refactor that made
``ThreeSidedMetablockTree`` a subclass of ``AugmentedMetablockTree``.  The
refactor reproduced every number; the lost-update fixes that came with it
then moved the ``inserted`` halves (a point inserted through a split is now
recorded in the TD structure of every surviving ancestor, and a push-down
flushes every receiver), and CHANGES.md (PR 14) lists the parent's values
beside these.  A row may change only together with such a line.

PR 17 lowered the ``built`` / ``inserted`` totals of the three 3-sided rows
(a 3-sided metablock no longer builds the two blockings its queries never
read; reads, every query entry and every augmented row stayed) — CHANGES.md
(PR 17) has the parent's values.

Every row was re-pinned when the build stopped cutting the points below a
metablock into ``B`` groups whatever their number and cut them into just
enough groups of at most ``B^2`` (``StaticMetablockTree._build``).  A
depth-1 metablock of this bulk set then starts with one leaf instead of
``B``, so the marching run was lengthened from ``(B + 6) B^2`` to
``(2B + 6) B^2`` points to still reach a branching split under it.  Beside
each entry (``was``) is the parent commit's value on this same, lengthened
workload.

The ``inserted`` halves were re-pinned when a metablock's pending update
points moved into the records of its control block, which every query reads
anyway: the separate update block is gone (fewer blocks), an insert rewrites
the control block instead of it, a level I reorganisation no longer rewrites
it, and a query reads one page fewer per visited metablock that has pending
points.  Beside each ``inserted`` entry (``was``) is the parent commit's
value; the ``built`` entries keep the values of the re-pin before.

The query entries of the 3-sided rows were re-pinned when the 3-sided walk
stopped reading a covered child's own points twice: at a divergence node
``children_pst`` reports them, and under a covered TS the TS does, so the
walk skips the child's own PST (and does not enter a covered leaf).  Every
such entry went down and none went up.  The ``inserted`` read totals of
``B`` = 8 and 16 moved with them (they count the built queries' reads).
Beside each entry that moved (``was``) is the parent commit's value; an
entry that did not move keeps the ``was`` of its earlier re-pin.

The ``inserted_queries`` entries of every row were re-pinned when both walks
stopped reading TD(M) at every visited nonleaf metablock and read it only
where a TS structure (or, in the 3-sided walk, ``children_pst``) stood in
for children of M that the walk does not enter.  No entry rose, and no other entry moved (the built trees
hold no TD points).  Beside each ``inserted_queries`` entry (``was``) is the
parent commit's value.
"""

import random
from collections import Counter

import pytest

from repro.io import SimulatedDisk
from repro.metablock import AugmentedMetablockTree, ThreeSidedMetablockTree
from repro.metablock.geometry import PlanarPoint

DOMAIN = 1000.0


def _point(diagonal, x, height, uid):
    """One point at ``x``: an interval ``[x, x + height]``, or a free-standing y."""
    return PlanarPoint(x, x + height if diagonal else height, payload=uid)


def _workload(B, diagonal):
    """Seeded untied bulk points, inserts and queries for block size ``B``."""
    rnd = random.Random(7000 + B)
    cap = B * B
    # three levels: the root, B internal children, one leaf of 4B points under each
    n_bulk = cap + B * cap + 4 * B * B
    bulk = [
        _point(diagonal, rnd.uniform(0, DOMAIN), rnd.uniform(0, 60), i)
        for i in range(n_bulk)
    ]
    inserts = []
    # low points marching right inside one leaf's x range: they sink to it,
    # split it, then its right half, and so on, until the depth-1 metablock
    # above them has 2B children
    n_low = (2 * B + 6) * cap
    for i in range(n_low):
        x = 0.3 * DOMAIN + 0.01 * i / n_low
        inserts.append(_point(diagonal, x, rnd.uniform(0, 0.005), len(bulk) + len(inserts)))
    # points above everything: they stay at the root until it holds 2B^2
    for _ in range(cap + B):
        x = rnd.uniform(0, DOMAIN)
        y = DOMAIN + rnd.uniform(100, 160)
        inserts.append(PlanarPoint(x, y, payload=len(bulk) + len(inserts)))
    # and a uniform tail over whatever shape that left, of a length that
    # leaves the root's TD structure partly filled
    for _ in range(2 * cap + cap // 2 + 1):
        x = rnd.uniform(0, DOMAIN)
        inserts.append(_point(diagonal, x, rnd.uniform(0, 60), len(bulk) + len(inserts)))
    if diagonal:
        queries = [rnd.uniform(-10, DOMAIN + 70) for _ in range(10)]
        queries += [0.3 * DOMAIN + 0.005, DOMAIN + 130]
    else:
        queries = []
        for _ in range(10):
            x1 = rnd.uniform(-10, DOMAIN)
            queries.append((x1, x1 + rnd.uniform(0, 0.4 * DOMAIN), rnd.uniform(0, 70)))
        queries += [(0.29 * DOMAIN, 0.32 * DOMAIN, 0.002), (-1.0, DOMAIN + 1, DOMAIN + 130)]
    return bulk, inserts, queries


def _totals(tree):
    s = tree.disk.stats
    return [tree.block_count(), s.reads, s.writes, s.allocations, s.frees]


def _query_ios(tree, queries):
    out = []
    for q in queries:
        with tree.disk.measure() as m:
            if isinstance(tree, ThreeSidedMetablockTree):
                tree.query_3sided(*q)
            else:
                tree.diagonal_query(q)
        out.append(m.ios)
    return out


def _counting(tree_cls, calls):
    """``tree_cls`` with the three reorganisations counted into ``calls``."""

    class Counting(tree_cls):
        def _split_leaf(self, leaf):
            calls["leaf_split"] += 1
            super()._split_leaf(leaf)

        def _split_internal(self, mb):
            calls["branching_split"] += mb.parent is not None
            super()._split_internal(mb)

        def _level_two_reorganisation(self, mb):
            full = len(mb.points) + len(mb.update_points) >= 2 * self.capacity
            calls["push_down"] += full and not mb.is_leaf
            super()._level_two_reorganisation(mb)

    return Counting


def measure(tree_cls, B):
    """The golden row of ``tree_cls`` at block size ``B``, and what the inserts reached."""
    bulk, inserts, queries = _workload(B, diagonal=tree_cls is AugmentedMetablockTree)
    calls = Counter()
    tree = _counting(tree_cls, calls)(SimulatedDisk(B), bulk)
    row = {"built": _totals(tree), "built_queries": _query_ios(tree, queries)}
    tree.insert_many(inserts)
    tree.check_invariants()
    row["inserted"] = _totals(tree)
    row["inserted_queries"] = _query_ios(tree, queries)
    row["height"] = tree.height()
    return row, calls


#: (tree, B) -> block_count / reads / writes / allocations / frees, per-query I/Os
GOLDEN = {
    ("AugmentedMetablockTree", 4): {
        "built": [174, 0, 174, 174, 0],  # was [214, 0, 214, 214, 0]
        "built_queries": [6, 6, 5, 0, 5, 5, 6, 5, 7, 5, 5, 0],  # was [8, 6, 5, 0, 4, 5, 6, 5, 6, 4, 4, 0]
        "inserted": [530, 1033, 5543, 4565, 4035],  # was [541, 1078, 5613, 4590, 4049]
        "inserted_queries": [12, 7, 11, 11, 13, 11, 11, 12, 15, 13, 30, 4],
        # was [15, 12, 12, 14, 16, 12, 14, 15, 21, 16, 30, 7]
        "height": 3,
    },
    ("AugmentedMetablockTree", 8): {
        "built": [534, 0, 534, 534, 0],  # was [739, 0, 739, 739, 0]
        "built_queries": [7, 7, 8, 8, 9, 7, 10, 11, 8, 8, 11, 0],  # was [7, 7, 8, 9, 9, 7, 11, 11, 9, 7, 12, 0]
        "inserted": [1644, 5328, 28367, 23133, 21489],  # was [1666, 5488, 28569, 23175, 21509]
        "inserted_queries": [9, 14, 14, 8, 13, 11, 15, 13, 15, 8, 75, 6],
        # was [15, 18, 18, 11, 23, 18, 25, 21, 19, 12, 78, 9]
        "height": 3,
    },
    ("AugmentedMetablockTree", 16): {
        "built": [1805, 0, 1805, 1805, 0],  # was [2991, 0, 2991, 2991, 0]
        "built_queries": [16, 19, 13, 15, 13, 17, 15, 0, 13, 16, 16, 0],
        # was [16, 18, 13, 15, 13, 17, 17, 0, 13, 17, 17, 0]
        "inserted": [5504, 32864, 174703, 141992, 136488],  # was [5538, 33443, 175353, 142063, 136525]
        "inserted_queries": [21, 23, 16, 34, 16, 21, 29, 18, 33, 26, 205, 10],
        # was [27, 28, 20, 41, 20, 26, 34, 21, 39, 29, 205, 13]
        "height": 3,
    },
    ("ThreeSidedMetablockTree", 4): {
        "built": [133, 0, 133, 133, 0],  # was [186, 0, 186, 186, 0]
        "built_queries": [10, 8, 5, 11, 6, 22, 13, 22, 0, 9, 15, 0],
        # was [10, 8, 5, 11, 6, 22, 13, 20, 0, 9, 13, 0]
        "inserted": [422, 1071, 5333, 4383, 3961],  # was [433, 1115, 5406, 4412, 3979]
        "inserted_queries": [11, 8, 9, 13, 7, 27, 20, 25, 5, 8, 84, 5],
        # was [17, 13, 13, 20, 11, 34, 22, 34, 7, 13, 87, 7]
        "height": 3,
    },
    ("ThreeSidedMetablockTree", 8): {
        "built": [428, 0, 428, 428, 0],  # was [749, 0, 749, 749, 0]
        "built_queries": [29, 19, 14, 41, 7, 38, 23, 52, 8, 12, 17, 0],
        # was [39, 19, 14, 41, 7, 49, 23, 79, 8, 12, 17, 0]
        "inserted": [1320, 5386, 27873, 22747, 21427],  # was [1320, 5434, 27873, 22747, 21427]
        "inserted_queries": [35, 26, 16, 49, 14, 61, 36, 68, 21, 14, 205, 8],
        # was [38, 32, 23, 57, 18, 64, 40, 73, 24, 19, 213, 10]
        "height": 3,
    },
    ("ThreeSidedMetablockTree", 16): {
        "built": [1486, 0, 1486, 1486, 0],  # was [3022, 0, 3022, 3022, 0]
        "built_queries": [53, 27, 0, 0, 89, 9, 0, 0, 30, 0, 35, 0],
        # was [53, 27, 0, 0, 112, 9, 0, 0, 40, 0, 35, 0]
        "inserted": [4663, 32581, 173948, 141610, 136947],  # was [4663, 32614, 173948, 141610, 136947]
        "inserted_queries": [76, 29, 10, 17, 132, 21, 6, 17, 43, 7, 671, 16],
        # was [78, 35, 12, 17, 134, 23, 8, 17, 45, 9, 687, 18]
        "height": 3,
    },
}


@pytest.mark.parametrize("B", [4, 8, 16])
@pytest.mark.parametrize("tree_cls", [AugmentedMetablockTree, ThreeSidedMetablockTree])
def test_io_totals_match_the_recorded_table(tree_cls, B):
    row, calls = measure(tree_cls, B)
    assert row == GOLDEN[tree_cls.__name__, B]
    # the sequence is only worth pinning while it exercises the shared paths
    assert calls["leaf_split"] >= B
    assert calls["branching_split"] >= 1
    assert calls["push_down"] >= 1
