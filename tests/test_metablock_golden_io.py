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
    # three levels: the root, B internal children, their leaves
    n_bulk = cap + B * cap + 4 * B * B
    bulk = [
        _point(diagonal, rnd.uniform(0, DOMAIN), rnd.uniform(0, 60), i)
        for i in range(n_bulk)
    ]
    inserts = []
    # low points marching right inside one leaf's x range: they sink to it,
    # split it, then its right half, and so on, until the depth-1 metablock
    # above them has 2B children
    n_low = (B + 6) * cap
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
        "built": [214, 0, 214, 214, 0],
        "built_queries": [5, 5, 3, 6, 8, 0, 9, 4, 5, 5, 4, 0],
        "inserted": [459, 826, 4167, 3395, 2936],
        "inserted_queries": [13, 14, 11, 20, 22, 0, 17, 13, 14, 13, 24, 7],
        "height": 3,
    },
    ("AugmentedMetablockTree", 8): {
        "built": [739, 0, 739, 739, 0],
        "built_queries": [8, 7, 10, 11, 8, 10, 8, 6, 11, 7, 12, 0],
        "inserted": [1510, 3739, 18952, 15311, 13801],
        "inserted_queries": [12, 13, 28, 26, 16, 23, 22, 13, 23, 20, 58, 8],
        "height": 3,
    },
    ("AugmentedMetablockTree", 16): {
        "built": [2991, 0, 2991, 2991, 0],
        "built_queries": [18, 18, 16, 18, 18, 17, 16, 17, 19, 17, 17, 0],
        "inserted": [5446, 20359, 107318, 87150, 81704],
        "inserted_queries": [29, 29, 23, 30, 32, 29, 28, 45, 37, 33, 140, 13],
        "height": 3,
    },
    ("ThreeSidedMetablockTree", 4): {
        "built": [186, 0, 186, 186, 0],
        "built_queries": [10, 29, 12, 12, 7, 9, 13, 13, 17, 9, 13, 0],
        "inserted": [407, 891, 3884, 3137, 2730],
        "inserted_queries": [16, 44, 18, 28, 12, 14, 19, 21, 29, 18, 90, 8],
        "height": 3,
    },
    ("ThreeSidedMetablockTree", 8): {
        "built": [749, 0, 749, 749, 0],
        "built_queries": [8, 13, 19, 7, 6, 12, 20, 13, 23, 0, 16, 0],
        "inserted": [1478, 3683, 18114, 14568, 13090],
        "inserted_queries": [13, 25, 32, 13, 21, 20, 34, 19, 32, 7, 150, 10],
        "height": 3,
    },
    ("ThreeSidedMetablockTree", 16): {
        "built": [3022, 0, 3022, 3022, 0],
        "built_queries": [135, 85, 107, 21, 0, 92, 95, 18, 91, 225, 44, 0],
        "inserted": [5508, 20669, 100631, 80875, 75367],
        "inserted_queries": [179, 129, 141, 30, 12, 111, 120, 32, 136, 326, 467, 18],
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
