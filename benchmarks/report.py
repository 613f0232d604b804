"""Print the measured I/O-vs-bound tables, one per experiment.

Run with::

    python benchmarks/report.py

The script executes a compact version of every experiment (E1-E12), printing
one table per experiment with the measured I/O counts, the corresponding
paper bound, and their ratio.  It is deterministic: the same checkout
prints the same numbers.
"""

from __future__ import annotations

import math
import random
import time

from repro.analysis.complexity import (
    btree_query_bound,
    combined_class_query_bound,
    external_pst_query_bound,
    linear_space_bound,
    metablock_insert_bound,
    metablock_query_bound,
    simple_class_query_bound,
    simple_class_space_bound,
    three_sided_query_bound,
)
from repro.analysis.tessellation import GridTessellation
from repro.btree import BPlusTree
from repro.classes import CombinedClassIndex, FullExtentPerClassIndex, SimpleClassIndex, SingleCollectionIndex
from repro.constraints import GeneralizedOneDimensionalIndex
from repro.constraints.rectangles import intersecting_pairs, rectangle_relation
from repro.core import ExternalIntervalManager
from repro.io import SimulatedDisk
from repro.metablock import AugmentedMetablockTree, StaticMetablockTree, ThreeSidedMetablockTree
from repro.pst import ExternalPST
from repro.workloads import (
    diagonal_staircase_points,
    interval_points,
    random_class_objects,
    random_hierarchy,
    random_intervals,
    random_points,
)

B = 16


def header(title: str) -> None:
    print()
    print(f"## {title}")


def table(rows, columns) -> None:
    widths = [max(len(str(c)), max((len(f"{r[i]}") for r in rows), default=0)) for i, c in enumerate(columns)]
    print(" | ".join(str(c).ljust(w) for c, w in zip(columns, widths)))
    print("-|-".join("-" * w for w in widths))
    for r in rows:
        print(" | ".join(f"{v}".ljust(w) for v, w in zip(r, widths)))


def fmt(x: float) -> str:
    return f"{x:.1f}"


def class_queries(hierarchy, count, seed):
    rnd = random.Random(seed)
    by_size = sorted(hierarchy.classes(), key=hierarchy.subtree_size, reverse=True)
    candidates = by_size[: max(4, len(by_size) // 4)]
    return [(rnd.choice(candidates), lo, lo + 50.0) for lo in (rnd.uniform(0, 900) for _ in range(count))]


def e1_static_metablock():
    header("E1  Theorem 3.2 — static metablock tree (query I/O and space vs n, B=16)")
    rows = []
    rnd = random.Random(1)
    queries = [rnd.uniform(0, 1000) for _ in range(20)]
    for n in (2_000, 8_000, 32_000):
        disk = SimulatedDisk(B)
        tree = StaticMetablockTree(disk, interval_points(random_intervals(n, seed=7, mean_length=30)))
        with disk.measure() as m:
            t = sum(len(tree.diagonal_query(q)) for q in queries) / len(queries)
        ios = m.ios / len(queries)
        bound = metablock_query_bound(n, B, t)
        rows.append([n, fmt(t), fmt(ios), fmt(bound), fmt(ios / bound),
                     tree.block_count(), fmt(tree.block_count() / linear_space_bound(n, B))])
    table(rows, ["n", "avg t", "I/Os per query", "bound", "ratio", "blocks", "blocks per n/B"])


def e2_lower_bound():
    header("E2  Proposition 3.3 — staircase lower-bound instance (t = 1 per query)")
    rows = []
    for n in (1_000, 8_000, 32_000):
        disk = SimulatedDisk(B)
        tree = StaticMetablockTree(disk, diagonal_staircase_points(n))
        queries = [x + 0.5 for x in range(1, n, max(1, n // 50))][:50]
        with disk.measure() as m:
            total = sum(len(tree.diagonal_query(q)) for q in queries)
        assert total == len(queries)
        ios = m.ios / len(queries)
        bound = metablock_query_bound(n, B, 1)
        rows.append([n, fmt(ios), fmt(bound), fmt(ios / bound),
                     tree.block_count(), fmt(tree.block_count() / linear_space_bound(n, B))])
    table(rows, ["n", "I/Os per query", "log_B n + t/B", "ratio", "blocks", "blocks per n/B"])


def e3_dynamic_inserts():
    header("E3  Theorem 3.7 — semi-dynamic inserts (amortized I/O per insert, B=16)")
    rows = []
    extra = interval_points(random_intervals(500, seed=2))
    for n in (1_000, 4_000, 16_000):
        disk = SimulatedDisk(B)
        tree = AugmentedMetablockTree(disk, interval_points(random_intervals(n, seed=1)))
        with disk.measure() as m:
            tree.insert_many(extra)
        per = m.ios / len(extra)
        bound = metablock_insert_bound(n, B)
        rows.append([n, fmt(per), fmt(bound), fmt(per / bound)])
    table(rows, ["n (before inserts)", "I/Os per insert", "bound", "ratio"])

    rnd = random.Random(4)
    queries = [rnd.uniform(0, 1000) for _ in range(20)]
    rows = []
    for n in (2_000, 8_000):
        disk = SimulatedDisk(B)
        tree = AugmentedMetablockTree(disk)
        tree.insert_many(interval_points(random_intervals(n, seed=3, mean_length=20.0)))
        with disk.measure() as m:
            t = sum(len(tree.diagonal_query(q)) for q in queries) / len(queries)
        ios = m.ios / len(queries)
        bound = metablock_query_bound(n, B, t)
        rows.append([n, fmt(t), fmt(ios), fmt(bound), fmt(ios / bound)])
    print()
    print("queries against a tree built purely by inserts:")
    table(rows, ["n", "avg t", "I/Os per query", "bound", "ratio"])


def e4_interval_management():
    header("E4  Proposition 2.2 — interval stabbing: metablock manager vs baselines (n=10000, B=16)")
    intervals = random_intervals(10_000, seed=5, mean_length=20.0)
    rnd = random.Random(6)
    queries = [rnd.uniform(0, 1000) for _ in range(25)]
    rows = []

    disk = SimulatedDisk(B)
    manager = ExternalIntervalManager(disk, intervals, dynamic=False)
    with disk.measure() as m:
        t = sum(len(manager.stabbing_query(q)) for q in queries) / len(queries)
    rows.append(["metablock interval manager", fmt(t), fmt(m.ios / len(queries))])

    disk = SimulatedDisk(B)
    from repro.metablock.geometry import PlanarPoint

    pst = ExternalPST(disk, [PlanarPoint(iv.low, iv.high, payload=iv) for iv in intervals])
    with disk.measure() as m:
        sum(len(pst.query_2sided(q, q)) for q in queries)
    rows.append(["blocked PST (Lemma 4.1 port)", fmt(t), fmt(m.ios / len(queries))])

    disk = SimulatedDisk(B)
    blocks = [disk.allocate(records=list(intervals[i : i + B])) for i in range(0, len(intervals), B)]
    with disk.measure() as m:
        for q in queries[:5]:
            for blk_ in blocks:
                disk.read(blk_.block_id)
    rows.append(["naive external scan", fmt(t), fmt(m.ios / 5)])
    table(rows, ["structure", "avg t", "I/Os per stabbing query"])


def e5_e6_class_indexing():
    header("E5/E6  Theorems 2.6 and 4.7 — class indexing (n=6000, B=16, queries on large classes)")
    rows = []
    for c in (8, 32, 128, 256):
        hierarchy = random_hierarchy(c, seed=21)
        objects = random_class_objects(hierarchy, 6_000, seed=22)
        queries = class_queries(hierarchy, 20, seed=23)
        row = [c]
        t_avg = 0.0
        for scheme in (SingleCollectionIndex, FullExtentPerClassIndex, SimpleClassIndex, CombinedClassIndex):
            disk = SimulatedDisk(B)
            index = scheme(disk, hierarchy, objects)
            with disk.measure() as m:
                t_avg = sum(len(index.query(*q)) for q in queries) / len(queries)
            row.append(fmt(m.ios / len(queries)))
            if scheme in (SimpleClassIndex, CombinedClassIndex):
                row.append(index.block_count())
        row.append(fmt(simple_class_query_bound(6_000, B, c, t_avg)))
        row.append(fmt(combined_class_query_bound(6_000, B, t_avg)))
        rows.append(row)
    table(
        rows,
        ["c", "single I/O", "full-extent I/O", "simple I/O", "simple blocks",
         "combined I/O", "combined blocks", "Thm2.6 bound", "Thm4.7 bound"],
    )

    print()
    print("update cost (I/Os per inserted object, c=128):")
    hierarchy = random_hierarchy(128, seed=21)
    objects = random_class_objects(hierarchy, 6_000, seed=22)
    extra = random_class_objects(hierarchy, 200, seed=99)
    rows = []
    for name, scheme in (
        ("single", SingleCollectionIndex),
        ("full-extent-per-class", FullExtentPerClassIndex),
        ("simple (Thm 2.6)", SimpleClassIndex),
        ("combined (Thm 4.7)", CombinedClassIndex),
    ):
        disk = SimulatedDisk(B)
        index = scheme(disk, hierarchy, objects)
        with disk.measure() as m:
            for o in extra:
                index.insert(o)
        rows.append([name, fmt(m.ios / len(extra)), index.block_count()])
    table(rows, ["scheme", "I/Os per insert", "blocks"])


def e7_tessellation():
    header("E7  Lemma 2.7 — square tessellation of a 256x256 grid: row-query cost vs optimal")
    rows = []
    for block_size in (4, 16, 64, 256):
        stats = GridTessellation(256, block_size).measure()
        rows.append([block_size, fmt(stats.row_query_blocks), fmt(stats.optimal_blocks),
                     fmt(stats.ratio), fmt(math.sqrt(block_size))])
    table(rows, ["B", "blocks per row query", "optimal t/B", "ratio", "sqrt(B)"])


def e8_e9_three_sided():
    header("E8/E9  Lemmas 4.1 and 4.4 — 3-sided queries: blocked PST vs 3-sided metablock tree (B=16)")
    rnd = random.Random(61)
    queries = [(x1, x1 + 60.0, rnd.uniform(0, 1000)) for x1 in (rnd.uniform(0, 900) for _ in range(20))]
    rows = []
    for n in (2_000, 8_000, 32_000):
        points = random_points(n, seed=62)
        disk = SimulatedDisk(B)
        pst = ExternalPST(disk, points)
        with disk.measure() as m:
            t = sum(len(pst.query_3sided(*q)) for q in queries) / len(queries)
        pst_ios = m.ios / len(queries)

        disk = SimulatedDisk(B)
        tree = ThreeSidedMetablockTree(disk, points)
        with disk.measure() as m:
            sum(len(tree.query_3sided(*q)) for q in queries)
        tree_ios = m.ios / len(queries)
        rows.append([n, fmt(t), fmt(pst_ios), fmt(external_pst_query_bound(n, B, t)),
                     fmt(tree_ios), fmt(three_sided_query_bound(n, B, t))])
    table(rows, ["n", "avg t", "PST I/Os", "PST bound", "metablock I/Os", "metablock bound"])


def e10_constraints():
    header("E10  Example 2.1 — rectangle intersection via the generalized 1-D index")
    rows = []
    for n in (100, 300):
        rnd = random.Random(81)
        rects = []
        for i in range(n):
            a, b = rnd.uniform(0, 1000), rnd.uniform(0, 1000)
            rects.append((f"r{i}", a, b, a + rnd.uniform(1, 20), b + rnd.uniform(1, 20)))
        relation = rectangle_relation(rects)
        index = GeneralizedOneDimensionalIndex(SimulatedDisk(B), relation, "x")
        start = time.perf_counter()
        naive = intersecting_pairs(relation)
        naive_s = time.perf_counter() - start
        start = time.perf_counter()
        indexed = intersecting_pairs(relation, index)
        indexed_s = time.perf_counter() - start
        assert set(map(frozenset, naive)) == set(map(frozenset, indexed))
        rows.append([n, len(indexed), f"{naive_s*1000:.0f} ms", f"{indexed_s*1000:.0f} ms",
                     fmt(naive_s / max(indexed_s, 1e-9))])
    table(rows, ["rectangles", "pairs", "naive join", "indexed join", "speedup"])


def e11_btree():
    header("E11  B+-tree reference point (Section 1.1)")
    rows = []
    rnd = random.Random(71)
    for n in (2_000, 16_000, 64_000):
        disk = SimulatedDisk(B)
        tree = BPlusTree.bulk_load(disk, ((float(i), i) for i in range(n)))
        queries = [(lo, lo + n * 0.01) for lo in (rnd.uniform(0, n * 0.99) for _ in range(25))]
        with disk.measure() as m:
            t = sum(len(tree.range_search(lo, hi)) for lo, hi in queries) / len(queries)
        ios = m.ios / len(queries)
        bound = btree_query_bound(n, B, t)
        rows.append([n, fmt(t), fmt(ios), fmt(bound), fmt(ios / bound), tree.block_count()])
    table(rows, ["n", "avg t", "I/Os per range query", "bound", "ratio", "blocks"])


def e12_space():
    header("E12  Space accounting (n=8000, B=16, c=64) — blocks used vs bounds")
    intervals = random_intervals(8_000, seed=91)
    points = interval_points(intervals)
    square_points = random_points(8_000, seed=92)
    hierarchy = random_hierarchy(64, seed=93)
    objects = random_class_objects(hierarchy, 8_000, seed=94)
    linear = linear_space_bound(8_000, B)
    rows = []

    def add(name, blocks, bound):
        rows.append([name, blocks, fmt(bound), fmt(blocks / bound)])

    add("B+-tree", BPlusTree.bulk_load(SimulatedDisk(B), ((iv.low, iv) for iv in intervals)).block_count(), linear)
    add("static metablock tree", StaticMetablockTree(SimulatedDisk(B), points).block_count(), linear)
    add("blocked PST", ExternalPST(SimulatedDisk(B), square_points).block_count(), linear)
    add("3-sided metablock tree", ThreeSidedMetablockTree(SimulatedDisk(B), square_points).block_count(), linear)
    add("interval manager", ExternalIntervalManager(SimulatedDisk(B), intervals, dynamic=False).block_count(), linear)
    add("simple class index", SimpleClassIndex(SimulatedDisk(B), hierarchy, objects).block_count(),
        simple_class_space_bound(8_000, B, 64))
    add("combined class index", CombinedClassIndex(SimulatedDisk(B), hierarchy, objects).block_count(),
        simple_class_space_bound(8_000, B, 64))
    add("full-extent per class", FullExtentPerClassIndex(SimulatedDisk(B), hierarchy, objects).block_count(), linear)
    table(rows, ["structure", "blocks", "bound (blocks)", "ratio"])


def main() -> None:
    print("# Measured experiment tables (regenerate with `python benchmarks/report.py`)")
    e1_static_metablock()
    e2_lower_bound()
    e3_dynamic_inserts()
    e4_interval_management()
    e5_e6_class_indexing()
    e7_tessellation()
    e8_e9_three_sided()
    e10_constraints()
    e11_btree()
    e12_space()


if __name__ == "__main__":
    main()
