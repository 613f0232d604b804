"""E12 — space accounting for every structure in the repository.

For each structure the paper gives a space bound in disk blocks; this
benchmark builds them all on the same workload sizes and reports
blocks-used / bound as a single table.
"""

import pytest

from repro.analysis.complexity import linear_space_bound, simple_class_space_bound
from repro.btree import BPlusTree
from repro.classes import CombinedClassIndex, FullExtentPerClassIndex, SimpleClassIndex
from repro.core import ExternalIntervalManager
from repro.io import SimulatedDisk
from repro.metablock import StaticMetablockTree, ThreeSidedMetablockTree
from repro.pst import ExternalPST
from repro.workloads import (
    interval_points,
    random_class_objects,
    random_hierarchy,
    random_intervals,
    random_points,
)

from benchmarks.conftest import record

N = 8_000
B = 16
C = 64


def test_space_usage_all_structures(benchmark):
    intervals = random_intervals(N, seed=91)
    points = interval_points(intervals)
    square_points = random_points(N, seed=92)
    hierarchy = random_hierarchy(C, seed=93)
    objects = random_class_objects(hierarchy, N, seed=94)

    rows = {}

    disk = SimulatedDisk(B)
    rows["btree"] = BPlusTree.bulk_load(disk, ((iv.low, iv) for iv in intervals)).block_count()

    disk = SimulatedDisk(B)
    rows["metablock_static"] = StaticMetablockTree(disk, points).block_count()

    disk = SimulatedDisk(B)
    rows["external_pst"] = ExternalPST(disk, square_points).block_count()

    disk = SimulatedDisk(B)
    rows["three_sided_metablock"] = ThreeSidedMetablockTree(disk, square_points).block_count()

    disk = SimulatedDisk(B)
    rows["interval_manager"] = ExternalIntervalManager(disk, intervals, dynamic=False).block_count()

    disk = SimulatedDisk(B)
    rows["class_simple"] = SimpleClassIndex(disk, hierarchy, objects).block_count()

    disk = SimulatedDisk(B)
    rows["class_combined"] = CombinedClassIndex(disk, hierarchy, objects).block_count()

    disk = SimulatedDisk(B)
    rows["class_full_extent_per_class"] = FullExtentPerClassIndex(
        disk, hierarchy, objects
    ).block_count()

    linear = linear_space_bound(N, B)
    logc = simple_class_space_bound(N, B, C)
    record(
        benchmark,
        n=N,
        B=B,
        c=C,
        linear_bound_blocks=linear,
        log_c_bound_blocks=logc,
        **{f"{name}_blocks": blocks for name, blocks in rows.items()},
        **{f"{name}_per_linear_bound": round(blocks / linear, 2) for name, blocks in rows.items()},
    )
    benchmark.pedantic(
        lambda: StaticMetablockTree(SimulatedDisk(B), points[:2000]).block_count(),
        rounds=1,
        iterations=1,
    )
