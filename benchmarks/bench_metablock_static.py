"""E1 — Theorem 3.2: static metablock tree diagonal-corner queries.

Regenerates the evaluation the paper states analytically: query I/O
``O(log_B n + t/B)`` and space ``O(n/B)`` blocks, swept over ``n``, ``B`` and
the output size ``t``.  The ``ios_per_bound`` column in the benchmark
extra-info should stay roughly constant across the sweep.
"""

import random

import pytest

from repro.analysis.complexity import linear_space_bound, metablock_query_bound
from repro.io import SimulatedDisk
from repro.metablock import StaticMetablockTree
from repro.workloads import interval_points, random_intervals

from benchmarks.conftest import measure_ios, record

_CACHE = {}


def build_tree(n, block_size, mean_length=30.0):
    key = (n, block_size, mean_length)
    if key not in _CACHE:
        disk = SimulatedDisk(block_size)
        points = interval_points(random_intervals(n, seed=7, mean_length=mean_length))
        _CACHE[key] = (disk, StaticMetablockTree(disk, points), points)
    return _CACHE[key]


@pytest.mark.parametrize("n", [2_000, 8_000, 32_000])
def test_query_io_scaling_with_n(benchmark, n):
    """Query cost vs. n at fixed B and selectivity (paper: grows like log_B n)."""
    B = 16
    disk, tree, points = build_tree(n, B)
    rnd = random.Random(1)
    queries = [rnd.uniform(0, 1000) for _ in range(20)]

    def run():
        total = 0
        for q in queries:
            total += len(tree.diagonal_query(q))
        return total

    reported, ios = measure_ios(disk, run)
    t_avg = reported / len(queries)
    bound = metablock_query_bound(n, B, t_avg)
    record(
        benchmark,
        n=n,
        B=B,
        avg_output=t_avg,
        ios_per_query=ios / len(queries),
        bound=bound,
        ios_per_bound=(ios / len(queries)) / bound,
        space_blocks=tree.block_count(),
        space_per_bound=tree.block_count() / linear_space_bound(n, B),
    )
    benchmark(run)


@pytest.mark.parametrize("block_size", [8, 16, 32])
def test_query_io_scaling_with_block_size(benchmark, block_size):
    """Query cost vs. B at fixed n (paper: larger pages help, cost ~ log_B n + t/B)."""
    n = 8_000
    disk, tree, points = build_tree(n, block_size)
    rnd = random.Random(2)
    queries = [rnd.uniform(0, 1000) for _ in range(20)]

    def run():
        return sum(len(tree.diagonal_query(q)) for q in queries)

    reported, ios = measure_ios(disk, run)
    t_avg = reported / len(queries)
    bound = metablock_query_bound(n, block_size, t_avg)
    record(
        benchmark,
        n=n,
        B=block_size,
        ios_per_query=ios / len(queries),
        bound=bound,
        ios_per_bound=(ios / len(queries)) / bound,
    )
    benchmark(run)


@pytest.mark.parametrize("selectivity", ["point", "narrow", "wide"])
def test_query_io_scaling_with_output_size(benchmark, selectivity):
    """Query cost vs. output size t (paper: the t/B term dominates for large t)."""
    n, B = 16_000, 16
    mean_length = {"point": 0.5, "narrow": 20.0, "wide": 300.0}[selectivity]
    disk, tree, points = build_tree(n, B, mean_length)
    rnd = random.Random(3)
    queries = [rnd.uniform(100, 900) for _ in range(10)]

    def run():
        return sum(len(tree.diagonal_query(q)) for q in queries)

    reported, ios = measure_ios(disk, run)
    t_avg = reported / len(queries)
    bound = metablock_query_bound(n, B, t_avg)
    record(
        benchmark,
        n=n,
        B=B,
        selectivity=selectivity,
        avg_output=t_avg,
        ios_per_query=ios / len(queries),
        bound=bound,
        ios_per_bound=(ios / len(queries)) / bound,
    )
    benchmark(run)


def test_construction(benchmark):
    """Cost of building the static structure (not a headline bound; context only)."""
    points = interval_points(random_intervals(8_000, seed=9))

    def build():
        return StaticMetablockTree(SimulatedDisk(16), points)

    tree = benchmark(build)
    record(benchmark, n=8_000, B=16, space_blocks=tree.block_count())
