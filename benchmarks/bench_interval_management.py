"""E4 — Proposition 2.2: external interval management vs. the baselines.

Compares, at equal workloads, the I/O cost of stabbing and intersection
queries through

* the metablock-tree-backed :class:`ExternalIntervalManager` (the paper's
  proposal),
* a naive external scan (one read per block of intervals), and
* an external port of the in-core priority search tree idea with one node
  per block but *without* the metablock machinery (the blocked PST of
  Lemma 4.1) — the "previous best" the paper improves on for 2-sided
  queries.

The paper's claim is qualitative: the metablock tree is the only one that
is simultaneously linear-space and ``O(log_B n + t/B)`` per query; the
others lose either on the logarithm base or on the scan term.
"""

import random

import pytest

from repro.core import ExternalIntervalManager
from repro.engine import Engine, Stab
from repro.io import SimulatedDisk
from repro.metablock.geometry import PlanarPoint
from repro.pst import ExternalPST
from repro.workloads import random_intervals

from benchmarks.conftest import measure_ios, record

N = 10_000
B = 16


def _workload():
    return random_intervals(N, seed=5, mean_length=20.0)


def _queries(count=25):
    rnd = random.Random(6)
    return [rnd.uniform(0, 1000) for _ in range(count)]


def test_metablock_manager_stabbing(benchmark):
    engine = Engine(SimulatedDisk(B))
    engine.create_interval_index("intervals", _workload(), dynamic=False)
    queries = _queries()

    def run():
        batch = engine.query_many(("intervals", Stab(q)) for q in queries)
        return sum(len(r.all()) for r in batch)

    reported, ios = measure_ios(engine.disk, run)
    record(benchmark, structure="metablock", n=N, B=B,
           avg_output=reported / len(queries), ios_per_query=ios / len(queries))
    benchmark(run)


def test_external_pst_stabbing(benchmark):
    intervals = _workload()
    disk = SimulatedDisk(B)
    pst = ExternalPST(disk, [PlanarPoint(iv.low, iv.high, payload=iv) for iv in intervals])
    queries = _queries()

    def run():
        return sum(len(pst.query_2sided(q, q)) for q in queries)

    reported, ios = measure_ios(disk, run)
    record(benchmark, structure="blocked-pst", n=N, B=B,
           avg_output=reported / len(queries), ios_per_query=ios / len(queries))
    benchmark(run)


def test_naive_scan_stabbing(benchmark):
    intervals = _workload()
    disk = SimulatedDisk(B)
    blocks = [disk.allocate(records=list(intervals[i : i + B])) for i in range(0, N, B)]
    queries = _queries()

    def run():
        total = 0
        for q in queries:
            for block in blocks:
                blk = disk.read(block.block_id)
                total += sum(1 for iv in blk.records() if iv.contains(q))
        return total

    reported, ios = measure_ios(disk, run)
    record(benchmark, structure="naive-scan", n=N, B=B,
           avg_output=reported / len(queries), ios_per_query=ios / len(queries))
    benchmark.pedantic(run, rounds=1, iterations=1)


def test_metablock_manager_intersection(benchmark):
    intervals = _workload()
    disk = SimulatedDisk(B)
    manager = ExternalIntervalManager(disk, intervals, dynamic=False)
    rnd = random.Random(7)
    windows = [(lo, lo + rnd.uniform(0, 40)) for lo in (rnd.uniform(0, 960) for _ in range(25))]

    def run():
        return sum(len(manager.intersection_query(lo, hi)) for lo, hi in windows)

    reported, ios = measure_ios(disk, run)
    record(benchmark, structure="metablock", kind="intersection", n=N, B=B,
           avg_output=reported / len(windows), ios_per_query=ios / len(windows))
    benchmark(run)


@pytest.mark.parametrize("shape", ["uniform", "clustered", "nested"])
def test_workload_shapes(benchmark, shape):
    from repro.workloads import clustered_intervals, nested_intervals

    make = {
        "uniform": lambda: random_intervals(4_000, seed=8, mean_length=25.0),
        "clustered": lambda: clustered_intervals(4_000, clusters=8, seed=8),
        "nested": lambda: nested_intervals(4_000, seed=8),
    }[shape]
    intervals = make()
    disk = SimulatedDisk(B)
    manager = ExternalIntervalManager(disk, intervals, dynamic=False)
    queries = _queries(15)

    def run():
        return sum(len(manager.stabbing_query(q)) for q in queries)

    reported, ios = measure_ios(disk, run)
    record(benchmark, workload=shape, n=4_000, B=B,
           avg_output=reported / len(queries), ios_per_query=ios / len(queries))
    benchmark(run)
