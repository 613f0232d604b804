"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
import subprocess
import sys
import threading

import pytest

from repro.cluster.supervisor import _python_env
from repro.interval import Interval
from repro.io import SimulatedDisk
from repro.metablock.geometry import PlanarPoint


@pytest.fixture
def disk():
    """A small-page disk (B = 8), the default used across unit tests."""
    return SimulatedDisk(block_size=8)


@pytest.fixture
def tiny_disk():
    """A very small page size (B = 4) to exercise deep trees cheaply."""
    return SimulatedDisk(block_size=4)


@pytest.fixture
def spawn_repro():
    """``spawn(*args)``: run ``python -m repro *args``, return ``(proc, host,
    port)`` at its ``listening on`` line; whatever still runs dies at teardown."""
    procs = []

    def spawn(*args):
        proc = subprocess.Popen([sys.executable, "-m", "repro", *args], env=_python_env(),
                                text=True, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        procs.append(proc)
        watchdog = threading.Timer(120.0, proc.kill)  # a silent child must not hang the suite
        watchdog.start()
        try:
            for line in proc.stdout:
                if "listening on" in line:
                    host, port = line.split()[-1].rsplit(":", 1)
                    return proc, host, int(port)
        finally:
            watchdog.cancel()
        raise AssertionError(f"repro {' '.join(args)} exited {proc.wait()} before listening")

    yield spawn
    for proc in procs:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()


def make_intervals(n, seed=0, domain=(0.0, 1000.0), mean_length=60.0):
    """Deterministic random interval workload used by many tests."""
    rnd = random.Random(seed)
    lo, hi = domain
    out = []
    for i in range(n):
        start = rnd.uniform(lo, hi)
        length = rnd.uniform(0, mean_length)
        out.append(Interval(start, start + length, payload=i))
    return out


def make_interval_points(n, seed=0, domain=(0.0, 1000.0), mean_length=60.0):
    """Points of the ``y >= x`` shape produced by interval endpoints."""
    return [
        PlanarPoint(iv.low, iv.high, payload=iv.payload)
        for iv in make_intervals(n, seed=seed, domain=domain, mean_length=mean_length)
    ]


def make_points(n, seed=0, domain=(0.0, 1000.0)):
    """Uniform planar points (no diagonal constraint)."""
    rnd = random.Random(seed)
    lo, hi = domain
    return [PlanarPoint(rnd.uniform(lo, hi), rnd.uniform(lo, hi), payload=i) for i in range(n)]


def brute_diagonal(points, q):
    return sorted((p.x, p.y) for p in points if p.x <= q and p.y >= q)


def brute_three_sided(points, x1, x2, y0):
    return sorted((p.x, p.y) for p in points if x1 <= p.x <= x2 and p.y >= y0)
