"""Shared fixtures/helpers for the benchmark harness.

Every benchmark measures two things:

* wall-clock time of the operation (via pytest-benchmark), and
* the number of disk-block I/Os it performs on the simulated disk, which is
  the quantity the paper's bounds talk about.  The I/O count, the relevant
  bound, and their ratio are attached to ``benchmark.extra_info`` so they
  appear in the saved benchmark JSON next to the timings.

Workloads are deterministic (fixed seeds), so re-running the harness
reproduces the same I/O counts exactly.
"""

from __future__ import annotations

import pytest


def record(benchmark, **info) -> None:
    """Attach experiment observations to the pytest-benchmark record."""
    for key, value in info.items():
        benchmark.extra_info[key] = round(value, 3) if isinstance(value, float) else value


def measure_ios(disk, fn):
    """Run ``fn`` once and return (result, ios)."""
    with disk.measure() as m:
        result = fn()
    return result, m.ios
