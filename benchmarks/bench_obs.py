"""Observability overhead benchmark — emits ``BENCH_obs.json``.

The tracing instrumentation brackets the hottest paths in the engine
(the commit kernel, the planner, every session request), so its cost
when **disabled** — the shipping default — must be provably negligible.
This benchmark measures the prepared-stab read path (the engine's
fastest request, hence the worst case for relative overhead) in three
modes, interleaved pass-by-pass so machine noise hits all three alike:

* ``bypass``   — ``repro.obs.tracer.BYPASS = True``: every ``span()``
  call returns the shared no-op before even reading the ``ACTIVE``
  flag.  The closest measurable stand-in for "the instrumentation was
  never added" (the seed baseline the gate compares against).
* ``disabled`` — the shipping default (``ACTIVE = False``): each
  instrumented site pays one module-global flag test plus the shared
  null context manager.
* ``enabled``  — full span trees on every request (``obs.enable()``).

Gate (``--check``): the *disabled* mode must stay within ``--threshold``
percent (default 3%) of *bypass* throughput.  The *enabled* overhead is
reported but not gated — turning tracing on is an explicit choice.

Usage::

    python -m benchmarks.bench_obs --out BENCH_obs.json --check
"""

import argparse
import json
import random
import sys
import time
from typing import Any, Dict, List

from repro.engine import Engine, Param, Stab
from repro.io import SimulatedDisk
from repro.obs import tracer as obs_tracer
from repro.workloads import random_intervals

MODES = ("bypass", "disabled", "enabled")


def _set_mode(mode: str) -> None:
    obs_tracer.BYPASS = mode == "bypass"
    obs_tracer.ACTIVE = mode == "enabled"


def run_bench(
    n: int = 10_000,
    block_size: int = 16,
    queries: int = 200,
    repeat: int = 9,
) -> Dict[str, Any]:
    engine = Engine(SimulatedDisk(block_size))
    session = engine.session()
    session.create_collection(
        "c", random_intervals(n, seed=5, mean_length=20.0), dynamic=False
    )
    prepared = session.prepare("c", Stab(Param("x")))
    rnd = random.Random(6)
    points = [rnd.uniform(0, 1000) for _ in range(queries)]

    def one_pass() -> int:
        return sum(len(session.run(prepared, x=x)) for x in points)

    one_pass()  # warm-up: plan cache primed, allocator warmed

    best = {mode: float("inf") for mode in MODES}
    outputs = {}
    try:
        # interleave the modes inside each repeat so CPU-frequency and
        # scheduler drift cannot bias one mode's best-of
        for _ in range(repeat):
            for mode in MODES:
                _set_mode(mode)
                start = time.perf_counter()
                outputs[mode] = one_pass()
                best[mode] = min(best[mode], time.perf_counter() - start)
    finally:
        _set_mode("disabled")

    assert len(set(outputs.values())) == 1, "modes must compute identical answers"

    rows = [
        {
            "mode": mode,
            "queries": queries,
            "best_seconds": round(best[mode], 6),
            "ops_per_sec": round(queries / best[mode], 1),
        }
        for mode in MODES
    ]
    overhead = {
        mode: round((best[mode] / best["bypass"] - 1.0) * 100.0, 2)
        for mode in ("disabled", "enabled")
    }
    return {
        "bench": "obs",
        "params": {
            "n": n, "block_size": block_size,
            "queries": queries, "repeat": repeat,
        },
        "generated_by": "python -m benchmarks.bench_obs",
        "modes": rows,
        "summary": {
            "overhead_disabled_pct": overhead["disabled"],
            "overhead_enabled_pct": overhead["enabled"],
            "tracer": obs_tracer.TRACER.stats_dict(),
        },
    }


def gate_failures(payload: Dict[str, Any], threshold: float) -> List[str]:
    """Disabled-tracer overhead must stay within ``threshold`` percent."""
    overhead = payload["summary"]["overhead_disabled_pct"]
    if overhead > threshold:
        return [
            f"disabled-tracer overhead {overhead}% exceeds {threshold}% "
            "of the bypass (never-instrumented) baseline"
        ]
    return []


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(
        description="emit BENCH_obs.json (tracing overhead on the "
                    "prepared-stab path)"
    )
    parser.add_argument("--n", type=int, default=10_000)
    parser.add_argument("--block-size", type=int, default=16)
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--repeat", type=int, default=9)
    parser.add_argument("--threshold", type=float, default=3.0,
                        help="max disabled-vs-bypass overhead percent "
                             "the --check gate allows")
    parser.add_argument("--out", default=None, metavar="JSON")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when the overhead gate fails")
    args = parser.parse_args(argv)

    payload = run_bench(
        n=args.n, block_size=args.block_size,
        queries=args.queries, repeat=args.repeat,
    )
    for row in payload["modes"]:
        print(f"  {row['mode']:9s} ops/s={row['ops_per_sec']:10.1f} "
              f"(best {row['best_seconds']}s)")
    summary = payload["summary"]
    print(f"  overhead : disabled={summary['overhead_disabled_pct']:+.2f}%  "
          f"enabled={summary['overhead_enabled_pct']:+.2f}%  "
          f"(gate: disabled <= {args.threshold}%)")
    if args.out:
        with open(args.out, "w") as fh:
            print(json.dumps(payload, indent=2, sort_keys=True), file=fh)
        print(f"  wrote {args.out}")
    if args.check:
        failures = gate_failures(payload, args.threshold)
        for failure in failures:
            print(f"GATE FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
