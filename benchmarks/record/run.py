"""One workload, one run: ``python3 benchmarks/record/run.py --workload W ...``.

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the layer ladder (:mod:`benchmarks.record.ladder`) and
reports the per-layer metrics.  Either way the last line of standard
output is one JSON object ``{correct, attempted, failed, metrics}``, and
the exit status is non-zero when any op failed verification.

All files the run creates live under ``--dir`` (default ``.bench_record/``
at the repository root) in a fresh scratch directory that is removed on
exit unless ``--keep`` is given.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"benchmarks/record: no program to measure under {ROOT / 'src'}")
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.record import params, procs  # noqa: E402
from benchmarks.record import workloads as W  # noqa: E402
from benchmarks.record.verify import Verifier  # noqa: E402


def measured_run(ctx: W.Ctx) -> Dict[str, Any]:
    env, setup_s = W.open_env(ctx, once=ctx.smoke)
    info: Dict[str, float] = {}
    try:
        verifier = Verifier(env.model, oracle_every=1 if ctx.smoke else params.ORACLE_EVERY)
        W.warm_up(ctx, env, verifier)
        samples = W.Samples()
        W.drive(ctx, env, W.streams_for(ctx, env, "run"), ctx.seconds, verifier, samples)
        rss_mb = env.rss_mb()
        if env.db_dir is not None:
            info["disk_bytes_per_record"] = procs.dir_bytes(env.db_dir) / len(env.model)
        if ctx.workload == "wire_mixed":
            crash = W.crash_and_recover(env, verifier)
            info["recovery_s"] = crash["recovery_s"]
            info["wal_records_replayed"] = crash["wal_records"]
    finally:
        env.close()
    if not samples.read_ms or not samples.window_bound:
        raise RuntimeError(f"no verified read completed: {dict(verifier.reasons)}")
    quiet = samples.quiet()
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": quiet.ops / quiet.seconds,
        "read_p50_ms": W.percentile(quiet.read_ms, 0.50),
        "read_p95_ms": W.percentile(quiet.read_ms, 0.95),
        "ios_per_read": samples.window_ios / samples.window_reads,
        "bound_ratio": samples.window_ios / samples.window_bound,
        "rss_mb": rss_mb,
    }
    info["whole_phase_ops_per_s"] = samples.verified / samples.timed_s
    info["whole_phase_read_p95_ms"] = W.percentile(samples.read_ms, 0.95)
    info["whole_phase_read_p99_ms"] = W.percentile(samples.read_ms, 0.99)
    info["reads"] = len(samples.read_ms)
    info["reads_in_quiet_slices"] = len(quiet.read_ms)
    if samples.write_ms:
        info["write_p50_ms"] = W.percentile(samples.write_ms, 0.50)
        info["write_p95_ms"] = W.percentile(samples.write_ms, 0.95)
        info["ios_per_write"] = samples.write_ios / len(samples.write_ms)
        info["writes"] = len(samples.write_ms)
    return W.report(verifier, metrics, params.units("end_to_end"), info)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=params.workloads())
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="n/10, one set-up, every read checked against the oracle")
    parser.add_argument("--dir", default=str(ROOT / ".bench_record"),
                        help="where the scratch directory (and the span file) go")
    parser.add_argument("--keep", action="store_true", help="keep the scratch directory")
    args = parser.parse_args(argv)

    # a polite kill unwinds like Ctrl-C does, so every server is reaped on the way out
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    Path(args.dir).mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.dir)
    ctx = W.Ctx(args.workload, args.seed, args.seconds, scratch, smoke=args.smoke)
    try:
        if args.trace:
            from benchmarks.record import ladder

            result = ladder.traced_run(ctx, str(Path(args.dir) / f"trace-{args.workload}.json"))
        else:
            result = measured_run(ctx)
    finally:
        if not args.keep:
            shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
