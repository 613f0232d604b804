"""One set of the benchmark of record: ``python -m benchmarks.record``.

Runs the five workloads, each in a fresh interpreter through ``run.py``
with tracing off, prints every end-to-end metric by name and unit, and
writes one JSON file: a provenance header, then ``{workload: {metric:
[values]}}`` under the names ``BENCHMARK.json`` lists.  ``--trace`` adds
the layer-ladder run of every workload.  Exits non-zero when any op of any
workload failed verification.

``--compare A.json B.json`` prints, per (workload, end-to-end metric), both
medians, how much worse B is, and the metric's bound, and exits non-zero
when a row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from benchmarks.record import params

ROOT = params.ROOT
RUN = Path(__file__).with_name("run.py")


def _git(*args: str) -> str:
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def _fs_type(path: str) -> str:
    """Filesystem of ``path`` — recorded because fsync on tmpfs is free."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                _dev, mount, fstype = line.split()[:3]
                if os.path.realpath(path).startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args: argparse.Namespace) -> Dict[str, Any]:
    return {
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(_git("status", "--porcelain")),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "scratch_fs": _fs_type(args.dir),
        "flush_policy": "FileDisk + WAL, fsync on every commit barrier (group commit), "
                        "no buffer pool; reads served by the OS page cache",
        # like the driver, every repeat takes another seed
        "seeds": [args.seed + repeat for repeat in range(args.repeat)],
        "n": params.N // (params.SMOKE_N_DIVISOR if args.smoke else 1),
        "B": params.BLOCK_SIZE,
        "seconds_per_workload": args.seconds,
        "smoke": args.smoke,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def run_one(args: argparse.Namespace, workload: str, trace: int, seed: int) -> Dict[str, Any]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(trace), "--dir", args.dir]
    cmd += ["--smoke"] if args.smoke else []
    cmd += ["--keep"] if args.keep else []
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"  {line}")
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload}: run.py exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def run_set(args: argparse.Namespace) -> int:
    os.makedirs(args.dir, exist_ok=True)
    out: Dict[str, Any] = {"provenance": provenance(args), "workloads": {}, "layers": {},
                           "ops": {}}
    failed = 0
    for workload in params.workloads():
        values: Dict[str, List[float]] = {name: [] for name in params.units("end_to_end")}
        ops = {"attempted": 0, "failed": 0}
        for repeat in range(args.repeat):
            seed = args.seed + repeat
            print(f"== {workload} (run {repeat + 1}/{args.repeat}, seed {seed})")
            result = run_one(args, workload, 0, seed)
            for name, entry in result["metrics"].items():
                values[name].append(entry["value"])
            ops["attempted"] += result["attempted"]
            ops["failed"] += result["failed"]
        if args.trace:
            print(f"== {workload} (layer ladder)")
            result = run_one(args, workload, 1, args.seed)
            out["layers"][workload] = {k: v["value"] for k, v in result["metrics"].items()}
            ops["attempted"] += result["attempted"]
            ops["failed"] += result["failed"]
        ops["failed_frac"] = ops["failed"] / max(1, ops["attempted"])
        out["workloads"][workload] = values
        out["ops"][workload] = ops
        failed += ops["failed"]
    path = args.out or os.path.join(args.dir, f"set-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        print(file=fh)
    print(f"set written to {path}; ops failed: {failed}")
    return 1 if failed else 0


# --------------------------------------------------------------------------- #
# --compare
# --------------------------------------------------------------------------- #
def _spread(values: List[float]) -> float:
    """Run-to-run spread as a share of the median (0 for a single run)."""
    median = statistics.median(values)
    if len(values) >= 4:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / median
    return (max(values) - min(values)) / median if len(values) > 1 else 0.0


def compare(path_a: str, path_b: str) -> int:
    spec = {m["name"]: m for m in params.contract()["end_to_end"]}
    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        a, b = json.load(fa)["workloads"], json.load(fb)["workloads"]
    print(f"{'workload':15s} {'metric':13s} {'A':>12s} {'B':>12s} {'worse by':>9s} "
          f"{'bound':>6s}  status")
    bad = 0
    for workload in a:
        for name, metric in spec.items():
            va, vb = a[workload][name], b.get(workload, {}).get(name)
            if not vb:
                print(f"{workload:15s} {name:13s} missing from B")
                bad += 1
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (mb - ma) / ma
            separated = (min(vb) > max(va)) if sign > 0 else (max(vb) < min(va))
            if worse <= metric["bound"]:
                status = "ok"
            elif max(_spread(va), _spread(vb)) > metric["bound"] and not separated:
                # the guide's rule: a spread wider than the bound resolves nothing
                status = "unresolved"
            else:
                status = "worse"
                bad += 1
            print(f"{workload:15s} {name:13s} {ma:12.4f} {mb:12.4f} {worse:+9.2%} "
                  f"{metric['bound']:6.2f}  {status}")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.record",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time box per workload (default: run_seconds of BENCHMARK.json; "
                             "0.4 with --smoke)")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, each with the next seed")
    parser.add_argument("--trace", action="store_true", help="add the layer-ladder runs")
    parser.add_argument("--smoke", action="store_true", help="n/10 and a 0.4 s time box")
    parser.add_argument("--dir", default=None, help="scratch directory (default: a fresh "
                        "temporary one under .bench_record/)")
    parser.add_argument("--keep", action="store_true", help="keep scratch directories")
    parser.add_argument("--out", default=None, help="where the set's JSON goes")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = 0.4 if args.smoke else float(params.contract()["run_seconds"])
    if args.dir is None:
        os.makedirs(ROOT / ".bench_record", exist_ok=True)
        args.dir = tempfile.mkdtemp(prefix="set-", dir=ROOT / ".bench_record")
    return run_set(args)


if __name__ == "__main__":
    sys.exit(main())
