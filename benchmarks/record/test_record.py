"""Self-test of the benchmark of record (``python -m pytest benchmarks/record -q``).

Runs the smoke set — every workload, untraced and traced, at n/10 with a
sub-second time box — and checks the harness against ``BENCHMARK.json``
and against itself.  ``tests/`` is the program's suite; this file tests
only the benchmark.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Engine, Interval, Stab
from repro.engine.session import SessionResult
from repro.io import IOStats

from benchmarks.record import params, procs
from benchmarks.record.verify import Verifier

RUN = Path(__file__).with_name("run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(workload: str, trace: int, scratch: Path, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7", "--seconds", "0.4",
         "--trace", str(trace), "--smoke", "--dir", str(scratch), *extra],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pids_mentioning(path: Path) -> list:
    """Processes whose command line names ``path`` (a server's ``--db``/``--dir``)."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/cmdline", "rb") as fh:
                    if str(path).encode() in fh.read():
                        found.append(int(entry))
            except OSError:
                continue
    return found


@pytest.fixture(scope="module")
def spec() -> dict:
    return params.contract()


def test_benchmark_json_keeps_to_its_contract(spec: dict) -> None:
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert spec["paths"] == ["benchmarks/record"]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", params.workloads())
def test_smoke_run_prints_every_metric_and_leaves_nothing_behind(
    workload: str, spec: dict, tmp_path: Path
) -> None:
    result = run(workload, 0, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())

    traced = run(workload, 1, tmp_path)
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    with open(tmp_path / f"trace-{workload}.json", encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    ids = {span["id"] for span in spans}
    assert spans and len(ids) == len(spans)
    assert all(span["parent"] is None or span["parent"] in ids for span in spans)
    assert all(span["end_us"] >= span["start_us"] for span in spans)
    # scratch directories are removed, only the span file stays, and no server
    # started under this directory outlives its run
    assert os.listdir(tmp_path) == [f"trace-{workload}.json"]
    assert pids_mentioning(tmp_path) == []


def test_no_server_survives_a_run(tmp_path: Path) -> None:
    server = procs.serve(str(tmp_path / "app.pages"), str(tmp_path / "server.log"))
    assert procs.running(server.pid)
    assert server.close()
    assert not any(procs.running(pid) for pid in server.pids)

    cluster = procs.cluster_serve(str(tmp_path / "cluster"), str(tmp_path / "cluster.log"))
    assert len(cluster.pids) == 1 + params.CLUSTER_SHARDS
    cluster.kill_group()
    assert not any(procs.running(pid) for pid in cluster.pids)


def test_a_wrong_oracle_answer_is_counted_as_a_failure() -> None:
    records = [Interval(1, 5), Interval(3, 9), Interval(20, 30)]
    with Engine(block_size=4) as engine:
        engine.create_collection("c", records)
        answer = engine.session().query("c", Stab(4))
    assert {r.uid for r in answer.records} == {records[0].uid, records[1].uid}

    sound = Verifier({r.uid: r for r in records}, oracle_every=1)
    assert sound.read(Stab(4), answer) and sound.failed == 0

    # the model wrongly believes a third interval covers x=4: completeness fails
    wrong = dict(sound.model)
    phantom = Interval(0, 10)
    wrong[phantom.uid] = phantom
    verifier = Verifier(wrong, oracle_every=1)
    assert not verifier.read(Stab(4), answer)
    assert (verifier.attempted, verifier.failed) == (1, 1)
    assert verifier.reasons["missing_record"] == 1

    # a record the model never stored: soundness fails
    verifier = Verifier({records[0].uid: records[0]}, oracle_every=1)
    assert not verifier.read(Stab(4), answer)
    assert verifier.reasons["unknown_record"] == 1

    # more I/O than the paper's bound allows
    verifier = Verifier(dict(sound.model), oracle_every=1)
    greedy = SessionResult(answer.records, IOStats(reads=1000), bound=1.0)
    assert not verifier.read(Stab(4), greedy)
    assert verifier.reasons["over_bound"] == 1

    # an op that raised (a timeout, a refused connection) is a failed op
    assert not verifier.read(Stab(4), TimeoutError("timed out"))
    assert verifier.failed == 2
