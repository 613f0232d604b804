"""Kill-and-reopen crash recovery: subprocess harness over real files.

The property under test is the durability contract end to end, with a
*real* process death (``os._exit`` — no ``atexit``, no ``finally``, no
checkpoint) at randomized points of a write workload against a
:class:`~repro.io.FileDisk` database with an attached WAL:

    every operation the engine **acknowledged** (the call returned) is
    present after ``Engine.open``, and nothing else is — the recovered
    state is exactly the acknowledged prefix.

The child process appends one line to an acks file — flushed and fsynced
— *after* each engine call returns, then ``os._exit``\\ s when its kill
point is reached.  The parent replays the same deterministic workload
into a plain in-memory oracle up to the acknowledged count, reopens the
database (WAL-tail replay), and compares exactly.  Parametrized over
kill points and over every index kind the catalog supports.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

from repro import Engine, Interval, Range
from repro.classes.hierarchy import ClassHierarchy, ClassObject
from repro.constraints.relation import GeneralizedRelation
from repro.constraints.terms import Constraint, GeneralizedTuple, Variable
from repro.engine import ClassRange
from repro.engine.core import KINDS as ENGINE_KINDS
from repro.metablock.geometry import PlanarPoint, ThreeSidedQuery

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")

#: every kind the engine's table defines; ``steps_for`` raises for one it
#: has no workload for, so a new kind cannot skip the kill -9 suite
KINDS = list(ENGINE_KINDS)


# ---------------------------------------------------------------------- #
# the deterministic workload (shared by the child and the parent oracle)
# ---------------------------------------------------------------------- #
def steps_for(kind: str, seed: int = 0):
    """A deterministic op sequence for one index kind.

    Steps are plain data — ``("create", rows)``, ``("insert", row)``,
    ``("delete", payload)``, ``("bulk", rows)``, ``("update", payload,
    row)`` — so the child (applying to a real engine) and the parent
    (applying to an oracle set) interpret the identical sequence.
    """
    rnd = random.Random(seed * 1000 + len(kind))

    def row(payload):
        low = round(rnd.uniform(0.0, 100.0), 3)
        return (low, round(low + rnd.uniform(1.0, 10.0), 3), payload)

    if kind in ("interval", "collection"):
        base = [row(i) for i in range(8)]
        steps = [("create", base)]
        live = [r[2] for r in base]
        next_payload = len(base)
        for _ in range(12):
            roll = rnd.random()
            if kind == "collection" and roll < 0.15:
                rows = [row(next_payload + i) for i in range(3)]
                next_payload += 3
                live.extend(r[2] for r in rows)
                steps.append(("bulk", rows))
            elif roll < 0.6 or not live:
                r = row(next_payload)
                next_payload += 1
                live.append(r[2])
                steps.append(("insert", r))
            else:
                victim = live.pop(rnd.randrange(len(live)))
                steps.append(("delete", victim))
        return steps
    if kind in ("key", "point", "constraint"):
        base = [row(i) for i in range(8)]
        steps = [("create", base)]
        live = [r[2] for r in base]
        next_payload = len(base)
        for _ in range(8):
            if rnd.random() < 0.6 or not live:
                r = row(next_payload)
                next_payload += 1
                live.append(r[2])
                steps.append(("insert", r))
            else:
                steps.append(("delete", live.pop(rnd.randrange(len(live)))))
        return steps
    if kind == "class":
        base = [row(i) for i in range(8)]
        steps = [("create", base)]
        for i in range(8, 14):
            steps.append(("insert", row(i)))
        return steps
    raise ValueError(kind)


_CLASSES = ["Root", "A", "B"]
_X = Variable("x")


class EngineApplier:
    """Applies workload steps to a live engine (used inside the child)."""

    def __init__(self, engine, name: str, kind: str) -> None:
        self.engine = engine
        self.name = name
        self.kind = kind
        self._by_payload = {}

    def _record(self, row):
        low, high, payload = row
        if self.kind == "point":
            rec = PlanarPoint(low, high, payload=payload)
        elif self.kind == "constraint":
            # a tuple has no uid: a replayed delete names it by value
            rec = GeneralizedTuple(
                [Constraint(_X, ">=", low), Constraint(_X, "<=", high)],
                name=f"t{payload}",
            )
        elif self.kind == "class":
            rec = ClassObject(low, _CLASSES[payload % len(_CLASSES)],
                              payload=payload)
        else:
            rec = Interval(low, high, payload=payload)
        self._by_payload[payload] = rec
        return rec

    def apply(self, step) -> None:
        op = step[0]
        eng, name = self.engine, self.name
        if op == "create":
            records = [self._record(r) for r in step[1]]
            if self.kind == "interval":
                eng.create_interval_index(name, records, dynamic=True)
            elif self.kind == "collection":
                eng.create_collection(name, records, dynamic=True)
            elif self.kind == "key":
                eng.create_key_index(
                    name, [(r.payload * 10.0, r) for r in records]
                )
            elif self.kind == "point":
                eng.create_point_index(name, records)
            elif self.kind == "class":
                hierarchy = ClassHierarchy()
                hierarchy.add_class("Root")
                hierarchy.add_class("A", "Root")
                hierarchy.add_class("B", "Root")
                eng.create_class_index(name, hierarchy, records,
                                       method="combined")
            elif self.kind == "constraint":
                relation = GeneralizedRelation(["x"], records, name="r")
                eng.create_constraint_index(name, relation, "x", dynamic=True)
        elif op == "insert":
            rec = self._record(step[1])
            if self.kind == "key":
                eng.insert(name, rec.payload * 10.0, rec)
            else:
                eng.insert(name, rec)
        elif op == "delete":
            payload = step[1]
            if self.kind == "key":
                eng.delete(name, payload * 10.0)
            else:
                eng.delete(name, self._by_payload[payload])
        elif op == "bulk":
            eng.bulk_load(name, [self._record(r) for r in step[1]])
        else:
            raise ValueError(op)


def oracle_payloads(steps, acked: int):
    """The payload set after the first ``acked`` steps (plain-set oracle)."""
    live = set()
    for step in steps[:acked]:
        op = step[0]
        if op == "create" or op == "bulk":
            live.update(r[2] for r in step[1])
        elif op == "insert":
            live.add(step[1][2])
        elif op == "delete":
            live.discard(step[1])
    return live


def recovered_payloads(engine, name: str, kind: str):
    if kind == "key":
        rows = engine.query(name, Range(-1e9, 1e9)).all()
        return {value.payload for _key, value in rows}
    if kind == "point":
        # y >= -1e9 over the full x-range: everything
        rows = engine.query(name, ThreeSidedQuery(-1e9, 1e9, -1e9)).all()
        return {p.payload for p in rows}
    if kind == "class":
        rows = engine.query(name, ClassRange("Root", -1e9, 1e9)).all()
        return {o.payload for o in rows}
    if kind == "constraint":
        # tuples carry names t<payload>; one range covers the whole domain
        return {int(t.name[1:]) for t in engine.query(name, Range(-1.0, 115.0)).all()}
    rows = engine.query(name, Range(-1e9, 1e9)).all()
    return {iv.payload for iv in rows}


# ---------------------------------------------------------------------- #
# the child process
# ---------------------------------------------------------------------- #
_CHILD = """
import json, os, sys
kind, db, acks = sys.argv[1], sys.argv[2], sys.argv[3]
kill_after, seed = int(sys.argv[4]), int(sys.argv[5])
from tests.test_crash_recovery import EngineApplier, steps_for
from repro import Engine
from repro.io import FileDisk
if os.path.exists(db + ".meta"):
    engine = Engine.open(db)
else:
    engine = Engine(FileDisk(db, block_size=8))
    engine.attach_wal()
applier = EngineApplier(engine, "idx", kind)
fh = open(acks, "a")
done = 0
for step in steps_for(kind, seed):
    applier.apply(step)          # returns == acknowledged
    fh.write(json.dumps(step[0]) + chr(10))
    fh.flush()
    os.fsync(fh.fileno())
    done += 1
    if done >= kill_after:
        break
os._exit(1)                      # die hard: no checkpoint, no close
"""


def run_child(kind: str, db: str, acks: str, kill_after: int, seed: int = 0):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + _ROOT
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, kind, db, acks, str(kill_after), str(seed)],
        capture_output=True,
        text=True,
        env=env,
        cwd=_ROOT,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert not proc.stderr, proc.stderr
    with open(acks) as fh:
        return sum(1 for line in fh if line.strip())


# ---------------------------------------------------------------------- #
# the tests
# ---------------------------------------------------------------------- #
# kill points drawn once, deterministically, across the collection
# workload's 13 steps — early (mid-create), middle, and final
_KILL_POINTS = sorted(random.Random(42).sample(range(1, 13), 4)) + [13]


@pytest.mark.parametrize("kill_after", _KILL_POINTS)
def test_acknowledged_prefix_survives_kill(tmp_path, kill_after):
    """Exactness at randomized kill points: state == acknowledged prefix."""
    db = str(tmp_path / "crash.pages")
    acks = str(tmp_path / "acks.jsonl")
    steps = steps_for("collection", seed=7)
    acked = run_child("collection", db, acks, kill_after, seed=7)
    assert acked == min(kill_after, len(steps))
    engine = Engine.open(db)
    try:
        expected = oracle_payloads(steps, acked)
        assert recovered_payloads(engine, "idx", "collection") == expected
    finally:
        engine.close()


@pytest.mark.parametrize("kind", KINDS)
def test_every_index_kind_recovers(tmp_path, kind):
    """WAL replay rebuilds every catalog kind from its logged operations."""
    db = str(tmp_path / f"{kind}.pages")
    acks = str(tmp_path / "acks.jsonl")
    steps = steps_for(kind, seed=3)
    kill_after = max(1, len(steps) - 2)  # die mid-tail, past the create
    acked = run_child(kind, db, acks, kill_after, seed=3)
    engine = Engine.open(db)
    try:
        expected = oracle_payloads(steps, acked)
        assert recovered_payloads(engine, "idx", kind) == expected
        # the recovered database is a working database: it accepts a
        # fresh commit and a clean close
        if kind in ("interval", "collection"):
            engine.insert("idx", Interval(1.0, 2.0, payload=9999))
    finally:
        engine.close()
    reopened = Engine.open(db)
    try:
        got = recovered_payloads(reopened, "idx", kind)
        if kind in ("interval", "collection"):
            expected = expected | {9999}
        assert got == expected
    finally:
        reopened.close()


def test_double_crash_recovers_both_tails(tmp_path):
    """Crash, recover-and-crash again: both acknowledged tails survive.

    The second child's ``Engine.open`` replays the first tail and
    re-checkpoints; its own commits then crash too.  The final recovery
    must hold the union — exactness across a *chain* of crashes.
    """
    db = str(tmp_path / "crash.pages")
    steps = steps_for("collection", seed=11)
    acks1 = str(tmp_path / "acks1.jsonl")
    acked1 = run_child("collection", db, acks1, 4, seed=11)

    # second incarnation: recovery happens inside the child, then it
    # crashes again on a different workload (different seed → new
    # payloads only collide on delete misses, which ack as no-ops)
    steps2 = steps_for("collection", seed=23)
    # skip the create step: the index already exists in the recovered db
    acks2 = str(tmp_path / "acks2.jsonl")
    child2 = _CHILD.replace(
        "for step in steps_for(kind, seed):",
        "for step in steps_for(kind, seed)[1:]:",
    ).replace('applier = EngineApplier(engine, "idx", kind)',
              'applier = EngineApplier(engine, "idx", kind)\n'
              'for r in steps_for(kind, seed)[0][1]:\n'
              '    applier._record(r)  # rebuild payload handles, no engine op')
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + _ROOT
    proc = subprocess.run(
        [sys.executable, "-c", child2, "collection", db, acks2, "5", "23"],
        capture_output=True, text=True, env=env, cwd=_ROOT, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    with open(acks2) as fh:
        acked2 = sum(1 for line in fh if line.strip())
    assert acked2 == 5

    engine = Engine.open(db)
    try:
        expected = oracle_payloads(steps, acked1)
        # child2's deletes reference ITS OWN payload handles; the records
        # with those payloads were never inserted into this database, so
        # its deletes are acknowledged misses — only inserts/bulks land
        for step in steps2[1:][:acked2]:
            if step[0] == "insert":
                expected.add(step[1][2])
            elif step[0] == "bulk":
                expected.update(r[2] for r in step[1])
        assert recovered_payloads(engine, "idx", "collection") == expected
    finally:
        engine.close()


def test_clean_close_needs_no_replay(tmp_path):
    """After a clean close the WAL is empty — recovery is the no-op path."""
    db = str(tmp_path / "clean.pages")
    from repro.io import FileDisk

    engine = Engine(FileDisk(db, block_size=8))
    engine.attach_wal()
    engine.create_collection(
        "c", [Interval(float(i), float(i) + 2.0, payload=i) for i in range(10)],
        dynamic=True,
    )
    engine.close()
    assert os.path.getsize(db + ".wal") == 0
    reopened = Engine.open(db)
    try:
        assert recovered_payloads(reopened, "c", "collection") == set(range(10))
    finally:
        reopened.close()
