"""The durability subsystem: WAL format, group commit, MVCC epochs, replay.

Covers the three layers on their own (:mod:`repro.durability.wal`,
:mod:`repro.durability.mvcc`, :mod:`repro.durability.recovery`) and the
engine wiring that composes them: commits are logged and acknowledged
only after the record is durable, ``attach_wal`` replays a crashed
process's tail for every index kind, checkpoints truncate the log, and
reader sessions stream pinned-epoch snapshots while writers commit.
The subprocess kill-and-reopen harness lives in
``tests/test_crash_recovery.py``; this file exercises the same machinery
in-process, where each piece can be observed directly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import random
import sys
import threading
import time

import pytest

from repro import Engine, Interval, Range, SimulatedDisk, Stab
from repro.analysis import lockdep
from repro.classes.hierarchy import ClassHierarchy, ClassObject
from repro.constraints.relation import GeneralizedRelation
from repro.constraints.terms import Constraint, GeneralizedTuple, Variable
from repro.durability import EpochManager, WriteAheadLog, read_log
from repro.engine.core import KINDS
from repro.io import FileDisk
from repro.metablock.geometry import PlanarPoint, ThreeSidedQuery

from tests.conftest import make_intervals


@pytest.fixture(autouse=True)
def witness():
    """The whole durability suite runs under a strict lockdep witness: any
    latch held across a WAL/backend fsync, or any acquisition cycle in the
    commit kernel, fails the offending test immediately."""
    with lockdep.watching() as w:
        yield w


def wal_path(tmp_path, name="test.wal"):
    return str(tmp_path / name)


# ---------------------------------------------------------------------- #
# the log itself
# ---------------------------------------------------------------------- #
class TestWalFormat:
    def test_append_records_roundtrip(self, tmp_path):
        path = wal_path(tmp_path)
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(1, ("insert", "a", (1, 2)))
            wal.append(2, ("delete", "a", (3,)))
            got = list(wal.records())
        assert [(r.lsn, r.epoch, r.op) for r in got] == [
            (0, 1, ("insert", "a", (1, 2))),
            (1, 2, ("delete", "a", (3,))),
        ]
        # offsets frame the file exactly: each record starts where the
        # previous one ended
        assert got[0].offset == 0
        assert got[1].offset == got[0].length

    def test_reopen_preserves_records(self, tmp_path):
        path = wal_path(tmp_path)
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(1, ("insert", "a", (1,)))
        with WriteAheadLog(path, fsync=False) as wal:
            assert wal.record_count == 1
            wal.append(2, ("insert", "a", (2,)))
            assert [r.epoch for r in wal.records()] == [1, 2]

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        path = wal_path(tmp_path)
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(1, ("insert", "a", (1,)))
            intact = wal.size_bytes
        with open(path, "ab") as fh:
            fh.write(b"\x40\x00\x00\x00garbage")  # header promises 64 bytes
        with WriteAheadLog(path, fsync=False) as wal:
            assert wal.record_count == 1
            assert wal.size_bytes == intact
        assert os.path.getsize(path) == intact

    def test_corrupt_payload_stops_the_scan(self, tmp_path):
        path = wal_path(tmp_path)
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(1, ("insert", "a", (1,)))
            first = wal.size_bytes
            wal.append(2, ("insert", "a", (2,)))
        raw = bytearray(open(path, "rb").read())
        raw[first + 12] ^= 0xFF  # flip a byte inside the second payload
        open(path, "wb").write(bytes(raw))
        assert [r.epoch for r in read_log(path)] == [1]
        with WriteAheadLog(path, fsync=False) as wal:
            assert wal.record_count == 1

    def test_read_log_never_truncates(self, tmp_path):
        path = wal_path(tmp_path)
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(1, ("insert", "a", (1,)))
        with open(path, "ab") as fh:
            fh.write(b"torn")
        size = os.path.getsize(path)
        assert [r.epoch for r in read_log(path)] == [1]
        assert os.path.getsize(path) == size  # evidence preserved

    def test_truncate_empties_the_log(self, tmp_path):
        path = wal_path(tmp_path)
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(1, ("insert", "a", (1,)))
            wal.truncate()
            assert wal.record_count == 0
            assert wal.size_bytes == 0
            wal.append(2, ("insert", "a", (2,)))
            assert [r.epoch for r in wal.records()] == [2]


class TestGroupCommit:
    def test_sync_to_is_a_barrier(self, tmp_path):
        wal = WriteAheadLog(wal_path(tmp_path), fsync=False)
        off = wal.append(1, ("insert", "a", (1,)))
        assert wal.sync_to(off) is True       # paid the barrier
        assert wal.sync_to(off) is False      # already durable
        assert wal.syncs == 1
        assert wal.group_absorbed == 1
        wal.close()

    def test_concurrent_commits_share_fsyncs(self, tmp_path):
        wal = WriteAheadLog(wal_path(tmp_path), fsync=False)
        per_thread, threads = 50, 8

        def committer(tid):
            for i in range(per_thread):
                off = wal.append(tid * per_thread + i, ("insert", "a", (i,)))
                wal.sync_to(off)

        ts = [threading.Thread(target=committer, args=(t,)) for t in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        total = per_thread * threads
        assert wal.commits == total
        assert wal.record_count == total
        # every commit either paid a barrier or rode one; under real
        # contention syncs < commits (the amortization the design is for),
        # but the invariant that must always hold is the accounting one
        assert wal.syncs + wal.group_absorbed == total
        assert wal.syncs >= 1
        wal.close()


# ---------------------------------------------------------------------- #
# the epoch clock
# ---------------------------------------------------------------------- #
class TestEpochManager:
    def test_ordered_publication(self):
        epochs = EpochManager()
        e1, e2 = epochs.begin(), epochs.begin()
        order = []
        done = threading.Event()

        def publish_second():
            epochs.publish(e2)       # must wait for e1
            order.append(e2)
            done.set()

        t = threading.Thread(target=publish_second)
        t.start()
        assert not done.wait(0.05)   # e2 is stuck behind e1
        epochs.publish(e1)
        order.append(e1)
        assert done.wait(2.0)
        t.join()
        assert epochs.current == e2
        assert order == [e1, e2] or order == [e2, e1]  # e2 appended after set

    def test_pins_hold_back_the_safe_epoch(self):
        epochs = EpochManager()
        epochs.publish(epochs.begin())      # current = 1
        with epochs.pinned() as e:
            assert e == 1
            epochs.publish(epochs.begin())  # current = 2
            assert epochs.safe_epoch() == 0  # pinned reader at 1 needs 1's view
            assert epochs.pinned_count() == 1
            assert epochs.oldest_pinned() == 1
        assert epochs.safe_epoch() == 2
        assert epochs.pinned_count() == 0

    def test_quiesce_waits_for_inflight(self):
        epochs = EpochManager()
        e = epochs.begin()
        done = threading.Event()

        def waiter():
            epochs.quiesce()
            done.set()

        t = threading.Thread(target=waiter)
        t.start()
        assert not done.wait(0.05)
        epochs.publish(e)
        assert done.wait(2.0)
        t.join()

    def test_write_epoch_is_thread_local(self):
        epochs = EpochManager()
        epochs.set_write_epoch(7)
        seen = []

        def other():
            seen.append(epochs.write_epoch())

        t = threading.Thread(target=other)
        t.start()
        t.join()
        assert seen == [None]
        assert epochs.write_epoch() == 7
        epochs.clear_write_epoch()
        assert epochs.write_epoch() is None


# ---------------------------------------------------------------------- #
# the engine wiring
# ---------------------------------------------------------------------- #
class TestEngineWal:
    def test_commits_are_logged(self, tmp_path):
        eng = Engine(block_size=8)
        eng.attach_wal(wal_path(tmp_path), fsync=False)
        ivs = make_intervals(10, seed=1)
        eng.create_collection("c", ivs, dynamic=True)
        extra = Interval(1.0, 2.0)
        eng.insert("c", extra)
        assert eng.delete("c", ivs[0]) is True
        kinds = [r.op[0] for r in eng.wal.records()]
        assert kinds == ["create", "insert", "delete"]
        epochs = [r.epoch for r in eng.wal.records()]
        assert epochs == sorted(epochs)  # log order == epoch order

    def test_delete_miss_is_not_logged(self, tmp_path):
        eng = Engine(block_size=8)
        eng.attach_wal(wal_path(tmp_path), fsync=False)
        eng.create_collection("c", make_intervals(5, seed=2), dynamic=True)
        assert eng.delete("c", Interval(5000.0, 5001.0)) is False
        assert [r.op[0] for r in eng.wal.records()] == ["create"]

    def test_ack_implies_synced(self, tmp_path):
        eng = Engine(block_size=8)
        eng.attach_wal(wal_path(tmp_path), fsync=False)
        eng.create_collection("c", dynamic=True)
        eng.insert("c", Interval(1.0, 2.0))
        # the engine returned: the log must already be durable up to here
        assert eng.wal.synced_bytes == eng.wal.size_bytes

    def test_double_attach_refused(self, tmp_path):
        eng = Engine(block_size=8)
        eng.attach_wal(wal_path(tmp_path), fsync=False)
        with pytest.raises(RuntimeError):
            eng.attach_wal(wal_path(tmp_path, "other.wal"), fsync=False)

    def test_fsyncs_counted_into_backend_stats(self, tmp_path):
        eng = Engine(block_size=8)
        eng.attach_wal(wal_path(tmp_path))  # real fsync
        eng.create_collection("c", dynamic=True)
        eng.insert("c", Interval(1.0, 2.0))
        stats = eng.io_stats().snapshot()
        assert stats.fsyncs >= 2
        # durability barriers are not block I/O in the paper's model
        assert stats.total == stats.reads + stats.writes


def _drain(engine, name, q):
    return {r.uid for r in engine.query(name, q).all()}


class TestWalReplay:
    """``attach_wal`` on a fresh engine rebuilds a crashed engine's state.

    The first engine never checkpoints and never closes — the WAL is the
    only survivor, exactly the crash contract — and the replayed engine
    must answer every query identically, for every index kind.
    """

    def _crashed_and_recovered(self, tmp_path, build):
        path = wal_path(tmp_path)
        crashed = Engine(block_size=8)
        crashed.attach_wal(path, fsync=False)
        build(crashed)
        crashed.wal.close()     # drop the handle; the state is abandoned
        recovered = Engine(block_size=8)
        replayed = recovered.attach_wal(path, fsync=False)
        assert replayed == len(list(recovered.wal.records()))
        assert replayed > 0
        return crashed, recovered

    def test_interval_index(self, tmp_path):
        ivs = make_intervals(30, seed=3)

        def build(eng):
            eng.create_interval_index("iv", ivs[:25], dynamic=True)
            for iv in ivs[25:]:
                eng.insert("iv", iv)
            eng.delete("iv", ivs[0])

        crashed, recovered = self._crashed_and_recovered(tmp_path, build)
        for q in (Stab(ivs[1].low), Stab(500.0), Range(100.0, 300.0)):
            assert _drain(recovered, "iv", q) == _drain(crashed, "iv", q)

    def test_collection(self, tmp_path):
        ivs = make_intervals(30, seed=4)

        def build(eng):
            eng.create_collection("c", ivs[:20], dynamic=True)
            eng.bulk_load("c", ivs[20:28])
            eng.insert("c", ivs[28])
            eng.update("c", ivs[5], ivs[29])
            eng.delete("c", ivs[6])

        crashed, recovered = self._crashed_and_recovered(tmp_path, build)
        for q in (Stab(ivs[2].low), Range(0.0, 1000.0)):
            assert _drain(recovered, "c", q) == _drain(crashed, "c", q)

    def test_key_index(self, tmp_path):
        pairs = [(float(i), Interval(float(i), float(i + 1))) for i in range(40)]

        def build(eng):
            eng.create_key_index("k", pairs[:30])
            for key, value in pairs[30:]:
                eng.insert("k", key, value)
            eng.delete("k", 3.0)

        def keyed(engine):
            # range scans on a B+-tree stream (key, value) pairs
            return {
                (k, v.uid) for k, v in engine.query("k", Range(0.0, 100.0)).all()
            }

        crashed, recovered = self._crashed_and_recovered(tmp_path, build)
        assert _drain(recovered, "k", Stab(10.0)) == _drain(crashed, "k", Stab(10.0))
        assert _drain(recovered, "k", Stab(3.0)) == set()
        assert keyed(recovered) == keyed(crashed)

    def test_point_index(self, tmp_path):
        pts = [PlanarPoint(float(i % 7), float(i)) for i in range(30)]

        def build(eng):
            eng.create_point_index("p", pts[:25])
            for p in pts[25:]:
                eng.insert("p", p)
            eng.delete("p", pts[0])

        crashed, recovered = self._crashed_and_recovered(tmp_path, build)
        q = ThreeSidedQuery(0.0, 6.0, 10.0)
        assert _drain(recovered, "p", q) == _drain(crashed, "p", q)

    def test_class_index(self, tmp_path):
        hierarchy = ClassHierarchy()
        hierarchy.add_class("Root")
        hierarchy.add_class("A", "Root")
        hierarchy.add_class("B", "Root")
        objs = [
            ClassObject(float(i), ("Root", "A", "B")[i % 3]) for i in range(24)
        ]

        def build(eng):
            eng.create_class_index("cls", hierarchy, objs[:20], method="combined")
            for obj in objs[20:]:
                eng.insert("cls", obj)

        from repro.engine import ClassRange

        crashed, recovered = self._crashed_and_recovered(tmp_path, build)
        q = ClassRange("A", 0.0, 100.0)
        assert _drain(recovered, "cls", q) == _drain(crashed, "cls", q)

    def test_constraint_index(self, tmp_path):
        x = Variable("x")
        relation = GeneralizedRelation(
            ["x"],
            [
                GeneralizedTuple(
                    [Constraint(x, ">=", float(i)), Constraint(x, "<=", float(i + 2))],
                    name=f"t{i}",
                )
                for i in range(20)
            ],
            name="r",
        )

        def build(eng):
            eng.create_constraint_index("gx", relation, "x", dynamic=True)

        def names(engine, q):
            return {t.name for t in engine.query("gx", q).all()}

        crashed, recovered = self._crashed_and_recovered(tmp_path, build)
        assert names(recovered, Stab(5.0)) == names(crashed, Stab(5.0))
        assert names(recovered, Stab(5.0))  # non-vacuous

    def test_drop_survives_replay(self, tmp_path):
        path = wal_path(tmp_path)
        crashed = Engine(block_size=8)
        crashed.attach_wal(path, fsync=False)
        crashed.create_collection("keep", make_intervals(5, seed=5), dynamic=True)
        crashed.create_collection("gone", make_intervals(5, seed=6), dynamic=True)
        crashed.drop_index("gone")
        crashed.wal.close()
        recovered = Engine(block_size=8)
        recovered.attach_wal(path, fsync=False)
        assert recovered.names() == ["keep"]


class TestCheckpointAndRecovery:
    def test_checkpoint_truncates_and_stamps(self, tmp_path):
        db = str(tmp_path / "db.pages")
        eng = Engine(FileDisk(db, block_size=8))
        eng.attach_wal()
        eng.create_collection("c", make_intervals(10, seed=7), dynamic=True)
        assert eng.wal.record_count == 1
        eng.checkpoint()
        assert eng.wal.record_count == 0
        assert eng.backend.meta["durable_epoch"] == eng.epochs.current
        eng.close()

    def test_replay_is_idempotent_across_the_truncate_window(self, tmp_path):
        """A crash between checkpoint and WAL truncate must not double-apply."""
        db = str(tmp_path / "db.pages")
        eng = Engine(FileDisk(db, block_size=8))
        eng.attach_wal()
        ivs = make_intervals(10, seed=8)
        eng.create_collection("c", ivs, dynamic=True)
        eng.insert("c", Interval(1.0, 2.0))
        # simulate the window: snapshot the pre-checkpoint log, checkpoint
        # (which truncates), then put the stale tail back
        stale = open(db + ".wal", "rb").read()
        eng.checkpoint()
        eng.wal.close()
        eng.wal = None
        eng.flush()
        eng.backend.close()
        open(db + ".wal", "wb").write(stale)
        reopened = Engine.open(db)
        try:
            # the stale records carry epochs <= durable_epoch: all skipped
            counts = {e["name"]: e["records"] for e in reopened.catalog()}
            assert counts == {"c": 11}
        finally:
            reopened.close()

    def test_open_without_wal_flag(self, tmp_path):
        db = str(tmp_path / "db.pages")
        eng = Engine(FileDisk(db, block_size=8))
        eng.attach_wal()
        eng.create_collection("c", make_intervals(6, seed=9), dynamic=True)
        eng.close()
        reopened = Engine.open(db, wal=False)
        try:
            assert reopened.wal is None
            assert [e["name"] for e in reopened.catalog()] == ["c"]
        finally:
            reopened.close()


# ---------------------------------------------------------------------- #
# MVCC snapshot reads
# ---------------------------------------------------------------------- #
#: every kind but ``key`` keeps its versions in the global-rebuilding core;
#: the class kind twice — its B+-tree schemes delete natively, ``combined``
#: by tombstone
SNAPSHOT_KINDS = ["class-combined", "class-simple", "collection", "constraint", "interval", "point"]
SNAPSHOT_HIERARCHY = ClassHierarchy.from_edges([("a", None), ("b", "a"), ("c", "a"), ("d", "b")])


def _snapshot_record(kind, rnd, tag):
    lo = rnd.uniform(0, 100)
    hi = lo + rnd.uniform(0, 20)
    if kind in ("interval", "collection"):
        return Interval(lo, hi, payload=tag)
    if kind == "constraint":
        x = Variable("x")
        return GeneralizedTuple([Constraint(x, ">=", lo), Constraint(x, "<=", hi)], name=f"t{tag}")
    if kind == "point":
        return PlanarPoint(lo, rnd.uniform(0, 100), payload=tag)
    return ClassObject(lo, rnd.choice(SNAPSHOT_HIERARCHY.classes()), payload=tag)


def _snapshot_queries(kind):
    from repro.engine import ClassRange, EndpointRange

    if kind == "point":
        return [ThreeSidedQuery(10.0, 70.0, 30.0), ThreeSidedQuery(-1.0, 200.0, -1.0)]
    if kind.startswith("class"):
        return [ClassRange("a", -1.0, 200.0), ClassRange("b", 20.0, 80.0)]
    queries = [Stab(float(x)) for x in (15, 40, 75)]
    if kind != "constraint":
        queries.append(Range(30.0, 60.0))
    if kind == "collection":
        queries += [EndpointRange("low", 20.0, 70.0), EndpointRange("high", 20.0, 70.0)]
    return queries


def _snapshot_answer(kind, q, records):
    """A query's answer as comparable versions: uid and every field."""
    def version(r):
        return (r.name,) if isinstance(r, GeneralizedTuple) else (r.uid, repr(r))

    if kind == "constraint":
        records = [r for r in records if r.projection("x")[0] <= q.x <= r.projection("x")[1]]
    elif kind.startswith("class"):
        q = dataclasses.replace(q, hierarchy=SNAPSHOT_HIERARCHY)
        records = [r for r in records if q.matches(r)]
    else:
        records = [r for r in records if q.matches(r)]
    return sorted(map(version, records), key=repr)


def _changed(kind, old, rnd, tag):
    """A new version of ``old`` under its uid (a new tuple for ``constraint``)."""
    if kind == "constraint":
        return _snapshot_record(kind, rnd, tag)
    return dataclasses.replace(old, payload=("new", tag))


def _delete(engine, model, rnd, tag):
    victim = model.pop(rnd.randrange(len(model)))
    assert engine.delete("ix", victim)


def _reinsert(engine, model, rnd, tag):
    victim = model[rnd.randrange(len(model))]
    assert engine.delete("ix", victim)
    engine.insert("ix", victim)


def _update(engine, model, rnd, tag, kind):
    i = rnd.randrange(len(model))
    new = _changed(kind, model[i], rnd, tag)
    engine.update("ix", model[i], new)
    model[i] = new


def _bulk(engine, model, rnd, tag, kind):
    # a bulk load is a global rebuild: the structure is replaced under the
    # pinned reader, and the next round's rebuild must keep this round's
    # deleted version, which the pin still sees
    batch = [_snapshot_record(kind, rnd, (tag, j)) for j in range(12)]
    assert engine.bulk_load("ix", batch) == len(batch)
    model.extend(batch)
    _delete(engine, model, rnd, tag)


def _deletes(engine, model, rnd, tag):
    # past rebuild_due's threshold: a global rebuild once the versions go
    for _ in range(len(model) // 2):
        _delete(engine, model, rnd, tag)


SNAPSHOT_SCRIPTS = {
    "delete": lambda e, m, r, t, kind: _delete(e, m, r, t),
    "reinsert": lambda e, m, r, t, kind: _reinsert(e, m, r, t),
    "update": _update,
    "bulk": _bulk,
    "deletes": lambda e, m, r, t, kind: _deletes(e, m, r, t),
}


def _snapshot_run(kind, script, backend, pin):
    """Build, run ``script`` (inside a pin or not), purge, rebuild; the
    blocks in use after the purge, the dead versions the purge left
    tombstoned in the structure, and the blocks in use after the rebuild."""
    rnd = random.Random(f"{kind}-{script}")
    engine = Engine(SimulatedDisk(4) if backend == "memory" else FileDisk(block_size=4))
    try:
        records = [_snapshot_record(kind, rnd, i) for i in range(60)]
        if kind.startswith("class"):
            engine.create_class_index("ix", SNAPSHOT_HIERARCHY, records, method=kind.split("-")[1])
        elif kind == "constraint":
            engine.create_constraint_index(
                "ix", GeneralizedRelation(["x"], records, name="r"), "x"
            )
        else:
            engine.create("ix", kind, records)
        queries = _snapshot_queries(kind)
        model = list(records)
        at_pin = [_snapshot_answer(kind, q, model) for q in queries]
        with (engine.epochs.pinned() if pin else contextlib.nullcontext()):
            for step in range(3):
                SNAPSHOT_SCRIPTS[script](engine, model, rnd, step, kind)
            if pin:
                for q, want in zip(queries, at_pin):
                    assert _snapshot_answer(kind, q, engine.query("ix", q)) == want, q
        for q in queries:
            assert _snapshot_answer(kind, q, engine.query("ix", q)) == _snapshot_answer(kind, q, model), q
        engine.checkpoint()  # purges every index's versions
        for q in queries:
            with engine.read_turn("ix"):
                got = _snapshot_answer(kind, q, engine.query("ix", q))
            assert got == _snapshot_answer(kind, q, model), q
        purged = engine.block_count()
        index = engine["ix"]
        # the rebuilding core under every kind (a point index is one)
        tombstoned = getattr(getattr(index, "manager", index), "_core", index)._dead
        engine.bulk_load("ix", [_snapshot_record(kind, rnd, "last")])
        assert engine["ix"].live_count == len(model) + 1
        return purged, tombstoned, engine.block_count()
    finally:
        engine.close()


class TestSnapshotReads:
    def test_visibility_tags_during_pinned_read(self):
        """A pinned epoch keeps its snapshot while commits land after it.

        The pin (not the per-request latch) is what carries the snapshot:
        commits proceed freely while an epoch is pinned — the reader's
        stream holds just what its epoch sees.
        """
        eng = Engine(block_size=8)
        ivs = make_intervals(12, seed=10)
        eng.create_collection("c", ivs, dynamic=True)
        everything = Range(-1.0, 2000.0)
        with eng.epochs.pinned():
            before = {r.uid for r in eng.query("c", everything).all()}
            eng.insert("c", Interval(10.0, 20.0))   # commits after the pin
            eng.delete("c", ivs[0])
            # the structures hold the new physical state (insert applied,
            # delete deferred); the pinned reader streams its snapshot
            visible = {r.uid for r in eng.query("c", everything).all()}
            assert visible == before
        # after the pin is gone, a fresh read turn sees the commits
        with eng.read_turn("c"):
            after = {r.uid for r in eng.query("c", everything).all()}
        assert ivs[0].uid not in after
        assert len(after) == len(before)  # one in, one out

    def test_sessions_read_consistent_snapshots(self):
        eng = Engine(block_size=8)
        ivs = make_intervals(40, seed=11)
        eng.create_collection("c", ivs, dynamic=True)
        session = eng.session()
        res = session.query("c", Range(-1.0, 2000.0))
        assert {r.uid for r in res.records} == {iv.uid for iv in ivs}

    def test_reader_not_blocked_by_writer_on_other_index(self):
        """The MVCC point: a slow commit on index B never delays reads of A."""
        eng = Engine(block_size=8)
        eng.create_collection("a", make_intervals(10, seed=12), dynamic=True)
        eng.create_collection("b", dynamic=True)
        in_commit = threading.Event()
        release = threading.Event()
        original = eng.index("b").insert

        def slow_insert(*args, **kw):
            in_commit.set()
            release.wait(10.0)
            return original(*args, **kw)

        eng.index("b").insert = slow_insert
        t = threading.Thread(target=lambda: eng.insert("b", Interval(1.0, 2.0)))
        t.start()
        assert in_commit.wait(5.0)
        try:
            # while b's commit holds b's latch + the write mutex, a read
            # turn on a must still complete
            session = eng.session()
            res = session.query("a", Stab(500.0))
            assert res is not None
        finally:
            release.set()
            t.join()

    def test_tombstones_purge_once_unpinned(self):
        eng = Engine(block_size=8)
        ivs = make_intervals(8, seed=13)
        eng.create_collection("c", ivs, dynamic=True)
        col = eng.index("c")

        def stored():
            return {iv.uid for _, iv in col.manager.endpoints.iter_pairs()}

        with eng.epochs.pinned():
            eng.delete("c", ivs[0])
            assert ivs[0].uid in stored()  # version held for the pinned reader
        # next commit's GC pass reclaims it (no pins left)
        eng.insert("c", Interval(1.0, 2.0))
        assert ivs[0].uid not in stored()

    @pytest.mark.parametrize("write", ["reinsert", "update"])
    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_a_pinned_reader_keeps_a_rewritten_uid(self, backend, write):
        rnd = random.Random(13)
        ivs = [Interval(lo, lo + rnd.uniform(0, 60)) for lo in (rnd.uniform(0, 1000) for _ in range(199))]
        target = Interval(50.0, 55.0)
        eng = Engine(SimulatedDisk(8) if backend == "memory" else FileDisk(block_size=8))
        eng.create_collection("c", ivs + [target])
        with eng.epochs.pinned():
            if write == "reinsert":
                eng.delete("c", target)
                eng.insert("c", target)
            else:
                eng.update("c", target, dataclasses.replace(target, payload="new"))
            seen = {r.uid for r in eng.query("c", Stab(52.0))}
        eng.close()
        assert target.uid in seen

    @pytest.mark.parametrize("backend", ["memory", "file"])
    @pytest.mark.parametrize("script", sorted(SNAPSHOT_SCRIPTS))
    @pytest.mark.parametrize("kind", SNAPSHOT_KINDS)
    def test_a_pinned_reader_sees_its_epoch_on_every_kind(self, kind, script, backend):
        """Writes committed after a pin leave the pinned reader's answer
        the oracle of its epoch; unpinned, the answer is the current
        oracle, and once the versions are purged (and, where a rebuild
        kept some for the pin, rebuilt again) the index holds exactly the
        blocks the same writes leave without a pin."""
        (purged, tombstoned, rebuilt), (unpinned_purged, unpinned_tombstoned, unpinned_rebuilt) = (
            _snapshot_run(kind, script, backend, pin) for pin in (True, False)
        )
        assert rebuilt == unpinned_rebuilt
        if script == "bulk":
            # a bulk load is a rebuild, and the one under the pin kept the
            # dead versions the pin saw: the purge after it only tombstones
            # them in the structure (the endpoint trees drop them), so the
            # next rebuild reclaims them.  Their blocks are not compared: a
            # metablock tree's block count is not monotone in its points
            # (one more point can regroup a level into fuller leaves)
            assert tombstoned >= unpinned_tombstoned
        else:
            # a re-inserted record — a constraint tuple too, identified by
            # its value — revives its dead version: no row is stored twice
            assert (purged, tombstoned) == (unpinned_purged, unpinned_tombstoned)

    @pytest.mark.parametrize("kind", ["collection", "interval", "point"])
    def test_pinned_readers_beside_a_writer_each_read_their_epoch(self, kind):
        """Four readers drain read turns while one writer deletes,
        re-inserts and updates under them, with thread switches every few
        bytecodes: every answer is the oracle of the epoch its turn
        pinned — each thread's epoch reaches the core on its own."""
        rnd = random.Random(kind)
        eng = Engine(SimulatedDisk(4))
        records = [_snapshot_record(kind, rnd, i) for i in range(80)]
        eng.create("ix", kind, records)
        queries = _snapshot_queries(kind)
        model, dead = list(records), []
        snapshots = {eng.epochs.current: list(model)}
        seen, errors, done = [], [], threading.Event()
        start = threading.Barrier(5)

        def writer():
            try:
                start.wait(10.0)
                for step in range(60):
                    time.sleep(0.001)  # let the readers pin between commits
                    i = rnd.randrange(len(model))
                    if step % 3 == 0:
                        dead.append(model.pop(i))
                        eng.delete("ix", dead[-1])
                    elif step % 3 == 1 and dead:
                        model.append(dead.pop(0))
                        eng.insert("ix", model[-1])
                    else:
                        new = _changed(kind, model[i], rnd, step)
                        eng.update("ix", model[i], new)
                        model[i] = new
                    # the one writer: the published epoch is its commit's
                    snapshots[eng.epochs.current] = list(model)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                done.set()

        def reader():
            try:
                start.wait(10.0)
                while not done.is_set():
                    with eng.read_turn("ix") as epoch:
                        seen.append((epoch, [_snapshot_answer(kind, q, eng.query("ix", q)) for q in queries]))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer)] + [threading.Thread(target=reader) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len({epoch for epoch, _ in seen}) > 1
        for epoch, answers in seen:
            assert answers == [_snapshot_answer(kind, q, snapshots[epoch]) for q in queries], epoch

    def test_a_key_index_is_consistent_per_latch_turn_only(self):
        """``key`` is a bare B+-tree with no version store: a reader pinned
        before a delete no longer sees the pair once the delete commits.
        It is the one kind the snapshot property above leaves out, and it
        stays off the rebuilding core because a pair has no identity to
        version: the tree is a multiset (``[(1, "a"), (1, "a")]`` keeps
        both pairs), and a delete may name a key alone
        (``engine.delete(name, key)``, which the WAL replays), so no stored
        version could be told apart from an equal twin."""
        assert {kind.split("-")[0] for kind in SNAPSHOT_KINDS} == set(KINDS) - {"key"}
        eng = Engine(block_size=4)
        pairs = [(float(i), i) for i in range(40)]
        eng.create_key_index("k", pairs)
        with eng.epochs.pinned():
            assert eng.delete("k", 7.0, 7)
            assert [v for _, v in eng.query("k", Range(6.0, 8.0))] == [6, 8]

    def test_delete_matching_remains_atomic(self):
        eng = Engine(block_size=8)
        ivs = [Interval(float(i), float(i) + 5.0) for i in range(20)]
        eng.create_collection("c", ivs, dynamic=True)
        session = eng.session()
        res = session.delete_matching("c", Stab(7.5))
        expected = {iv.uid for iv in ivs if iv.low <= 7.5 <= iv.high}
        assert {r.uid for r in res.records} == expected
        assert session.query("c", Stab(7.5)).records == []


# ---------------------------------------------------------------------- #
# the lockdep witness over the real durability paths
# ---------------------------------------------------------------------- #
class TestLockdepOverDurability:
    def test_group_commit_barrier_is_observed_lock_free(self, tmp_path, witness):
        """The WAL's fsync must reach the witness with no no_block lock held."""
        with WriteAheadLog(wal_path(tmp_path)) as wal:
            lsn = wal.append(1, ("insert", "a", (1.0, 2.0)))
            assert wal.sync_to(lsn) is True
        assert witness.blocking_calls >= 1
        assert witness.violations == []

    def test_concurrent_commits_stay_witness_clean(self, tmp_path, witness):
        """8 threads through the full commit kernel (real fsyncs): the
        acquisition DAG must stay acyclic and barrier-clean."""
        eng = Engine(block_size=8)
        eng.attach_wal(wal_path(tmp_path))  # real fsyncs
        try:
            eng.create_collection("c", [], dynamic=True)
            errors = []

            def committer(tid):
                try:
                    session = eng.session()
                    for i in range(5):
                        session.insert(
                            "c", Interval(float(tid * 100 + i), float(tid * 100 + i + 1))
                        )
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            ts = [threading.Thread(target=committer, args=(t,)) for t in range(8)]
            for t in ts:
                t.start()
            for t in ts:
                t.join()
            assert errors == []
            # the kernel's one legal edge, witnessed for real
            assert ("engine.write_mutex", "latch:c") in witness.edges()
            assert witness.blocking_calls >= 1      # real fsyncs happened
            assert witness.violations == []
        finally:
            eng.close()

    def test_checkpoint_runs_witness_clean(self, tmp_path, witness):
        eng = Engine(FileDisk(str(tmp_path / "db.pages"), block_size=8))
        eng.attach_wal(wal_path(tmp_path))
        try:
            eng.create_collection("c", make_intervals(12, seed=7), dynamic=True)
            eng.insert("c", Interval(3.0, 4.0))
            eng.checkpoint()
            assert witness.violations == []
        finally:
            eng.close()
