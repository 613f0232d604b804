"""The concurrency kernel: thread-safe counters, RWLock, EngineSession.

Covers the serving subsystem's foundation layer by layer:

* ``IOStats.count`` loses no updates under contention (the 8-thread
  backend hammer the bare ``+=`` era would fail);
* per-thread attribution sinks see exactly their own thread's I/Os;
* ``RWLock``: shared readers, exclusive writers, writer preference;
* ``EngineSession``: concurrent readers and writers against one engine
  stay oracle-equivalent, with per-request I/O attribution intact;
* the lockdep witness (:mod:`repro.analysis.lockdep`): every test in this
  module runs under an enabled witness, so any lock-order cycle or
  latch-held-across-fsync the workloads provoke fails the test on first
  occurrence — plus deliberate-violation regressions proving it fires.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro import Engine, FileDisk, Interval, Param, SimulatedDisk, Stab
from repro.analysis import lockdep
from repro.analysis.lockdep import (
    BlockingUnderLockError,
    LockdepWitness,
    LockOrderError,
    WitnessedMutex,
)
from repro.engine.session import RWLock
from repro.io.counters import IOStats
from repro.workloads import random_intervals


@pytest.fixture(params=["SimulatedDisk", "FileDisk"])
def backend(request, tmp_path):
    """Both backends for the attribution tests: ``FileDisk`` charges under
    its own I/O lock, the simulator without one."""
    if request.param == "SimulatedDisk":
        yield SimulatedDisk(block_size=8)
        return
    disk = FileDisk(str(tmp_path / "pages.bin"), block_size=8)
    try:
        yield disk
    finally:
        disk.close()


@pytest.fixture(autouse=True)
def witness():
    """Every test in this module runs under a strict lockdep witness."""
    with lockdep.watching() as w:
        yield w


class TestIOStatsThreadSafety:
    def test_count_is_atomic_under_contention(self):
        stats = IOStats()
        threads, per_thread = 8, 2_000

        def hammer():
            for _ in range(per_thread):
                stats.count(reads=1, writes=1, cache_hits=1)

        ts = [threading.Thread(target=hammer) for _ in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert stats.reads == threads * per_thread
        assert stats.writes == threads * per_thread
        assert stats.cache_hits == threads * per_thread
        assert stats.total == 2 * threads * per_thread

    def test_backend_hammered_from_8_threads_counts_exactly(self, backend):
        """The regression the satellite asks for: one backend, 8 threads."""
        blocks = [backend.allocate([i]) for i in range(16)]
        backend.stats.reset()
        threads, per_thread = 8, 500

        def hammer(tid):
            for i in range(per_thread):
                backend.read(blocks[(tid + i) % len(blocks)].block_id)

        ts = [threading.Thread(target=hammer, args=(t,)) for t in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert backend.stats.reads == threads * per_thread

    def test_attributed_sink_sees_only_its_thread(self, backend):
        block = backend.allocate([1])
        sink_main = IOStats()
        noise_done = threading.Event()
        start = threading.Event()

        def noise():
            start.wait()
            for _ in range(300):
                backend.read(block.block_id)
            noise_done.set()

        t = threading.Thread(target=noise)
        t.start()
        with backend.stats.attributed(sink_main):
            start.set()
            for _ in range(50):
                backend.read(block.block_id)
            noise_done.wait()
        t.join()
        assert sink_main.reads == 50           # none of the noise thread's 300
        assert backend.stats.reads >= 350      # global totals have both

    def test_attribution_scopes_nest(self, backend):
        block = backend.allocate([1])
        outer, inner = IOStats(), IOStats()
        with backend.stats.attributed(outer):
            backend.read(block.block_id)
            with backend.stats.attributed(inner):
                backend.read(block.block_id)
        assert inner.reads == 1
        assert outer.reads == 2

    def test_nested_equal_sinks_unregister_by_identity(self, disk):
        """Two ==-equal sinks (both zero) must not unregister each other."""
        block = disk.allocate([1])
        outer, inner = IOStats(), IOStats()
        with disk.stats.attributed(outer):
            with disk.stats.attributed(inner):
                pass  # inner scope does no I/O: inner == outer here
            disk.read(block.block_id)  # must land in OUTER, not inner
        assert outer.reads == 1
        assert inner.reads == 0

    def test_filedisk_concurrent_reads_deserialize_correctly(self, tmp_path):
        """Parallel readers share one file handle; seek+read must not race."""
        from repro.io import FileDisk

        fdisk = FileDisk(str(tmp_path / "pages.bin"), block_size=8)
        blocks = [fdisk.allocate([("payload", i)] * 4) for i in range(32)]
        errors = []

        def reader(tid):
            try:
                for i in range(400):
                    bid = blocks[(tid * 7 + i) % len(blocks)].block_id
                    block = fdisk.read(bid)
                    assert block.records()[0] == ("payload", bid)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        ts = [threading.Thread(target=reader, args=(t,)) for t in range(6)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert errors == []

    def test_buffer_manager_concurrent_reads(self, tiny_disk):
        """The LRU pool under parallel readers: no KeyErrors, no lost pages."""
        from repro.io import BufferManager

        pool = BufferManager(tiny_disk, capacity_pages=4)
        blocks = [pool.allocate([i]) for i in range(24)]
        errors = []

        def reader(tid):
            try:
                for i in range(500):
                    bid = blocks[(tid * 5 + i) % len(blocks)].block_id
                    assert pool.read(bid).records() == [bid]
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        ts = [threading.Thread(target=reader, args=(t,)) for t in range(6)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert errors == []

    def test_snapshot_and_merge(self):
        stats = IOStats()
        stats.count(reads=3, writes=2)
        snap = stats.snapshot()
        stats.count(reads=1)
        assert snap.reads == 3 and stats.reads == 4
        other = IOStats()
        other.merge(stats)
        assert other.reads == 4 and other.writes == 2


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        inside = []
        barrier = threading.Barrier(3, timeout=5)

        def reader():
            with lock.read():
                inside.append(1)
                barrier.wait()  # all three must be inside simultaneously

        ts = [threading.Thread(target=reader) for _ in range(3)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert len(inside) == 3

    def test_writer_excludes_readers_and_writers(self):
        lock = RWLock()
        log = []

        def writer(tag):
            with lock.write():
                log.append((tag, "in"))
                # a deliberately slow critical section: the exclusion test
                # lint: allow(blocking-under-mutex)
                time.sleep(0.02)
                log.append((tag, "out"))

        ts = [threading.Thread(target=writer, args=(i,)) for i in range(3)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        # write turns never interleave: in/out strictly alternate
        assert [kind for _, kind in log] == ["in", "out"] * 3

    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()
        writer_started = threading.Event()
        writer_done = threading.Event()
        reader_entered = threading.Event()

        def writer():
            writer_started.set()
            with lock.write():
                pass
            writer_done.set()

        def late_reader():
            with lock.read():
                reader_entered.set()

        wt = threading.Thread(target=writer)
        wt.start()
        writer_started.wait()
        # let the writer queue up behind the held read lock
        # lint: allow(blocking-under-mutex)
        time.sleep(0.02)
        rt = threading.Thread(target=late_reader)
        rt.start()
        # the late reader must NOT enter while a writer is waiting
        assert not reader_entered.wait(timeout=0.05)
        lock.release_read()
        wt.join(timeout=5)
        rt.join(timeout=5)
        assert writer_done.is_set() and reader_entered.is_set()

    def test_context_managers_release_on_error(self):
        lock = RWLock()
        with pytest.raises(RuntimeError):
            with lock.write():
                raise RuntimeError("boom")
        with pytest.raises(RuntimeError):
            with lock.read():
                raise RuntimeError("boom")
        # both sides fully released
        with lock.write():
            pass


class TestEngineSession:
    def make_engine(self, n=1500):
        engine = Engine(SimulatedDisk(16))
        base = random_intervals(n, seed=3, mean_length=12.0)
        engine.create_collection("base", base)
        return engine, base

    def test_query_matches_oracle_and_attributes_io(self):
        engine, base = self.make_engine()
        session = engine.session()
        q = Stab(500.0)
        res = session.query("base", q)
        assert {iv.uid for iv in res.records} == {
            iv.uid for iv in base if q.matches(iv)
        }
        assert res.ios > 0
        assert res.bound is not None
        assert session.stats.total == res.ios
        assert session.requests == 1

    def test_concurrent_readers_and_writers_stay_oracle_equivalent(self):
        engine, base = self.make_engine()
        errors = []

        def reader(tid):
            session = engine.session()
            try:
                for i in range(30):
                    q = Stab(10.0 + 30 * tid + i)
                    res = session.query("base", q)
                    got = {iv.uid for iv in res.records}
                    want = {iv.uid for iv in base if q.matches(iv)}
                    # writers only touch records far outside [0, 1000]
                    assert got == want, f"reader {tid} query {q}"
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def writer(tid):
            session = engine.session()
            try:
                for i in range(10):
                    iv = Interval(9000 + tid, 9002 + tid, payload=(tid, i))
                    session.insert("base", iv)
                    res = session.query("base", Stab(9001 + tid))
                    assert any(r.uid == iv.uid for r in res.records)
                    assert session.delete("base", iv).records == [True]
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        ts = [threading.Thread(target=reader, args=(t,)) for t in range(6)]
        ts += [threading.Thread(target=writer, args=(t,)) for t in range(2)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert errors == []
        # all transient writes rolled back: the oracle is the base set
        session = engine.session()
        res = session.query("base", Stab(500.0))
        assert {iv.uid for iv in res.records} == {
            iv.uid for iv in base if Stab(500.0).matches(iv)
        }

    def test_per_session_attribution_under_concurrency(self):
        """Two sessions on one backend each measure exactly their own I/Os."""
        engine, base = self.make_engine()
        totals = {}
        barrier = threading.Barrier(2, timeout=10)

        def worker(tid):
            session = engine.session()
            barrier.wait()
            for i in range(20):
                session.query("base", Stab(100.0 * tid + i))
            totals[tid] = session.stats.total

        ts = [threading.Thread(target=worker, args=(t,)) for t in (1, 2)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        # re-run each stream serially on a fresh engine: the attributed
        # totals must match the uncontended cost exactly
        engine2 = Engine(SimulatedDisk(16))
        engine2.create_collection(
            "base", random_intervals(1500, seed=3, mean_length=12.0))
        for tid in (1, 2):
            session = engine2.session()
            for i in range(20):
                session.query("base", Stab(100.0 * tid + i))
            assert totals[tid] == session.stats.total

    def test_delete_matching_upgrade_path(self):
        engine, _ = self.make_engine(n=300)
        session = engine.session()
        victims = session.query("base", Stab(400.0)).records
        removed = session.delete_matching("base", Stab(400.0))
        assert {r.uid for r in removed.records} == {r.uid for r in victims}
        assert session.query("base", Stab(400.0)).records == []

    def test_prepared_run_through_session(self):
        engine, base = self.make_engine()
        session = engine.session()
        prepared = session.prepare("base", Stab(Param("x")))
        res = session.run(prepared, x=250.0)
        assert {iv.uid for iv in res.records} == {
            iv.uid for iv in base if Stab(250.0).matches(iv)
        }
        assert res.from_cache is not None


class TestLatchLifetime:
    """An index's structural latch lives exactly as long as the index."""

    def test_unknown_names_make_no_latch(self):
        engine = Engine(SimulatedDisk(16))
        engine.create_collection("base", random_intervals(50, seed=1))
        session = engine.session()
        for i in range(1000):
            with pytest.raises(KeyError, match=f"no index named 'nope{i}'"):
                session.query(f"nope{i}", Stab(1.0))
        with pytest.raises(KeyError):
            engine.insert("nope", Interval(1, 2))
        assert set(engine._latches) == {"base"}

    def test_create_drop_cycles_leave_one_latch_per_index(self):
        engine = Engine(SimulatedDisk(16))
        for _ in range(50):
            engine.create_collection("t", random_intervals(20, seed=2))
            assert set(engine._latches) == {"t"}
            engine.drop_index("t")
            assert engine._latches == {}
        with pytest.raises(KeyError):
            engine.drop_index("t")
        assert engine._latches == {}

    def test_a_reader_that_waited_through_a_drop_and_create_shares_the_new_latch(self, monkeypatch):
        engine = Engine(SimulatedDisk(16))
        engine.create_collection("t", random_intervals(20, seed=2))
        stale = engine._latches["t"]
        acquire_read = RWLock.acquire_read

        def remake():
            engine.drop_index("t")
            engine.create_collection("t", random_intervals(20, seed=5))

        def late(latch):
            if latch is stale:  # the index is dropped and made again meanwhile
                worker = threading.Thread(target=remake)
                worker.start()
                worker.join(timeout=30)
                assert not worker.is_alive()
            return acquire_read(latch)

        monkeypatch.setattr(RWLock, "acquire_read", late)
        with engine.read_turn("t"):
            assert engine._latches["t"] is not stale
            assert engine._latches["t"]._readers == 1
            assert stale._readers == 0

    def test_readers_beside_create_drop_cycles_see_an_index_or_none(self):
        engine = Engine(SimulatedDisk(16))
        records = random_intervals(200, seed=4)
        want = {r.uid for r in records if Stab(250.0).matches(r)}
        stop = threading.Event()
        seen, errors = [], []

        def reader():
            session = engine.session()
            while not stop.is_set():
                try:
                    seen.append({r.uid for r in session.query("t", Stab(250.0)).records})
                except KeyError:
                    seen.append(None)
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)
                    return

        # more readers than cores, switching often
        threads = [threading.Thread(target=reader) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for _ in range(30):
                engine.create_collection("t", records)
                engine.drop_index("t")
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(uids in (None, want) for uids in seen)
        assert engine._latches == {}


class TestCountsArePerThread:
    """``result.ios`` and ``measure()`` count the calling thread's pages only."""

    def test_two_threads_on_one_backend_each_read_their_own_ios(self):
        """Two threads, one backend, an index each: every ad-hoc result,
        prepared result and ``measure()`` scope reports the single-threaded
        count, however the interpreter interleaves them."""

        engine = Engine(SimulatedDisk(16))
        xs = [5.0 * i for i in range(1, 201)]
        expected, prepared = {}, {}
        for name, seed in (("a", 3), ("b", 4)):
            engine.create_collection(name, random_intervals(1500, seed=seed, mean_length=12.0))
            expected[name] = []
            for x in xs:
                alone = engine.query(name, Stab(x))
                alone.all()
                expected[name].append(alone.ios)
            prepared[name] = engine.prepare(name, Stab(Param("x")))
        wrong, barrier = [], threading.Barrier(2, timeout=10)

        def worker(name):
            try:
                barrier.wait()
                for x, ios in zip(xs, expected[name]):
                    adhoc = engine.query(name, Stab(x))
                    adhoc.all()
                    ran = prepared[name].run(x=x)
                    ran.all()
                    with engine.disk.measure() as m:
                        engine.query(name, Stab(x)).all()
                    got = (adhoc.ios, ran.ios, m.ios)
                    if got != (ios, ios, ios):
                        wrong.append((name, x, ios, got))
            except Exception as exc:  # noqa: BLE001
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            ts = [threading.Thread(target=worker, args=(n,)) for n in ("a", "b")]
            for t in ts:
                t.start()
            for t in ts:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in ts)
        assert wrong == [] and min(map(min, expected.values())) > 0

    def test_a_charge_never_calls_a_sink_and_a_scope_merges_once(self):
        """Each I/O is counted once: a backend charge never calls into a
        sink, a read's sink takes at most one merge per scope exit, and
        ``res.ios`` is still the reads the backend was charged."""
        from repro.io.counters import _Attribution

        engine = Engine(SimulatedDisk(16))
        engine.create_collection("base", random_intervals(4000, seed=3, mean_length=300.0))
        session = engine.session()
        prepared = session.prepare("base", Stab(Param("x")))
        backend = engine.io_stats()
        charged, merges, exits, inside = [], [], [], []
        depth = [0]
        real_count, real_exit = IOStats.count, _Attribution.__exit__

        def counting(self, **deltas):
            if depth[0]:
                inside.append(deltas)  # called from within another count
            if self is backend:
                charged.append(deltas)
            else:
                merges.append(self)
            depth[0] += 1
            try:
                real_count(self, **deltas)
            finally:
                depth[0] -= 1

        def exiting(scope, *exc):
            exits.append(scope._sink)
            return real_exit(scope, *exc)

        for read in (lambda: session.query("base", Stab(500.0)),
                     lambda: session.run(prepared, x=500.0)):
            for log in (charged, merges, exits, inside):
                del log[:]
            IOStats.count, _Attribution.__exit__ = counting, exiting
            try:
                res = read()
            finally:
                IOStats.count, _Attribution.__exit__ = real_count, real_exit
            assert res.ios >= 20 and sum(c.get("reads", 0) for c in charged) == res.ios
            assert len(charged) > 1 and inside == []
            # the result's counters: one scope, one merge for all its charges
            assert sum(s is res.stats for s in merges) == 1
            assert sum(s is res.stats for s in exits) == 1
            for sink in merges:
                if sink is not session.stats:  # the request's one fold
                    assert sum(m is sink for m in merges) <= sum(e is sink for e in exits)
            assert sum(m is session.stats for m in merges) == 1


class TestLockdepWitness:
    """The runtime lock-order witness: deliberate violations must fire."""

    def test_deliberate_out_of_order_acquisition_fires(self, witness):
        # thread-of-record order: A then B ...
        a = RWLock("latch:A")
        b = RWLock("latch:B")
        a.acquire_read()
        b.acquire_read()
        b.release_read()
        a.release_read()
        # ... and the reverse nesting closes the cycle: first occurrence
        # fails, even though no deadlock happened on *this* interleaving
        b.acquire_read()
        with pytest.raises(LockOrderError, match="cycle"):
            a.acquire_read()
        assert witness.violations

    def test_cross_thread_cycle_is_witnessed(self, witness):
        # the classic two-thread deadlock shape, run without overlap so it
        # cannot actually deadlock — the DAG still convicts it
        a = RWLock("latch:A")
        b = RWLock("latch:B")
        errors = []

        def forward():
            a.acquire_write()
            b.acquire_write()
            b.release_write()
            a.release_write()

        def backward():
            b.acquire_write()
            try:
                a.acquire_write()
            except LockOrderError as exc:
                errors.append(exc)
            else:
                a.release_write()
            b.release_write()

        t1 = threading.Thread(target=forward)
        t1.start()
        t1.join()
        t2 = threading.Thread(target=backward)
        t2.start()
        t2.join()
        assert len(errors) == 1

    def test_rank_inversion_fires(self):
        latch = RWLock("latch:X")
        mutex = WitnessedMutex("engine.write_mutex")
        latch.acquire_write()
        try:
            with pytest.raises(LockOrderError, match="rank inversion"):
                mutex.acquire()
        finally:
            latch.release_write()

    def test_latch_held_across_fsync_fires(self):
        latch = RWLock("latch:X", no_block=True)
        latch.acquire_read()
        try:
            with pytest.raises(BlockingUnderLockError):
                lockdep.notify_blocking("wal.sync_to")
        finally:
            latch.release_read()

    def test_allowed_scope_permits_barriers(self, witness):
        latch = RWLock("latch:X", no_block=True)
        latch.acquire_read()
        try:
            with lockdep.allowed("quiesced checkpoint"):
                lockdep.notify_blocking("backend.sync")
        finally:
            latch.release_read()
        assert witness.allowed_blocking_calls == 1
        assert witness.violations == []

    def test_reentrant_mutex_holds_do_not_self_cycle(self, witness):
        mutex = WitnessedMutex("engine.write_mutex")
        with mutex:
            with mutex:
                pass
        assert witness.violations == []

    def test_engine_commit_kernel_is_clean_and_witnessed(self, witness):
        engine = Engine(SimulatedDisk(16))
        engine.create_collection("t", random_intervals(50, seed=1))
        session = engine.session()
        session.insert("t", Interval(1.0, 5.0))
        session.query("t", Stab(2.0))
        session.delete_matching("t", Stab(2.0))
        assert ("engine.write_mutex", "latch:t") in witness.edges()
        assert witness.violations == []

    def test_witness_tolerates_unseen_releases(self, witness):
        # enabling mid-hold: a release for a lock the witness never saw
        # acquired must not poison the run
        witness.released("latch:never-acquired")
        assert witness.violations == []

    def test_nested_witness_enable_is_refused(self):
        with pytest.raises(RuntimeError, match="already enabled"):
            lockdep.enable(LockdepWitness())
