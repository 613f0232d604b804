"""The sharded serving subsystem: topology, router, frontend, lifecycle.

Thread-mode clusters (real loopback sockets, no subprocess boundary)
exercise the full scatter-gather wire path fast; one process-mode smoke
covers the production shape end to end.  Every routed answer is checked
against the brute-force oracle — a client must not be able to tell a
cluster from a single server, which is the tentpole invariant.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time

import pytest

from repro import Engine, Interval, Param, SimulatedDisk, Stab
from repro.cluster import Cluster, ShardMap, mix_uid
from repro.cluster.supervisor import ShardSupervisor
from repro.durability.wal import WriteAheadLog
from repro.engine.queries import And, EndpointRange, Limit, Not, Or, OrderBy, Range
from repro.server import ReproClient, ReproServer, ServerError, ShardUnavailableError
from repro.workloads import random_intervals


def oracle_uids(records, q):
    return {r.uid for r in records if q.matches(r)}


def shapes(records):
    """Identity-free comparison form: a sorted list of (low, high)."""
    return sorted((r.low, r.high) for r in records)


@pytest.fixture
def hash_cluster():
    with Cluster.create(None, shards=3, strategy="hash", mode="thread") as cluster:
        yield cluster


@pytest.fixture
def hash_db(hash_cluster):
    with ReproClient(*hash_cluster.address) as db:
        yield db


# --------------------------------------------------------------------------- #
# ShardMap: placement + pruning, pure data
# --------------------------------------------------------------------------- #
class TestShardMap:
    def test_even_splits_cover_the_domain(self):
        m = ShardMap.even_splits(4, domain=(0.0, 100.0))
        assert m.splits == [25.0, 50.0, 75.0]
        assert m.shard_for_point(-5) == 0          # edge slabs reach infinity
        assert m.shard_for_point(999) == 3

    def test_split_point_record_belongs_to_the_right_shard(self):
        m = ShardMap(2, "range", splits=[50.0])
        assert m.shard_for_point(49.999) == 0
        assert m.shard_for_point(50.0) == 1        # bisect_right: never ambiguous
        assert m.shard_for_record(Interval(50.0, 60.0)) == 1

    def test_hash_placement_is_deterministic_across_maps(self):
        records = random_intervals(50, seed=3)
        a = ShardMap(4, "hash")
        b = ShardMap(4, "hash")
        assert [a.shard_for_record(r) for r in records] == [
            b.shard_for_record(r) for r in records
        ]
        # splitmix64 is seed-free: a fixed uid always lands the same way
        assert mix_uid(12345) == mix_uid(12345)
        assert mix_uid(1) != mix_uid(2)

    def test_catalog_round_trip_preserves_topology(self):
        m = ShardMap(3, "range", splits=[10.0, 20.0], max_length=7.5)
        back = ShardMap.from_dict(m.as_dict())
        assert back.shards == 3 and back.strategy == "range"
        assert back.splits == [10.0, 20.0] and back.max_length == 7.5
        hashed = ShardMap.from_dict(ShardMap(2, "hash").as_dict())
        assert hashed.strategy == "hash" and hashed.splits == []

    def test_note_records_grows_the_pruning_window(self):
        m = ShardMap.even_splits(2, domain=(0.0, 100.0))
        assert m.note_records([Interval(0, 30)]) is True
        assert m.max_length == 30.0
        assert m.note_records([Interval(5, 10)]) is False   # no growth, no persist
        assert m.max_length == 30.0

    def test_stab_window_prunes_to_the_overlapping_slabs(self):
        m = ShardMap.even_splits(4, domain=(0.0, 100.0), max_length=10.0)
        # low endpoint of any match for Stab(30) lies in [20, 30]: slabs 0+1
        assert m.shards_for_query(Stab(30.0)) == [0, 1]
        assert m.shards_for_query(Stab(99.0)) == [3]
        assert m.shards_for_query(Range(40.0, 60.0)) == [1, 2]
        assert m.shards_for_query(EndpointRange("low", 26.0, 49.0)) == [1]

    def test_algebra_windows_compose(self):
        m = ShardMap.even_splits(4, domain=(0.0, 100.0), max_length=5.0)
        assert m.shards_for_query(And(Stab(10.0), Stab(90.0))) == []  # empty ∩
        both = m.shards_for_query(Or(Stab(10.0), Stab(90.0)))        # hull
        assert both[0] == 0 and both[-1] == 3
        assert m.shards_for_query(Limit(OrderBy(Stab(99.0)), 3)) == [3]
        assert m.shards_for_query(Not(Stab(10.0))) == [0, 1, 2, 3]   # broadcast
        assert m.shards_for_query(Stab(Param("x"))) == [0, 1, 2, 3]  # unbound

    def test_hash_and_single_shard_always_broadcast(self):
        assert ShardMap(3, "hash").shards_for_query(Stab(1.0)) == [0, 1, 2]
        one = ShardMap(1, "range", splits=[])
        assert one.shards_for_query(Stab(1.0)) == [0]

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ShardMap(0, "hash")
        with pytest.raises(ValueError):
            ShardMap(2, "zones")
        with pytest.raises(ValueError):
            ShardMap(2, "range")                      # needs splits
        with pytest.raises(ValueError):
            ShardMap(3, "range", splits=[1.0])        # wrong count
        with pytest.raises(ValueError):
            ShardMap(3, "range", splits=[2.0, 1.0])   # unsorted
        with pytest.raises(ValueError):
            ShardMap(2, "hash", splits=[1.0])


# --------------------------------------------------------------------------- #
# the router through the wire (thread-mode clusters)
# --------------------------------------------------------------------------- #
class TestClusterServing:
    def test_ping_reports_the_cluster_shape(self, hash_db):
        response = hash_db.ping()
        assert response["pong"]
        assert response["cluster"] == {"shards": 3, "strategy": "hash"}

    def test_single_shard_cluster_matches_a_plain_server(self):
        records = random_intervals(200, seed=11, mean_length=12.0)
        queries = [Stab(25.0), Range(10.0, 40.0), EndpointRange("high", 30.0, 80.0),
                   Limit(OrderBy(Stab(50.0)), 5)]
        engine = Engine(SimulatedDisk(16))
        with ReproServer(engine) as srv, ReproClient(*srv.address) as plain:
            plain.create("base", records=[])
            plain.bulk_load("base", records)
            plain_answers = [shapes(plain.query("base", q).records) for q in queries]
        with Cluster.create(None, shards=1, strategy="hash", mode="thread") as one:
            with ReproClient(*one.address) as db:
                db.create("base", records=[])
                db.bulk_load("base", records)
                for q, expected in zip(queries, plain_answers):
                    res = db.query("base", q)
                    assert shapes(res.records) == expected
                    assert res.raw["shards_contacted"] == 1

    def test_scattered_reads_match_the_oracle(self, hash_db):
        local = random_intervals(300, seed=4, mean_length=15.0)
        hash_db.create("base", records=[])
        stored = hash_db.bulk_load("base", local)
        assert len({r.uid for r in stored}) == len(stored)  # cluster-unique uids
        for q in (Stab(20.0), Stab(77.5), Range(30.0, 35.0),
                  EndpointRange("low", 10.0, 60.0), And(Stab(50.0), Stab(52.0))):
            res = hash_db.query("base", q)
            assert {r.uid for r in res.records} == oracle_uids(stored, q)
            assert res.raw["shards_contacted"] == 3      # hash reads broadcast

    def test_orderby_limit_merge_is_globally_ordered(self, hash_db):
        hash_db.create("base", records=[])
        stored = hash_db.bulk_load(
            "base", [Interval(float(i), float(i + 3)) for i in range(40)]
        )
        res = hash_db.query("base", Limit(OrderBy(Range(0.0, 100.0)), 6))
        lows = [r.low for r in res.records]
        assert lows == sorted(lows) and len(lows) == 6
        expected = sorted(r.low for r in stored)[:6]
        assert lows == expected                           # not per-shard prefixes

    def test_insert_and_delete_route_by_owner(self, hash_db):
        hash_db.create("base", records=[])
        stored = hash_db.insert("base", Interval(5.0, 9.0, payload="x"))
        assert oracle_uids([stored], Stab(6.0)) == {stored.uid}
        res = hash_db.query("base", Stab(6.0))
        assert {r.uid for r in res.records} == {stored.uid}
        removed = hash_db.delete("base", stored)
        assert removed["removed"] == 1
        assert hash_db.query("base", Stab(6.0)).count == 0

    def test_capped_delete_by_query_never_overdeletes(self, hash_db):
        hash_db.create("base", records=[])
        hash_db.bulk_load("base", [Interval(0.0, 10.0) for _ in range(12)])
        first = hash_db.delete("base", q=Stab(5.0), limit=5)
        assert first["removed"] == 5                      # across 3 shards
        rest = hash_db.delete("base", q=Stab(5.0), limit=100)
        assert rest["removed"] == 7
        assert hash_db.query("base", Stab(5.0)).count == 0

    def test_broadcast_union_dedupes_by_uid(self, hash_cluster, hash_db):
        hash_db.create("base", records=[])
        stored = hash_db.insert("base", Interval(1.0, 2.0))
        # plant the same identity on a *different* shard behind the router's
        # back (keep_uids is the shard-side trust the router relies on)
        owner = hash_cluster.shard_map.shard_for_record(stored)
        other = next(s for s in range(3) if s != owner)
        handle = hash_cluster.supervisor.handles[other]
        with ReproClient(handle.host, handle.port) as backdoor:
            backdoor.call(
                "insert", index="base",
                record={"kind": "interval", "low": 1.0, "high": 2.0,
                        "uid": stored.uid},
                keep_uids=True,
            )
        res = hash_db.query("base", Stab(1.5))
        assert [r.uid for r in res.records] == [stored.uid]   # once, not twice

    def test_explain_reports_the_scatter_plan(self, hash_db):
        hash_db.create("base", records=[Interval(0.0, 5.0)])
        plan = hash_db.explain("base", Stab(1.0))
        assert plan["shards"] == 3
        assert plan["describe"].startswith("cluster[3/3 shards]")

    def test_stats_aggregate_engines_and_namespace_sessions(self, hash_db):
        hash_db.create("base", records=[])
        hash_db.bulk_load("base", random_intervals(60, seed=2))
        hash_db.query("base", Stab(10.0))
        stats = hash_db.stats()
        engine = stats["engine"]
        assert engine["block_size"] == 16 and "base" in engine["indexes"]
        assert engine["blocks"] > 0 and engine["uid_horizon"] >= 0
        assert all(sid.startswith("s") and ":" in sid for sid in stats["sessions"])
        cluster = stats["cluster"]
        assert cluster["topology"]["shards"] == 3
        assert cluster["routing"]["reads"] >= 1
        assert cluster["routing"]["writes"] >= 1   # bulk_load (create is namespace)
        assert len(cluster["shards"]) == 3
        assert stats["session"]["requests"] >= 1

    def test_unknown_index_is_structured(self, hash_db):
        with pytest.raises(ServerError) as err:
            hash_db.query("ghost", Stab(1.0))
        assert err.value.code == "unknown_index"


class TestPreparedLeases:
    def test_prepare_bind_run_round_trip(self, hash_db):
        hash_db.create("base", records=[])
        stored = hash_db.bulk_load("base", random_intervals(100, seed=9))
        handle = hash_db.prepare("base", Stab(Param("x")))
        assert handle.params == ["x"]
        for x in (10.0, 55.0, 90.0):
            res = handle.run(x=x)
            assert {r.uid for r in res.records} == oracle_uids(stored, Stab(x))

    def test_bad_params_are_bad_request(self, hash_db):
        hash_db.create("base", records=[])
        handle = hash_db.prepare("base", Stab(Param("x")))
        with pytest.raises(ServerError) as err:
            handle.run(y=1.0)                    # wrong name: strict binding
        assert err.value.code == "bad_request"

    def test_prepare_against_a_missing_index(self, hash_db):
        with pytest.raises(ServerError) as err:
            hash_db.prepare("ghost", Stab(Param("x")))
        assert err.value.code == "unknown_index"

    def test_run_after_drop_is_stale(self, hash_db):
        hash_db.create("base", records=[])
        handle = hash_db.prepare("base", Stab(Param("x")))
        hash_db.drop("base")
        with pytest.raises(ServerError) as err:
            handle.run(x=1.0)
        assert err.value.code == "stale_handle"

    def test_unknown_handle_is_stale(self, hash_db):
        with pytest.raises(ServerError) as err:
            hash_db.run(999, x=1.0)
        assert err.value.code == "stale_handle"


# --------------------------------------------------------------------------- #
# range partitioning: boundaries, pruning, empty shards
# --------------------------------------------------------------------------- #
class TestRangeCluster:
    def test_split_point_records_answer_exactly_once(self):
        with Cluster.create(None, shards=4, strategy="range",
                            domain=(0.0, 100.0), mode="thread") as cluster:
            with ReproClient(*cluster.address) as db:
                db.create("base", records=[])
                # one record exactly on every split point
                splits = cluster.shard_map.splits
                stored = db.bulk_load(
                    "base", [Interval(s, s + 4.0) for s in splits]
                )
                for s in splits:
                    res = db.query("base", Stab(s + 0.5))
                    matches = oracle_uids(stored, Stab(s + 0.5))
                    assert {r.uid for r in res.records} == matches

    def test_pruned_stabs_contact_few_shards_and_stay_exact(self):
        with Cluster.create(None, shards=4, strategy="range",
                            domain=(0.0, 100.0), mode="thread") as cluster:
            with ReproClient(*cluster.address) as db:
                db.create("base", records=[])
                # lengths below one slab width keep the candidate window small
                local = [Interval(low, low + (i % 10)) for i, low in
                         enumerate(x * 0.7 for x in range(140))]
                stored = db.bulk_load("base", local)
                for x in (5.0, 33.3, 61.0, 97.0):
                    res = db.query("base", Stab(x))
                    assert {r.uid for r in res.records} == oracle_uids(stored, Stab(x))
                    assert res.raw["shards_contacted"] <= 2

    def test_contradictory_window_contacts_no_shard(self):
        with Cluster.create(None, shards=4, strategy="range",
                            domain=(0.0, 100.0), mode="thread") as cluster:
            with ReproClient(*cluster.address) as db:
                db.create("base", records=[Interval(1.0, 2.0)])
                res = db.query("base", And(Stab(10.0), Stab(90.0)))
                assert res.count == 0 and res.raw["shards_contacted"] == 0
                assert res.ios == 0 and res.bound == 0

    def test_empty_shards_are_harmless(self):
        with Cluster.create(None, shards=4, strategy="range",
                            domain=(0.0, 100.0), mode="thread") as cluster:
            with ReproClient(*cluster.address) as db:
                db.create("base", records=[])
                # everything lives in slab 0; shards 1-3 hold the index, empty
                stored = db.bulk_load(
                    "base", [Interval(float(i), i + 2.0) for i in range(10)]
                )
                res = db.query("base", Range(0.0, 100.0))
                assert {r.uid for r in res.records} == {r.uid for r in stored}
                assert db.stats()["engine"]["indexes"] == ["base"]

    def test_endpoint_range_low_side_needs_no_reach(self):
        with Cluster.create(None, shards=4, strategy="range",
                            domain=(0.0, 100.0), mode="thread") as cluster:
            with ReproClient(*cluster.address) as db:
                db.create("base", records=[])
                stored = db.bulk_load("base", [Interval(float(i), i + 50.0)
                                               for i in range(0, 100, 5)])
                q = EndpointRange("low", 30.0, 45.0)
                res = db.query("base", q)
                assert {r.uid for r in res.records} == oracle_uids(stored, q)
                # the low-side window is [30, 45] regardless of max_length
                assert res.raw["shards_contacted"] <= 2


# --------------------------------------------------------------------------- #
# failure + lifecycle
# --------------------------------------------------------------------------- #
class TestClusterLifecycle:
    def test_dead_shard_surfaces_shard_unavailable(self):
        with Cluster.create(None, shards=2, strategy="hash",
                            mode="thread") as cluster:
            with ReproClient(*cluster.address) as db:
                db.create("base", records=[])
                db.bulk_load("base", random_intervals(40, seed=1))
                # crash injector: stop the shard *and* sever the pooled
                # sockets (a closed listener alone keeps accepted
                # connections serving)
                cluster.supervisor.handles[1].server.close()
                cluster.router._links[1].close()
                with pytest.raises(ServerError) as err:
                    db.query("base", Stab(10.0))               # broadcast hits it
                assert err.value.code == "shard_unavailable"
                assert "shard 1" in str(err.value)

    def test_reopen_restores_topology_data_and_identity(self, tmp_path):
        directory = str(tmp_path / "cluster")
        with Cluster.create(directory, shards=2, strategy="range",
                            domain=(0.0, 100.0), mode="thread") as cluster:
            with ReproClient(*cluster.address) as db:
                db.create("base", records=[])
                stored = db.bulk_load("base", [Interval(10.0, 15.0),
                                               Interval(60.0, 62.0)])
                # grow the pruning window past the persisted default
                long = db.insert("base", Interval(5.0, 45.0))
        reopened = Cluster.open(directory, mode="thread")
        assert reopened.shard_map.strategy == "range"
        assert reopened.shard_map.splits == [50.0]
        assert reopened.shard_map.max_length == 40.0           # survived
        with reopened:
            with ReproClient(*reopened.address) as db:
                res = db.query("base", Stab(12.0))
                assert {r.uid for r in res.records} == {stored[0].uid, long.uid}
                fresh = db.insert("base", Interval(1.0, 2.0))
                old = {r.uid for r in stored} | {long.uid}
                assert fresh.uid not in old                    # never re-minted

    def test_open_rejects_unknown_topology_format(self, tmp_path):
        directory = tmp_path / "cluster"
        directory.mkdir()
        (directory / "cluster.json").write_text(
            '{"format": 99, "shards": 2, "strategy": "hash"}'
        )
        with pytest.raises(ValueError):
            Cluster.open(str(directory))

    def test_process_mode_smoke(self, tmp_path, spawn_repro):
        proc, host, port = spawn_repro(
            "cluster", "serve", "--port", "0", "--shards", "2",
            "--strategy", "hash", "--dir", str(tmp_path / "c"))
        try:
            with ReproClient(host, port) as db:
                assert db.ping()["cluster"]["shards"] == 2
                db.create("base", records=[])
                stored = db.bulk_load("base", random_intervals(50, seed=6))
                res = db.query("base", Stab(20.0))
                assert {r.uid for r in res.records} == oracle_uids(stored, Stab(20.0))
                assert db.shutdown().get("stopping")
            assert proc.wait(timeout=60.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_sigterm_drains_every_shard_and_exits_zero(self, tmp_path, spawn_repro):
        """``kill <pid>`` on ``repro cluster serve`` drains: exit 0, every
        shard's WAL folded into its checkpoint and truncated, nothing lost."""
        directory = tmp_path / "c"
        proc, host, port = spawn_repro(
            "cluster", "serve", "--port", "0", "--shards", "2", "--dir", str(directory))
        with ReproClient(host, port) as db:
            db.create("base", records=[])
            stored = db.bulk_load("base", random_intervals(200, seed=6))
            before = {r.uid for r in db.query("base", Stab(20.0)).records}
        wals = [directory / f"shard-{i}" / "shard.pages.wal" for i in range(2)]
        assert before == oracle_uids(stored, Stab(20.0)) != set()
        assert all(wal.stat().st_size > 0 for wal in wals)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60.0) == 0
        assert [wal.stat().st_size for wal in wals] == [0, 0]
        with Cluster.open(str(directory), mode="thread") as reopened:
            with ReproClient(*reopened.address) as db:
                assert {r.uid for r in db.query("base", Stab(20.0)).records} == before

    @pytest.mark.parametrize("shards,bad", [(2, 1), (4, 0)])
    @pytest.mark.parametrize("mode", ["process", "thread"])
    def test_failed_start_stops_the_shards_it_booted(self, tmp_path, monkeypatch,
                                                     mode, shards, bad):
        """One shard cannot boot (a page file with no sidecar is not a
        database and is never truncated): every shard spawned beside it must
        not outlive the failed ``start()``, and the error is the bad shard's
        own.  In process mode all the children are spawned before any is
        waited for, so when shard 0 fails, shards 1-3 are already running."""
        directory = tmp_path / "c"
        (directory / f"shard-{bad}").mkdir(parents=True)
        (directory / f"shard-{bad}" / "shard.pages").write_bytes(b"not a database")
        spawned = []
        kill = ShardSupervisor.kill

        def counting_kill(supervisor):
            spawned.append(sum(h.proc is not None for h in supervisor.handles))
            kill(supervisor)

        monkeypatch.setattr(ShardSupervisor, "kill", counting_kill)
        threads = set(threading.enumerate())
        cluster = Cluster.create(str(directory), shards=shards, mode=mode)
        with pytest.raises((ShardUnavailableError, ValueError),
                           match="refusing to truncate non-empty page file") as err:
            cluster.start()
        orphans = _serve_children()
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)
        assert orphans == []
        assert [t for t in set(threading.enumerate()) - threads if t.is_alive()] == []
        assert cluster.supervisor is None and cluster.frontend is None
        if mode == "process":
            assert f"shard {bad} failed to start (exit 1)" in str(err.value)
            assert spawned == [shards]

    def test_a_reopened_process_cluster_boots_in_parallel_and_answers_as_before(
        self, tmp_path, monkeypatch
    ):
        directory = str(tmp_path / "c")
        queries = [Stab(5.0), Stab(250.0), Stab(610.0), Stab(999.0),
                   EndpointRange("low", 100.0, 400.0), Range(300.0, 320.0)]
        with Cluster.create(directory, shards=4, strategy="range",
                            domain=(0.0, 1000.0)) as cluster:
            with ReproClient(*cluster.address) as db:
                db.create("base", records=[])
                stored = db.bulk_load("base", random_intervals(300, seed=11))
                before = [{r.uid for r in db.query("base", q).records} for q in queries]
        assert before == [oracle_uids(stored, q) for q in queries]
        assert any(before)

        spawned, awaited = [], []
        spawn, wait = ShardSupervisor._spawn_process_shard, ShardSupervisor._await_address

        def logged_spawn(supervisor, handle):
            spawned.append(handle.shard)
            return spawn(supervisor, handle)

        def logged_wait(supervisor, handle, deadline):
            awaited.append(len(spawned))
            return wait(supervisor, handle, deadline)

        monkeypatch.setattr(ShardSupervisor, "_spawn_process_shard", logged_spawn)
        monkeypatch.setattr(ShardSupervisor, "_await_address", logged_wait)
        with Cluster.open(directory) as reopened:
            assert spawned == [0, 1, 2, 3]
            assert awaited == [4, 4, 4, 4]  # every child spawned before any is awaited
            with ReproClient(*reopened.address) as db:
                assert [{r.uid for r in db.query("base", q).records} for q in queries] == before
        assert _serve_children() == []


def _serve_children():
    """Pids of this process's children that are running ``repro serve``."""
    me, found = str(os.getpid()), []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                ppid = fh.read().rsplit(")", 1)[1].split()[1]
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                argv = fh.read().split(b"\0")
        except OSError:      # raced with an exit
            continue
        if ppid == me and b"repro" in argv and b"serve" in argv:
            found.append(int(pid))
    return found


# --------------------------------------------------------------------------- #
# the satellites: client backoff, shard-side keep_uids, simulated log device
# --------------------------------------------------------------------------- #
class TestClientConnectRetry:
    def test_zero_retries_fails_fast(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()                                  # nobody listens here
        start = time.perf_counter()
        with pytest.raises(OSError):
            ReproClient("127.0.0.1", port, connect_retries=0)
        assert time.perf_counter() - start < 1.0

    def test_backoff_rides_out_a_late_server(self):
        holder = socket.socket()
        holder.bind(("127.0.0.1", 0))
        port = holder.getsockname()[1]
        holder.close()

        engine = Engine(SimulatedDisk(16))
        server_box = {}

        def late_start():
            time.sleep(0.2)
            server_box["srv"] = ReproServer(
                engine, host="127.0.0.1", port=port
            ).start()

        thread = threading.Thread(target=late_start, daemon=True)
        thread.start()
        try:
            with ReproClient("127.0.0.1", port, connect_retries=8,
                             retry_base=0.05) as db:
                assert db.ping()["pong"]
        finally:
            thread.join()
            server_box["srv"].close()


class TestShardSideKeepUids:
    def test_plain_server_honours_wire_uids_only_when_asked(self):
        engine = Engine(SimulatedDisk(16))
        with ReproServer(engine) as srv, ReproClient(*srv.address) as db:
            db.create("base", records=[])
            wire = {"kind": "interval", "low": 1.0, "high": 2.0, "uid": 424242}
            kept = db.call("insert", index="base", record=dict(wire),
                           keep_uids=True)
            assert kept["record"][3] == 424242          # rows: [low, high, payload, uid]
            minted = db.call("insert", index="base", record=dict(wire))
            assert minted["record"][3] != 424242        # default: server mints


class TestSimulatedCommitLatency:
    def test_default_wal_still_group_commits(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "w.wal"), fsync=False)
        last = [wal.append(i, ("insert", "base", {"i": i})) for i in range(4)][-1]
        assert wal.sync_to(last) is True
        assert wal.sync_to(last - 1) is False               # absorbed
        assert wal.group_absorbed == 1
        wal.close()
