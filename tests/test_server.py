"""The serving subsystem end to end: protocol, server, client, driver.

An in-process :class:`ReproServer` (background thread) is driven through
real sockets by :class:`ReproClient` — the full wire path, minus the
subprocess boundary the benchmark adds.  Covers the whole command
surface, oracle-equivalence under concurrent clients, prepared-handle
leases and their invalidation semantics, structured errors, per-session
stats and graceful shutdown.
"""

from __future__ import annotations

import os
import signal
import socket
import threading

import pytest

from repro import Engine, Interval, Param, SimulatedDisk, Stab
from repro.engine.queries import EndpointRange, Range
from repro.server import (
    PROTOCOL_VERSION,
    ProtocolError,
    ReproClient,
    ReproServer,
    ServerError,
    decode_message,
    encode_message,
    record_from_dict,
    record_to_dict,
)
from repro.workloads import random_intervals


@pytest.fixture
def server():
    engine = Engine(SimulatedDisk(16))
    with ReproServer(engine) as srv:
        yield srv


@pytest.fixture
def client(server):
    with ReproClient(*server.address) as db:
        yield db


def make_base(client, n=400, seed=7):
    local = random_intervals(n, seed=seed, mean_length=15.0)
    client.create("base", records=[])
    return client.bulk_load("base", local)


class TestProtocolCodecs:
    def test_message_framing_round_trip(self):
        msg = {"id": 3, "cmd": "query", "index": "x"}
        assert decode_message(encode_message(msg)) == msg

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_message(b"not json\n")
        with pytest.raises(ProtocolError):
            decode_message(b"[1, 2]\n")

    def test_record_round_trip_preserves_identity(self):
        iv = Interval(1.5, 9.0, payload={"k": "v"})
        back = record_from_dict(record_to_dict(iv))
        assert back == iv and back.uid == iv.uid and back.payload == iv.payload

    def test_record_fresh_uid_mints_new_identity(self):
        iv = Interval(1.0, 2.0)
        fresh = record_from_dict(record_to_dict(iv), fresh_uid=True)
        assert fresh.uid != iv.uid
        assert (fresh.low, fresh.high) == (iv.low, iv.high)


class TestServerCommands:
    def test_ping(self, client):
        response = client.ping()
        assert response["pong"] and response["version"] == PROTOCOL_VERSION == 2

    def test_query_matches_oracle_with_accounting(self, client):
        base = make_base(client)
        q = Stab(321.0)
        res = client.query("base", q)
        assert {r.uid for r in res.records} == {
            r.uid for r in base if q.matches(r)
        }
        assert res.ios > 0 and res.bound is not None
        assert res.stats["total"] == res.ios

    def test_composed_query_over_the_wire(self, client):
        base = make_base(client)
        q = (Stab(300.0) | Stab(700.0)) & ~EndpointRange("low", 0, 250.0)
        res = client.query("base", q)
        assert {r.uid for r in res.records} == {
            r.uid for r in base if q.matches(r)
        }

    def test_insert_returns_authoritative_record(self, client):
        make_base(client, n=10)
        stored = client.insert("base", Interval(2000.0, 2001.0, payload="x"))
        hit = client.query("base", Stab(2000.5))
        assert [r.uid for r in hit.records] == [stored.uid]
        assert client.delete("base", stored)["removed"] == 1
        assert client.query("base", Stab(2000.5)).records == []

    def test_delete_by_query_selector(self, client):
        base = make_base(client)
        q = Range(100.0, 140.0)
        expected = {r.uid for r in base if q.matches(r)}
        response = client.delete("base", q=q)
        assert response["removed"] == len(expected)
        assert client.query("base", q).records == []

    def test_bulk_load_and_explain(self, client):
        client.create("ivs", records=[])
        stored = client.bulk_load("ivs", [Interval(i, i + 2) for i in range(40)])
        assert len(stored) == 40
        plan = client.explain("ivs", Stab(5.0))
        assert plan["kind"] == "index"
        assert plan["predicted"] > 0
        assert "Index(" in plan["describe"]

    def test_stats_reports_session_and_global(self, client):
        make_base(client, n=50)
        client.query("base", Stab(1.0))
        stats = client.stats()
        assert stats["session"]["requests"] >= 3
        assert stats["engine"]["blocks"] > 0
        assert str(stats["session"]["id"]) in stats["sessions"]

    def test_unknown_index_is_structured(self, client):
        with pytest.raises(ServerError) as info:
            client.query("nope", Stab(1.0))
        assert info.value.code == "unknown_index"

    def test_unknown_command_and_malformed_query(self, server):
        with ReproClient(*server.address) as db:
            with pytest.raises(ValueError):
                db.call("frobnicate")
        # a raw socket can still send garbage; the server answers, structured
        with socket.create_connection(server.address, timeout=10) as raw:
            raw.sendall(b'{"id": 1, "cmd": "frobnicate"}\n')
            response = decode_message(raw.makefile("rb").readline())
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"

    def test_duplicate_insert_is_conflict(self, client):
        make_base(client, n=5)
        stored = client.insert("base", Interval(1.0, 2.0))
        # deleting twice: second is a no-op, not an error
        assert client.delete("base", stored)["removed"] == 1
        assert client.delete("base", stored)["removed"] == 0


class TestPreparedHandles:
    def test_prepare_run_with_params(self, client):
        base = make_base(client)
        handle = client.prepare("base", Stab(Param("x")))
        assert handle.params == ["x"]
        for x in (100.0, 500.0, 900.0):
            res = handle.run(x=x)
            assert {r.uid for r in res.records} == {
                r.uid for r in base if Stab(x).matches(r)
            }
        assert res.from_cache is True

    def test_bad_binding_is_bad_request_not_stale(self, client):
        make_base(client, n=20)
        handle = client.prepare("base", Stab(Param("x")))
        with pytest.raises(ServerError) as info:
            handle.run(y=1.0)
        assert info.value.code == "bad_request"
        # and the lease is still alive afterwards
        assert handle.run(x=1.0).records is not None

    def test_unknown_handle_is_stale(self, client):
        make_base(client, n=20)
        with pytest.raises(ServerError) as info:
            client.run(999, x=1.0)
        assert info.value.code == "stale_handle"

    def test_handles_are_leased_per_connection(self, server, client):
        make_base(client, n=20)
        handle = client.prepare("base", Stab(Param("x")))
        with ReproClient(*server.address) as other:
            with pytest.raises(ServerError) as info:
                other.run(handle.handle, x=1.0)
            assert info.value.code == "stale_handle"

    def test_write_invalidation_replans_transparently(self, client):
        base = make_base(client)
        handle = client.prepare("base", Stab(Param("x")))
        assert handle.run(x=500.0).from_cache is True
        client.bulk_load("base", [Interval(495.0, 505.0, payload="fresh")])
        res = handle.run(x=500.0)
        assert res.from_cache is False  # generation bump forced a re-plan
        assert any(r.payload == "fresh" for r in res.records)

    def test_dropped_index_surfaces_stale_handle(self, client):
        make_base(client, n=20)
        handle = client.prepare("base", Stab(Param("x")))
        client.drop("base")
        with pytest.raises(ServerError) as info:
            handle.run(x=1.0)
        assert info.value.code == "stale_handle"
        # the connection survives the structured failure
        assert client.ping()["pong"]

    def test_recreated_index_also_invalidates(self, client):
        make_base(client, n=20)
        handle = client.prepare("base", Stab(Param("x")))
        client.drop("base")
        client.create("base", records=[Interval(0.0, 1.0)])
        with pytest.raises(ServerError) as info:
            handle.run(x=0.5)
        assert info.value.code == "stale_handle"


class TestConcurrentClients:
    def test_many_clients_oracle_equivalent(self, server):
        with ReproClient(*server.address) as setup:
            base = make_base(setup, n=800)
        errors = []

        def reader(tid):
            try:
                with ReproClient(*server.address) as db:
                    handle = db.prepare("base", Stab(Param("x")))
                    for i in range(15):
                        x = 50.0 * tid + i * 3
                        res = handle.run(x=x)
                        got = {r.uid for r in res.records}
                        want = {r.uid for r in base if Stab(x).matches(r)}
                        assert got == want, f"tid={tid} x={x}"
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def writer(tid):
            try:
                with ReproClient(*server.address) as db:
                    for i in range(8):
                        stored = db.insert(
                            "base", Interval(5000 + tid, 5001 + tid))
                        res = db.query("base", Stab(5000.5 + tid))
                        assert any(r.uid == stored.uid for r in res.records)
                        assert db.delete("base", stored)["removed"] == 1
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        ts = [threading.Thread(target=reader, args=(t,)) for t in range(4)]
        ts += [threading.Thread(target=writer, args=(t,)) for t in range(2)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert errors == []

    def test_per_request_bounds_hold_under_concurrency(self, server):
        from repro.engine.planner import BOUND_SLACK, BOUND_SLACK_PAGES

        with ReproClient(*server.address) as setup:
            make_base(setup, n=1000)
        violations = []

        def reader(tid):
            with ReproClient(*server.address) as db:
                for i in range(20):
                    res = db.query("base", Stab(40.0 * tid + i))
                    if res.bound is not None and (
                        res.ios > BOUND_SLACK * res.bound + BOUND_SLACK_PAGES
                    ):
                        violations.append((tid, i, res.ios, res.bound))

        ts = [threading.Thread(target=reader, args=(t,)) for t in range(4)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert violations == []


class TestLifecycle:
    def test_graceful_shutdown_over_the_wire(self):
        engine = Engine(SimulatedDisk(16))
        server = ReproServer(engine).start()
        with ReproClient(*server.address) as db:
            assert db.shutdown()["stopping"] is True
        server._thread.join(timeout=5)
        assert not server._thread.is_alive()
        server.close()

    def test_close_engine_ownership(self):
        engine = Engine(SimulatedDisk(16))
        server = ReproServer(engine, close_engine=True).start()
        server.close()
        # closing again is a no-op; the engine survived (memory backend)
        server.close()

    def test_sigterm_drains_checkpoints_and_exits_zero(self, spawn_repro, tmp_path):
        """``kill <pid>`` on ``repro serve --db`` is a clean shutdown: exit 0,
        the WAL folded into a checkpoint and truncated, nothing lost."""
        db_path = str(tmp_path / "app.pages")
        proc, host, port = spawn_repro("serve", "--port", "0", "--db", db_path)
        with ReproClient(host, port) as db:
            make_base(db)
            before = {r.uid for r in db.query("base", Stab(500.0)).records}
        assert before and os.path.getsize(db_path + ".wal") > 0
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        assert os.path.getsize(db_path + ".wal") == 0
        with Engine.open(db_path) as engine:
            after = {r.uid for r in engine.query("base", Stab(500.0)).all()}
        assert after == before
