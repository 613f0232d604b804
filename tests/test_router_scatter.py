"""The router's scatter on a thread-mode cluster: legs overlap, a failed leg
leaves every pooled socket in step, and each leg is one traced span.

One thread scatters a request: it writes every shard's request before it
reads any reply.  So two shards that each take 100 ms answer together in
about 100 ms, not 200.  A leg that fails still lets every other leg be
read back before ``shard_unavailable`` is raised, so no pooled socket
goes back to its pool with a reply nobody read.
"""

import socket
import time

import pytest

from repro import Stab
from repro.cluster import Cluster
from repro.obs import tracer as obs_tracer
from repro.server import ReproClient, ServerError
from repro.server.core import SessionExecutor
from repro.workloads import random_intervals

SHARD_DELAY_S = 0.1


@pytest.fixture
def cluster():
    # hash sharding: every read is a broadcast to both shards
    with Cluster.create(None, shards=2, strategy="hash", mode="thread") as cluster:
        yield cluster


@pytest.fixture
def db(cluster):
    with ReproClient(*cluster.address) as db:
        db.create("c", records=[])
        db.stored = db.bulk_load("c", random_intervals(400, seed=3))
        yield db


def want(db, x):
    return {r.uid for r in db.stored if r.low <= x <= r.high}


def test_two_slow_shards_answer_side_by_side(db, monkeypatch):
    query = SessionExecutor.query

    def slow(self, index, q):
        time.sleep(SHARD_DELAY_S)
        return query(self, index, q)

    monkeypatch.setattr(SessionExecutor, "query", slow)
    db.query("c", Stab(10.0))  # both shards' pooled sockets are dialed
    times = []
    for x in (250.0, 500.0, 750.0):
        t0 = time.perf_counter()
        result = db.query("c", Stab(x))
        times.append(time.perf_counter() - t0)
        assert result.raw["shards_contacted"] == 2
        assert {r.uid for r in result} == want(db, x)
    # one leg after the other would take two delays
    assert min(times) < 1.6 * SHARD_DELAY_S, times


def test_a_closed_link_is_unavailable_and_the_next_request_succeeds(cluster, db):
    db.query("c", Stab(10.0))
    pooled = cluster.router._links[1]._idle
    assert pooled
    for client in pooled:
        client._sock.shutdown(socket.SHUT_RDWR)
    # the second leg cannot be sent; the first is read back all the same
    with pytest.raises(ServerError) as err:
        db.query("c", Stab(250.0))
    assert err.value.code == "shard_unavailable"
    assert_router_in_step(cluster, db)


def test_a_leg_that_times_out_leaves_the_other_legs_in_step(cluster, db, monkeypatch):
    query = SessionExecutor.query
    slow = [True]

    def maybe_slow(self, index, q):
        if slow[0]:
            time.sleep(SHARD_DELAY_S)
        return query(self, index, q)

    monkeypatch.setattr(SessionExecutor, "query", maybe_slow)
    db.query("c", Stab(10.0))
    for client in cluster.router._links[0]._idle:
        client._sock.settimeout(SHARD_DELAY_S / 10)
    # the first leg's reply is late; the second leg's must still be read
    with pytest.raises(ServerError) as err:
        db.query("c", Stab(250.0))
    assert err.value.code == "shard_unavailable"
    slow[0] = False
    assert_router_in_step(cluster, db)


def assert_router_in_step(cluster, db):
    """The same router answers again, and every pooled socket reads the
    reply to its own next request."""
    for x in (250.0, 500.0, 750.0):
        assert {r.uid for r in db.query("c", Stab(x))} == want(db, x)
    for link in cluster.router._links:
        for client in list(link._idle):
            assert client.call("ping")["pong"] is True


def test_a_traced_two_shard_read_has_one_span_per_leg(db):
    obs_tracer.enable()
    try:
        result = db.query("c", Stab(500.0))
        roots = [
            sp for sp in obs_tracer.TRACER.recent_roots(obs_tracer.Tracer.RING_CAPACITY)
            if sp.name == "router.request" and sp.attrs.get("cmd") == "query"
        ]
    finally:
        obs_tracer.disable()
    legs = [sp for sp in roots[-1].children if sp.name == "shard.call"]
    assert sorted(sp.attrs["shard"] for sp in legs) == [0, 1]
    assert {sp.attrs["route"] for sp in legs} == {"broadcast"}
    assert result.ios > 0
    assert sum(sp.attrs["ios"] for sp in legs) == result.ios


def test_legs_of_a_direct_router_call_are_siblings(cluster, db):
    """Called outside any span, the overlapping legs still share one parent."""
    obs_tracer.enable()
    try:
        with obs_tracer.TRACER.capture() as cap:
            cluster.router.query("c", Stab(500.0))
    finally:
        obs_tracer.disable()
    (root,) = cap.roots
    assert root.name == "router.scatter"
    assert sorted(sp.attrs["shard"] for sp in root.children) == [0, 1]
    assert all(sp.name == "shard.call" and not sp.children for sp in root.children)
