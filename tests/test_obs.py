"""The observability subsystem: tracer, metrics, slow-query log, wire export.

Covers the span/IO composition invariants (a parent span's I/O covers its
children's, and the request root's annotations reproduce the paper-bound
residual the test suite gates), exactness of the always-on metrics under
an 8-thread hammer, the slow-query log's threshold/file behaviour, and
the ``metrics`` wire command on both a single server and a thread-mode
cluster — the runtime twin of the wire-exhaustiveness checks.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import Engine, Param, SimulatedDisk, Stab
from repro.cluster import Cluster
from repro.engine.planner import BOUND_SLACK, BOUND_SLACK_PAGES
from repro.io import FileDisk
from repro.obs import REGISTRY, SLOWLOG, TRACER, render_span_tree
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs_tracer
from repro.server import ReproClient, ReproServer, ServerError
from repro.workloads import random_intervals


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with tracing off and fresh registries."""
    obs_tracer.disable()
    obs_tracer.BYPASS = False
    REGISTRY.reset()
    SLOWLOG.configure(threshold_ms=None, path=None)
    SLOWLOG.reset()
    yield
    obs_tracer.disable()
    obs_tracer.BYPASS = False
    REGISTRY.reset()
    SLOWLOG.configure(threshold_ms=None, path=None)
    SLOWLOG.reset()


def make_session(n=800, dynamic=True):
    engine = Engine(SimulatedDisk(16))
    session = engine.session()
    session.create_collection(
        "c", random_intervals(n, seed=3, mean_length=20.0), dynamic=dynamic
    )
    return engine, session


# --------------------------------------------------------------------------- #
# tracer core
# --------------------------------------------------------------------------- #
class TestTracerCore:
    def test_disabled_span_is_the_shared_noop(self):
        sp = obs_tracer.span("anything", foo=1)
        assert sp is obs_tracer.span("other")           # one shared object
        assert isinstance(sp, obs_tracer.NullSpan)
        with sp:
            sp.annotate(bar=2)                           # all no-ops
        assert sp.ios == 0
        assert obs_tracer.current_span() is None

    def test_bypass_wins_even_when_enabled(self):
        obs_tracer.enable()
        obs_tracer.BYPASS = True
        assert isinstance(obs_tracer.span("x"), obs_tracer.NullSpan)

    def test_enabled_spans_nest_and_capture(self):
        obs_tracer.enable()
        with TRACER.capture() as cap:
            with obs_tracer.span("root", kind="test") as root:
                assert obs_tracer.current_span() is root
                with obs_tracer.span("child") as child:
                    assert obs_tracer.current_span() is child
                with obs_tracer.span("sibling"):
                    pass
        assert [sp.name for sp in cap.roots] == ["root"]
        assert [c.name for c in cap.roots[0].children] == ["child", "sibling"]
        assert cap.roots[0].attrs == {"kind": "test"}
        assert obs_tracer.current_span() is None

    def test_out_of_order_exit_keeps_sibling_nesting(self):
        # a span closed late (abandoned generator) must not corrupt the
        # stack around it: identity-based removal, not pop()
        obs_tracer.enable()
        with TRACER.capture() as cap:
            outer = obs_tracer.span("outer").__enter__()
            stray = obs_tracer.span("stray").__enter__()
            late = obs_tracer.span("late").__enter__()
            stray.__exit__(None, None, None)     # closes out of order
            assert obs_tracer.current_span() is late
            late.__exit__(None, None, None)
            outer.__exit__(None, None, None)
        (root,) = cap.roots
        # parenting is fixed at creation: "late" opened under "stray"
        (stray_sp,) = root.children
        assert stray_sp.name == "stray"
        assert [c.name for c in stray_sp.children] == ["late"]

    def test_double_exit_is_idempotent(self):
        obs_tracer.enable()
        with TRACER.capture() as cap:
            sp = obs_tracer.span("once").__enter__()
            sp.__exit__(None, None, None)
            sp.__exit__(None, None, None)
        assert len(cap.roots) == 1

    def test_ring_keeps_recent_roots_when_nobody_captures(self):
        obs_tracer.enable()
        before = TRACER.stats_dict()["roots_finished"]
        with obs_tracer.span("ringed"):
            pass
        stats = TRACER.stats_dict()
        assert stats["roots_finished"] == before + 1
        assert any(sp.name == "ringed" for sp in TRACER.recent_roots())

    def test_render_span_tree_format(self):
        obs_tracer.enable()
        with TRACER.capture() as cap:
            with obs_tracer.span("parent", op="q"):
                with obs_tracer.span("leaf"):
                    pass
        lines = render_span_tree(cap.roots[0])
        assert len(lines) == 2
        assert lines[0].startswith("parent") and "ios=0" in lines[0]
        assert "[op='q']" in lines[0]
        assert lines[1].startswith("  leaf")


# --------------------------------------------------------------------------- #
# session/request tracing: the composition + residual invariants
# --------------------------------------------------------------------------- #
class TestRequestTracing:
    def test_query_span_tree_composes_and_residual_matches_bound(self):
        engine, session = make_session(dynamic=False)
        obs_tracer.enable()
        with TRACER.capture() as cap:
            result = session.query("c", Stab(500.0))
        (root,) = cap.roots
        assert root.name == "session.request"
        assert root.attrs["op"] == "query"
        # annotations: actual I/Os, the paper bound, and their difference
        assert root.attrs["ios"] == result.stats.total == root.io.total
        assert root.attrs["bound"] == result.bound
        assert root.attrs["residual"] == result.stats.total - result.bound
        # the BOUND_SLACK gate, in trace form
        assert result.stats.total <= BOUND_SLACK * result.bound + BOUND_SLACK_PAGES
        # the tree composes: all request I/O happened inside the read turn
        (turn,) = root.children
        assert turn.name == "engine.read_turn"
        assert turn.io.total == root.io.total
        assert sum(child.io.total for child in root.children) == result.stats.total

    def test_prepared_run_uses_the_fast_path_span_shape(self):
        engine, session = make_session(dynamic=False)
        prepared = session.prepare("c", Stab(Param("x")))
        session.run(prepared, x=500.0)            # prime untraced
        obs_tracer.enable()
        with TRACER.capture() as cap:
            result = session.run(prepared, x=500.0)
        (root,) = cap.roots
        assert root.attrs["op"] == "run"
        (turn,) = root.children
        names = [c.name for c in turn.children]
        # the prepared path never re-plans: no planner.plan span
        assert "planner.plan" not in names
        assert "plan.execute" in names
        assert root.io.total == result.stats.total

    def test_adhoc_query_shows_planner_spans_with_cache_attrs(self):
        engine, session = make_session(dynamic=False)
        obs_tracer.enable()
        with TRACER.capture() as cap:
            session.query("c", Stab(100.0))       # cold: miss + enumerate
            session.query("c", Stab(900.0))       # same shape: cache hit
        cold, warm = cap.roots
        cold_plan = [c for c in cold.children[0].children
                     if c.name == "planner.plan"]
        warm_plan = [c for c in warm.children[0].children
                     if c.name == "planner.plan"]
        assert cold_plan and warm_plan
        assert cold_plan[0].attrs["cache_hit"] is False
        assert [c.name for c in cold_plan[0].children] == ["planner.enumerate"]
        assert warm_plan[0].attrs["cache_hit"] is True
        assert warm_plan[0].children == []

    def test_write_commit_kernel_spans(self, tmp_path):
        engine = Engine(FileDisk(str(tmp_path / "t.pages"), block_size=16))
        engine.attach_wal()
        session = engine.session()
        session.create_collection("c", dynamic=True)
        obs_tracer.enable()
        from repro.interval import Interval
        with TRACER.capture() as cap:
            session.insert("c", Interval(1.0, 2.0))
        engine.close()
        (root,) = cap.roots
        assert root.attrs["op"] == "insert"
        names = [c.name for c in root.children]
        # the commit protocol, in span form and in order
        assert names == ["commit.apply", "wal.append", "wal.sync",
                         "epoch.publish"]
        sync = root.children[2]
        assert sync.io.fsyncs >= 1                 # the durability barrier
        assert "lsn" in sync.attrs

    def test_limit_abandoned_residual_scan_leaves_tree_intact(self):
        engine, session = make_session(dynamic=False)
        obs_tracer.enable()
        q = (Stab(500.0) & Stab(500.0)).limit(1)   # forces a residual filter
        with TRACER.capture() as cap:
            result = session.query("c", q)
        assert len(result.records) <= 1
        (root,) = cap.roots
        assert root.name == "session.request"      # nesting survived

    def test_span_as_dict_round_trips_to_json(self):
        engine, session = make_session(dynamic=False)
        obs_tracer.enable()
        with TRACER.capture() as cap:
            session.query("c", Stab(500.0))
        data = json.loads(json.dumps(cap.roots[0].as_dict()))
        assert data["name"] == "session.request"
        assert data["children"][0]["name"] == "engine.read_turn"
        assert data["ios"] == data["io"]["total"]


# --------------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_gauge_roundtrip(self):
        REGISTRY.counter("x").inc()
        REGISTRY.counter("x").inc(4)
        REGISTRY.gauge("g").set(2.5)
        assert REGISTRY.counter("x").value == 5
        assert REGISTRY.gauge("g").value == 2.5

    def test_histogram_exact_accounting_and_percentiles(self):
        h = obs_metrics.Histogram("t", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        d = h.as_dict()
        assert d["count"] == 5
        assert d["sum"] == 556.0
        assert d["max"] == 500.0
        assert 0.0 < d["p50"] <= 10.0
        assert d["p99"] <= 500.0
        assert d["p50"] <= d["p95"] <= d["p99"]

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            obs_metrics.Histogram("bad", buckets=(10.0, 1.0))

    def test_snapshot_shape_and_counter_prefix_filter(self):
        REGISTRY.counter("server.ops.query").inc(3)
        REGISTRY.counter("router.ops.query").inc(1)
        REGISTRY.histogram("lat").observe(1.0)
        snap = REGISTRY.snapshot()
        assert snap["counters"]["server.ops.query"] == 3
        assert snap["histograms"]["lat"]["count"] == 1
        assert REGISTRY.counter_values("server.") == {"server.ops.query": 3}

    def test_counters_are_exact_under_contention(self):
        threads, per_thread = 8, 500

        def worker():
            c = REGISTRY.counter("hammered")
            for _ in range(per_thread):
                c.inc()

        workers = [threading.Thread(target=worker) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert REGISTRY.counter("hammered").value == threads * per_thread


# --------------------------------------------------------------------------- #
# the 8-thread hammer: span nesting + exact engine counters
# --------------------------------------------------------------------------- #
class TestConcurrencyHammer:
    THREADS, PER_THREAD = 8, 20

    def test_hammer_span_nesting_and_exact_counters(self):
        engine, session0 = make_session(n=600)
        session0.query("c", Stab(500.0))           # warm the plan cache
        REGISTRY.reset()
        obs_tracer.enable()
        trees: list = [None] * self.THREADS
        errors: list = []

        def reader(tid: int) -> None:
            try:
                session = engine.session()
                with TRACER.capture() as cap:
                    for i in range(self.PER_THREAD):
                        session.query("c", Stab(100.0 + 100.0 * tid + i))
                trees[tid] = cap.roots
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        workers = [
            threading.Thread(target=reader, args=(t,))
            for t in range(self.THREADS)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert errors == []

        total = self.THREADS * self.PER_THREAD
        for roots in trees:
            assert len(roots) == self.PER_THREAD
            for root in roots:
                # exact nesting: request -> read turn -> plan + execute
                assert root.name == "session.request"
                (turn,) = root.children
                assert turn.name == "engine.read_turn"
                names = [c.name for c in turn.children]
                assert names == ["planner.plan", "plan.execute"]
                # I/O composes at every level, even under contention
                assert root.io.total == turn.io.total
                assert root.attrs["ios"] == root.io.total

        # exact metrics: every lookup hit the warmed plan cache, every
        # read turn measured its latch wait, nothing lost to races
        assert REGISTRY.counter("planner.cache_hits").value == total
        assert REGISTRY.counter("planner.cache_misses").value == 0
        assert REGISTRY.histogram("engine.read_latch_wait_ms").count == total

    def test_hammer_writes_measure_the_commit_kernel_exactly(self):
        engine, _ = make_session(n=200)
        REGISTRY.reset()
        obs_tracer.enable()
        from repro.interval import Interval
        errors: list = []

        def writer(tid: int) -> None:
            try:
                session = engine.session()
                with TRACER.capture() as cap:
                    for i in range(self.PER_THREAD):
                        session.insert(
                            "c", Interval(float(tid), float(tid) + 1.0)
                        )
                for root in cap.roots:
                    assert root.attrs["op"] == "insert"
                    names = [c.name for c in root.children]
                    assert names == ["commit.apply", "epoch.publish"]
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        workers = [
            threading.Thread(target=writer, args=(t,))
            for t in range(self.THREADS)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert errors == []
        total = self.THREADS * self.PER_THREAD
        assert REGISTRY.histogram("engine.write_mutex_wait_ms").count == total


# --------------------------------------------------------------------------- #
# slow-query log
# --------------------------------------------------------------------------- #
class TestSlowQueryLog:
    def test_threshold_gates_recording(self):
        engine, session = make_session(dynamic=False)
        obs_tracer.enable()
        SLOWLOG.configure(threshold_ms=1e9)        # nothing is that slow
        session.query("c", Stab(500.0))
        assert SLOWLOG.stats_dict()["recorded"] == 0
        SLOWLOG.configure(threshold_ms=0.0)        # everything qualifies
        session.query("c", Stab(500.0))
        entries = SLOWLOG.recent()
        assert SLOWLOG.stats_dict()["recorded"] == 1
        assert entries[-1]["trace"]["name"] == "session.request"
        assert entries[-1]["plan"]                 # the executed Plan, rendered
        assert entries[-1]["wall_ms"] >= 0.0

    def test_disabled_without_tracing(self):
        # no span tree -> nothing to consider, even with a threshold set
        engine, session = make_session(dynamic=False)
        SLOWLOG.configure(threshold_ms=0.0)
        session.query("c", Stab(500.0))
        assert SLOWLOG.stats_dict()["recorded"] == 0

    def test_file_sink_appends_json_lines(self, tmp_path):
        engine, session = make_session(dynamic=False)
        path = str(tmp_path / "slow.jsonl")
        obs_tracer.enable()
        SLOWLOG.configure(threshold_ms=0.0, path=path)
        session.query("c", Stab(500.0))
        session.query("c", Stab(600.0))
        with open(path) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        assert len(lines) == 2
        assert all(e["trace"]["name"] == "session.request" for e in lines)


# --------------------------------------------------------------------------- #
# the metrics wire command (single server + cluster): runtime twins of
# the wire-exhaustiveness checks
# --------------------------------------------------------------------------- #
class TestWireMetrics:
    def test_metrics_after_a_mixed_workload(self, tmp_path):
        engine = Engine(FileDisk(str(tmp_path / "m.pages"), block_size=16))
        engine.attach_wal()
        with ReproServer(engine, close_engine=True) as srv:
            with ReproClient(*srv.address) as db:
                db.create("base", records=[])
                db.bulk_load("base", random_intervals(120, seed=2))
                queries = 6
                for i in range(queries):
                    db.query("base", Stab(100.0 + 100.0 * i))
                payload = db.metrics()

        assert payload["ok"] is True
        assert payload["uptime_s"] >= 0.0
        # plan-cache hit ratio after repeated same-shape queries
        cache = payload["plan_cache"]
        assert cache["hits"] >= queries - 1
        assert 0.0 < cache["hit_ratio"] <= 1.0
        # WAL group-absorption counters (serial writes: ratio simply 0.0)
        wal = payload["wal"]
        assert wal["commits"] >= 2                 # create + bulk_load
        assert wal["group_absorbed_ratio"] is not None
        assert wal["syncs"] >= 1
        # per-command ops + latency histograms, exact for this test's
        # traffic (the autouse fixture reset the process registry)
        counters = payload["metrics"]["counters"]
        assert counters["server.ops.query"] == queries
        assert counters["server.ops.bulk_load"] == 1
        latency = payload["metrics"]["histograms"]["server.latency_ms.query"]
        assert latency["count"] == queries
        assert latency["p50"] <= latency["p95"] <= latency["p99"]
        # epoch-pin age gauge rides along
        assert "pin_age_s" in payload["epochs"]
        assert payload["tracer"]["enabled"] is False
        assert payload["slowlog"]["threshold_ms"] is None

    def test_metrics_on_a_fresh_walless_server(self):
        engine = Engine(SimulatedDisk(16))
        with ReproServer(engine, close_engine=True) as srv:
            with ReproClient(*srv.address) as db:
                payload = db.metrics()
        assert payload["wal"] is None
        assert payload["plan_cache"]["hit_ratio"] is None
        assert payload["metrics"]["counters"]["server.ops.metrics"] == 1

    def test_cluster_metrics_aggregates_shards(self):
        with Cluster.create(None, shards=3, strategy="hash",
                            mode="thread") as cluster:
            with ReproClient(*cluster.address) as db:
                db.create("base", records=[])
                db.bulk_load("base", random_intervals(60, seed=4))
                for i in range(4):
                    db.query("base", Stab(50.0 + i))
                payload = db.metrics()

        assert payload["uptime_s"] >= 0.0
        assert len(payload["shards"]) == 3
        for shard in payload["shards"]:
            assert {"shard", "uptime_s", "plan_cache", "wal",
                    "metrics"} <= set(shard)
        # hash reads broadcast: every shard was contacted for every query
        routing = payload["cluster"]["routing"]
        assert routing["reads"] >= 4
        contacts = payload["cluster"]["contacts_by_shard"]
        assert set(contacts) == {"0", "1", "2"}
        assert all(v >= 4 for v in contacts.values())
        # summed plan-cache counters produce a cluster-wide hit ratio
        assert payload["plan_cache"]["hits"] >= 1
        assert payload["plan_cache"]["hit_ratio"] is not None
        # the frontend's own command surface is measured too
        assert payload["metrics"]["counters"]["router.ops.query"] == 4

    def test_cluster_metrics_with_a_dead_shard_is_structured(self):
        with Cluster.create(None, shards=2, strategy="hash",
                            mode="thread") as cluster:
            with ReproClient(*cluster.address) as db:
                db.ping()
                cluster.supervisor.handles[1].server.close()
                cluster.router._links[1].close()
                with pytest.raises(ServerError) as err:
                    db.metrics()                   # scatters to all shards
                assert err.value.code == "shard_unavailable"

    def test_stats_now_reports_uptime(self):
        engine = Engine(SimulatedDisk(16))
        with ReproServer(engine, close_engine=True) as srv:
            with ReproClient(*srv.address) as db:
                stats = db.stats()
        assert stats["uptime_s"] >= 0.0


# --------------------------------------------------------------------------- #
# epoch-pin age + WAL ratio plumbing the export relies on
# --------------------------------------------------------------------------- #
class TestExportPlumbing:
    def test_pin_age_tracks_the_oldest_live_pin(self):
        engine, session = make_session(dynamic=False)
        epochs = engine.epochs
        assert epochs.pin_age_s() is None
        with epochs.pinned():
            age = epochs.pin_age_s()
            assert age is not None and age >= 0.0
            with epochs.pinned():               # nested pin, same epoch
                assert epochs.pin_age_s() >= age
        assert epochs.pin_age_s() is None

    def test_group_absorbed_ratio_none_until_first_commit(self, tmp_path):
        engine = Engine(FileDisk(str(tmp_path / "r.pages"), block_size=16))
        engine.attach_wal()
        assert engine.wal.group_absorbed_ratio is None
        session = engine.session()
        session.create_collection("c", dynamic=True)
        ratio = engine.wal.group_absorbed_ratio
        assert ratio is not None and 0.0 <= ratio <= 1.0
        engine.close()
