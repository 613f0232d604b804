"""The layer ladder: the traced run behind ``--trace 1``.

No span is added inside the program.  Instead the harness replays a
sample of the workload's ops at successively deeper *public* entry points
and records a span around every call it makes:

    reads    ReproClient via the cluster frontend      client.cluster
             ReproClient to the server / the shards    client.server
             protocol encode/decode on the same reply  (four side rungs)
             EngineSession.run                          session.run
             PreparedQuery.run(...).all()               prepared.run
             the physical index's query, raw() drained  index.query
             backend.read over the captured block ids   backend.read

    writes   wire insert/delete via the frontend        client.cluster
             wire insert/delete to the server / shard   client.server
             EngineSession.insert / .delete (WAL+fsync)  session.write
             Collection.insert / .delete (no commit)     collection.write
             backend.read/.write over captured blocks    backend.write
             WriteAheadLog.append + sync_to, scratch log (two side rungs)

A layer's self time is the median over the sampled ops of its rung minus
the rungs nested inside it.  The rungs below the wire run on *twins*: in-process
engines on ``FileDisk`` (with a WAL where the workload writes) loaded with
the same records in the same batches as the server — one per shard for
the cluster, whose in-process rungs sum over the shards the ``ShardMap``
names while its wire rung takes the slowest shard.  For the embedded
workloads the twin is the engine under test itself.

Counts are read at the same boundaries, before and after the timed phases
and never inside them: ``IOStats`` snapshots, the ``stats`` and
``metrics`` wire commands (WAL counters, routing counters, the always-on
wait histograms).
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro import Collection, Engine, FileDisk, Interval, QueryResult
from repro.cluster.topology import ShardMap
from repro.durability import WriteAheadLog
from repro.engine.core import advance_uid_floor
from repro.server import ReproClient
from repro.server import protocol as P

from benchmarks.record import params, procs
from benchmarks.record import workloads as W
from benchmarks.record.verify import Verifier

#: ops replayed untimed at the start of every rung
RUNG_WARMUP = 10
#: seconds -> a per-layer metric's time unit
TIME_UNITS = {"s": 1.0, "ms": 1e3, "us": 1e6}


def clock(fn: Callable[..., Any], *args: Any) -> Tuple[float, float, Any]:
    start = time.perf_counter()
    out = fn(*args)
    return start, time.perf_counter() - start, out


def idle_floor() -> float:
    """Seconds a span around an empty call takes: what an idle layer reads.

    A workload that leaves a layer idle reports this measured floor for the
    layer's times, not a constant 0: every time the benchmark prints is one
    it took.
    """
    calls = 1000
    return sum(clock(lambda: None)[1] for _ in range(calls)) / calls


class Rung:
    """One entry point's per-op times, and the spans that record them."""

    def __init__(self, name: str, parent: Optional[str], spans: List[Dict[str, Any]]) -> None:
        self.name = name
        self.parent = parent
        self.spans = spans
        #: microseconds, by op number
        self.us: List[float] = []

    def add(self, op: int, start: float, seconds: float) -> None:
        self.us.append(seconds * 1e6)
        self.spans.append({
            "id": f"{self.name}:{op}",
            "parent": None if self.parent is None else f"{self.parent}:{op}",
            "name": self.name,
            "op": op,
            "start_us": start * 1e6,
            "end_us": (start + seconds) * 1e6,
        })


class Ladder:
    """The rungs of one op kind, measured rung by rung over the same ops.

    Every figure is a median over the sampled ops — of a rung's time, or of
    the per-op difference between a rung and the rungs inside it — so a
    burst of interference during one rung's pass moves nothing.
    """

    def __init__(self, prefix: str, n_ops: int, spans: List[Dict[str, Any]]) -> None:
        self.prefix = prefix
        self.n_ops = n_ops
        self.spans = spans
        self.rungs: Dict[str, Rung] = {}
        self.top: Optional[str] = None

    def rung(self, name: str, parent: Optional[str]) -> Rung:
        rung = Rung(f"{self.prefix}.{name}", parent and f"{self.prefix}.{parent}", self.spans)
        self.rungs[name] = rung
        if self.top is None:
            self.top = name
        return rung

    def measure(self, name: str, parent: Optional[str],
                call: Callable[[int], Tuple[float, float]], *, warm: bool = True) -> None:
        """``call(op_no) -> (start, seconds)``, over every sampled op."""
        rung = self.rung(name, parent)
        if warm:
            for op in range(min(RUNG_WARMUP, self.n_ops)):
                call(op)
        for op in range(self.n_ops):
            rung.add(op, *call(op))

    def us(self, name: str) -> float:
        """Median time of one rung (0 when the workload has no such rung)."""
        rung = self.rungs.get(name)
        return statistics.median(rung.us) if rung else 0.0

    def self_us(self, outer: str, *inner: str) -> float:
        """Median over ops of ``outer`` minus the rungs nested inside it."""
        if outer not in self.rungs:
            return 0.0
        inside = [self.rungs[name].us for name in inner if name in self.rungs]
        return statistics.median(
            whole - sum(parts) for whole, *parts in zip(self.rungs[outer].us, *inside)
        )

    def closure(self, selfs: Iterable[float]) -> float:
        """Σ max(0, self time) ÷ top rung.

        1.0 when every rung nests inside the one above it; above that by the
        self time that came out negative, off it either way by how far the
        medians are from adding up.
        """
        top = self.us(self.top) if self.top else 0.0
        return sum(max(0.0, s) for s in selfs) / top if top else 0.0

    def rows(self) -> Dict[str, float]:
        return {rung.name: statistics.median(rung.us) for rung in self.rungs.values()}


@contextmanager
def tapped(backend: Any) -> Iterator[Tuple[List[int], List[Any]]]:
    """Capture the blocks a call reads and writes.

    A counting wrapper over the backend's public ``read``/``write``/
    ``allocate``, installed on the instance for the capture pass only, so
    the timed rungs never run through it.
    """
    reads: List[int] = []
    writes: List[Any] = []
    real_read, real_write, real_allocate = backend.read, backend.write, backend.allocate

    def read(block_id: int) -> Any:
        reads.append(block_id)
        return real_read(block_id)

    def write(block: Any) -> None:
        writes.append(block)
        real_write(block)

    def allocate(*args: Any, **kwargs: Any) -> Any:
        block = real_allocate(*args, **kwargs)
        writes.append(block)
        return block

    backend.read, backend.write, backend.allocate = read, write, allocate
    try:
        yield reads, writes
    finally:
        del backend.read, backend.write, backend.allocate


class Twin:
    """An in-process engine holding what one server (or shard) holds."""

    def __init__(self, engine: Engine, shape: W.Shape) -> None:
        self.engine = engine
        self.backend = engine.disk
        self.session = engine.session()
        self.handles = [self.session.prepare(shape.index, t) for t in shape.templates]
        self.index = engine.index(shape.index)

    def physical(self, q: Any) -> Tuple[str, Callable[[Any], List[Any]]]:
        """The layer name and drained query of the physical index serving ``q``."""
        if not isinstance(self.index, Collection):
            return "core.class_indexer", lambda bound: exhaust(self.index.query(bound))
        for acc in self.index.planner.accessors:
            if acc.translate(q) is not None:
                layer = "core.interval_manager" if acc.name == "interval-manager" else "btree"
                return layer, lambda bound, acc=acc: exhaust(acc.run(acc.translate(bound)))
        raise LookupError(f"no physical index of {self.index!r} serves {q!r}")


def exhaust(out: Any) -> List[Any]:
    """Exhaust an index's answer the way a pushdown plan does: the raw hit
    stream, without the per-record accounting the plan's own result pays."""
    return list(out.raw() if isinstance(out, QueryResult) else out)


def build_twins(ctx: W.Ctx, env: W.Env, base: List[Any], shard_map: Optional[ShardMap],
                with_wal: bool) -> List[Twin]:
    """FileDisk engines loaded like the server: empty create, then the same batches."""
    engines = []
    for shard in range(shard_map.shards if shard_map else 1):
        path = os.path.join(ctx.subdir("twins"), f"twin-{shard}.pages")
        engine = Engine(FileDisk(path, block_size=params.BLOCK_SIZE))
        if with_wal:
            engine.attach_wal()
        engine.create_collection("c")
        engines.append(engine)
    for start in range(0, len(base), params.LOAD_BATCH):
        batch = base[start:start + params.LOAD_BATCH]
        groups = shard_map.partition(batch) if shard_map else {0: batch}
        for shard, records in sorted(groups.items()):
            engines[shard].bulk_load("c", records)
    # the twins hold server-minted uids; records minted here must not collide
    advance_uid_floor(max(r.uid for r in base))
    return [Twin(engine, env.shape) for engine in engines]


# --------------------------------------------------------------------------- #
# counts at the layer boundaries
# --------------------------------------------------------------------------- #
def counters(env: W.Env) -> Dict[str, float]:
    """Cumulative counts of the program, read from outside it."""
    if env.server is None:
        assert env.engine is not None
        snap = env.engine.io_stats().snapshot()
        return {"reads": snap.reads, "writes": snap.writes, "fsyncs": snap.fsyncs}
    with env.server.client() as db:
        stats, metrics = db.stats(), db.metrics()
    engine = stats["engine"]
    out: Dict[str, float] = {k: engine.get(k, 0) for k in ("reads", "writes", "fsyncs")}
    cluster = stats.get("cluster")
    if cluster:
        wals = [entry["wal"] for entry in cluster["per_shard"]]
        histograms = [s["metrics"]["histograms"] for s in metrics["shards"]]
        out["contacts"] = cluster["routing"]["shard_contacts"]
        out["routed_writes"] = cluster["routing"]["writes"]
        inside = metrics["metrics"]["histograms"].get("router.latency_ms.run", {})
    else:
        wals = [stats["wal"]]
        histograms = [metrics["metrics"]["histograms"]]
        inside = histograms[0].get("server.latency_ms.run", {})
    for key in ("size_bytes", "commits", "syncs", "group_absorbed"):
        out[f"wal_{key}"] = sum((wal or {}).get(key, 0) for wal in wals)
    # cumulative since server start (the registry has no reset on the wire)
    for name in ("engine.write_mutex_wait_ms", "engine.read_latch_wait_ms"):
        out[f"{name}_p95"] = max(h.get(name, {}).get("p95", 0.0) for h in histograms)
    out["inside_ms_p50"] = inside.get("p50", 0.0)
    return out


# --------------------------------------------------------------------------- #
# the read ladder
# --------------------------------------------------------------------------- #
def read_ladder(env: W.Env, ops: List[W.Op], twins: List[Twin],
                route: Callable[[Any], List[int]], direct: List[W.WireConn],
                via_frontend: bool, spans: List[Dict[str, Any]]) -> Tuple[Dict[str, float],
                                                                          Dict[str, float]]:
    """The layers' figures, and the rungs' medians they come from."""
    shape = env.shape
    queries = [shape.bound(op[1], op[2]) for op in ops]
    targets = [route(q) for q in queries]
    ladder = Ladder("read", len(ops), spans)
    replies: List[Any] = [None] * len(ops)
    parent: Optional[str] = None

    if via_frontend:
        def frontend(i: int) -> Tuple[float, float]:
            start, seconds, replies[i] = clock(env.conns[0].apply, ops[i])
            return start, seconds

        ladder.measure("client.cluster", parent, frontend)
        parent = "client.cluster"
    if direct:
        def server(i: int) -> Tuple[float, float]:
            # the router waits for the slowest shard it contacts
            first, slowest = time.perf_counter(), 0.0
            for shard in targets[i]:
                _start, seconds, reply = clock(direct[shard].apply, ops[i])
                slowest = max(slowest, seconds)
                if not via_frontend:
                    replies[i] = reply
            return first, slowest

        ladder.measure("client.server", parent, server)
        parent = "client.server"
        sizes = protocol_rungs(ladder, parent, ops, replies)
    else:
        sizes = {"in": 0.0, "out": 0.0}

    def over_targets(per_twin: Callable[[Twin, int], Any]) -> Callable[[int], Tuple[float, float]]:
        def call(i: int) -> Tuple[float, float]:
            first, total = time.perf_counter(), 0.0
            for shard in targets[i]:
                total += clock(per_twin, twins[shard], i)[1]
            return first, total
        return call

    ladder.measure("session.run", parent, over_targets(
        lambda twin, i: twin.session.run(twin.handles[ops[i][1]], **ops[i][2])))
    ladder.measure("prepared.run", "session.run", over_targets(
        lambda twin, i: twin.handles[ops[i][1]].run(**ops[i][2]).all()))
    index_layer, _drain = twins[0].physical(queries[0])
    ladder.measure("index.query", "prepared.run", over_targets(
        lambda twin, i: twin.physical(queries[i])[1](queries[i])))

    # which pages does each op read?  (untimed capture, then a timed replay)
    pages: List[List[Tuple[Twin, List[int]]]] = []
    for i, q in enumerate(queries):
        per_op = []
        for shard in targets[i]:
            twin = twins[shard]
            with tapped(twin.backend) as (reads, _writes):
                twin.physical(q)[1](q)
            per_op.append((twin, list(reads)))
        pages.append(per_op)

    def backend_read(i: int) -> Tuple[float, float]:
        first, total = time.perf_counter(), 0.0
        for twin, block_ids in pages[i]:
            read = twin.backend.read
            start = time.perf_counter()
            for block_id in block_ids:
                read(block_id)
            total += time.perf_counter() - start
        return first, total

    ladder.measure("backend.read", "index.query", backend_read)
    n_pages = sum(len(ids) for per_op in pages for _twin, ids in per_op)

    protocol = ("client.encode", "server.decode", "server.encode", "client.decode")
    layers = {
        "cluster.router.us_per_op": ladder.self_us("client.cluster", "client.server"),
        "server.core.us_per_op": ladder.self_us("client.server", "session.run", *protocol),
        "server.client.encode_us_per_op": ladder.us("client.encode"),
        "server.protocol.decode_us_per_op": ladder.us("server.decode"),
        "server.protocol.encode_us_per_op": ladder.us("server.encode"),
        "server.client.decode_us_per_op": ladder.us("client.decode"),
        "engine.session.us_per_op": ladder.self_us("session.run", "prepared.run"),
        "engine.prepared.us_per_op": ladder.self_us("prepared.run", "index.query"),
        f"{index_layer}.us_per_op": ladder.self_us("index.query", "backend.read"),
    }
    io_us = ladder.us("backend.read")
    out = dict(layers)
    out["ladder.read_top_us"] = ladder.us(ladder.top or "")
    out["ladder.read_closure"] = ladder.closure([*layers.values(), io_us])
    out["io.read_us_per_page"] = sum(ladder.rungs["backend.read"].us) / n_pages if n_pages else 0.0
    out["io.bytes_per_page"] = bytes_per_page(pages)
    out["server.bytes_in_per_op"] = sizes["in"]
    out["server.bytes_out_per_op"] = sizes["out"]
    return out, ladder.rows()


def protocol_rungs(ladder: Ladder, parent: str, ops: List[W.Op],
                   replies: List[Any]) -> Dict[str, float]:
    """The protocol functions alone, applied to the replies the wire rung got."""
    requests = [{"id": i + 1, "cmd": "run", "handle": 1, "params": op[2]}
                for i, op in enumerate(ops)]
    lines: List[bytes] = [b""] * len(ops)
    answers: List[bytes] = [b""] * len(ops)

    def client_encode(i: int) -> Tuple[float, float]:
        start, seconds, lines[i] = clock(P.encode_message, requests[i])
        return start, seconds

    def server_encode(i: int) -> Tuple[float, float]:
        reply = replies[i]

        def encode() -> bytes:
            return P.encode_message(P.ok_response(
                i + 1, ios=reply.ios, stats=reply.stats,
                records=P.records_to_wire(reply.records), count=len(reply.records),
                bound=reply.bound,
            ))

        start, seconds, answers[i] = clock(encode)
        return start, seconds

    def client_decode(i: int) -> Tuple[float, float]:
        def decode() -> List[Any]:
            return [P.record_from_dict(d) for d in P.decode_message(answers[i])["records"]]

        return clock(decode)[:2]

    ladder.measure("client.encode", parent, client_encode)
    ladder.measure("server.decode", parent, lambda i: clock(P.decode_message, lines[i])[:2])
    ladder.measure("server.encode", parent, server_encode)
    ladder.measure("client.decode", parent, client_decode)
    return {"in": sum(map(len, lines)) / len(ops), "out": sum(map(len, answers)) / len(ops)}


def bytes_per_page(pages: List[List[Tuple[Twin, List[int]]]]) -> float:
    """Serialized size of the pages the reads touch (FileDisk only).

    Each distinct page is written back once; the growth of the page file
    is its size on disk.
    """
    total = count = 0
    seen = set()
    for per_op in pages:
        for twin, block_ids in per_op:
            if not hasattr(twin.backend, "file_bytes"):
                return 0.0
            for block_id in block_ids:
                if (id(twin), block_id) in seen:
                    continue
                seen.add((id(twin), block_id))
                before = twin.backend.file_bytes
                twin.backend.write(twin.backend.read(block_id))
                total += twin.backend.file_bytes - before
                count += 1
    return total / count if count else 0.0


# --------------------------------------------------------------------------- #
# the write ladder
# --------------------------------------------------------------------------- #
def write_ladder(ctx: W.Ctx, env: W.Env, records: List[Any], twins: List[Twin],
                 owner: Callable[[Any], int], direct: List[W.WireConn],
                 via_frontend: bool, spans: List[Dict[str, Any]]) -> Tuple[Dict[str, float],
                                                                           Dict[str, float]]:
    """Each sampled op is an insert followed by the delete of the same record."""
    count = len(records)
    owners = [owner(r) for r in records]
    inserts = Ladder("insert", count, spans)
    deletes = Ladder("delete", count, spans)

    def fresh(i: int) -> Interval:
        # a new uid at every rung: re-inserting a deleted uid makes the interval
        # manager sweep its tombstones, which no op of the workload does
        return Interval(records[i].low, records[i].high)

    def pair(name: str, parent: Optional[str], insert: Callable[[int, Any], Any],
             delete: Callable[[int, Any], Any]) -> None:
        """One rung of both ladders: insert record i, then delete what was stored."""
        ins, dele = inserts.rung(name, parent), deletes.rung(name, parent)
        for i in range(min(RUNG_WARMUP, count)):
            delete(i, insert(i, fresh(i)))
        for i in range(count):
            start, seconds, stored = clock(insert, i, fresh(i))
            ins.add(i, start, seconds)
            dele.add(i, *clock(delete, i, stored)[:2])

    def over_wire(conn_for: Callable[[int], Any]) -> Tuple[Callable[[int, Any], Any],
                                                          Callable[[int, Any], Any]]:
        return (lambda i, record: conn_for(i).apply(("insert", record))[0],
                lambda i, stored: conn_for(i).apply(("delete", stored)))

    def session_insert(i: int, record: Any) -> Any:
        twins[owners[i]].session.insert("c", record)
        return record

    def collection_insert(i: int, record: Any) -> Any:
        twins[owners[i]].index.insert(record)
        return record

    parent: Optional[str] = None
    if via_frontend:
        pair("client.cluster", parent, *over_wire(lambda i: env.conns[-1]))
        parent = "client.cluster"
    pair("client.server", parent, *over_wire(lambda i: direct[owners[i]]))
    pair("session.write", "client.server", session_insert,
         lambda i, stored: twins[owners[i]].session.delete("c", stored))
    pair("collection.write", "session.write", collection_insert,
         lambda i, stored: twins[owners[i]].index.delete(stored))

    # capture what the index maintenance reads and writes, then replay it
    touched: Dict[str, List[Tuple[Twin, List[int], List[Any]]]] = {"insert": [], "delete": []}
    for i in range(count):
        twin, record = twins[owners[i]], fresh(i)
        for kind, call in (("insert", twin.index.insert), ("delete", twin.index.delete)):
            with tapped(twin.backend) as (reads, writes):
                call(record)
            touched[kind].append((twin, list(reads), list(writes)))

    pages_written = 0
    write_seconds = 0.0

    def replay(kind: str) -> Callable[[int], Tuple[float, float]]:
        def call(i: int) -> Tuple[float, float]:
            nonlocal pages_written, write_seconds
            twin, block_ids, blocks = touched[kind][i]
            first = time.perf_counter()
            for block_id in block_ids:
                try:
                    twin.backend.read(block_id)
                except KeyError:  # freed by a later merge; nothing to replay
                    continue
            mid = time.perf_counter()
            for block in blocks:
                try:
                    twin.backend.write(block)
                    pages_written += 1
                except KeyError:
                    continue
            end = time.perf_counter()
            write_seconds += end - mid
            return first, end - first
        return call

    inserts.measure("backend.write", "collection.write", replay("insert"), warm=False)
    deletes.measure("backend.write", "collection.write", replay("delete"), warm=False)

    # the log alone, on a scratch file: each append followed by its own barrier,
    # as a lone committer pays them
    wal = WriteAheadLog(os.path.join(ctx.subdir("twins"), "scratch.wal"), fsync=True)
    try:
        for ladder in (inserts, deletes):
            append = ladder.rung("wal.append", "session.write")
            sync = ladder.rung("wal.sync", "session.write")
            for i, record in enumerate(records):
                start, seconds, offset = clock(wal.append, i + 1, (ladder.prefix, "c", (record,)))
                append.add(i, start, seconds)
                sync.add(i, *clock(wal.sync_to, offset)[:2])
    finally:
        wal.close()

    def both(figure: str, *rungs: str) -> float:
        """A figure of the insert and the delete ladder, averaged: one write."""
        return (getattr(inserts, figure)(*rungs) + getattr(deletes, figure)(*rungs)) / 2

    layers = {
        "cluster.router.us_per_write": both("self_us", "client.cluster", "client.server"),
        "server.core.us_per_write": both("self_us", "client.server", "session.write"),
        "engine.commit.us_per_write":
            both("self_us", "session.write", "collection.write", "wal.append", "wal.sync"),
        "durability.wal.append_us_per_commit": both("us", "wal.append"),
        "durability.wal.sync_us_per_commit": both("us", "wal.sync"),
    }
    maintenance = {
        "engine.collection.insert_us_per_op": inserts.self_us("collection.write", "backend.write"),
        "engine.collection.delete_us_per_op": deletes.self_us("collection.write", "backend.write"),
    }
    top = both("us", inserts.top or "")
    selfs = [*layers.values(), sum(maintenance.values()) / 2, both("us", "backend.write")]
    out = {**layers, **maintenance}
    out["ladder.write_top_us"] = top
    out["ladder.write_closure"] = sum(max(0.0, s) for s in selfs) / top if top else 0.0
    out["io.write_us_per_page"] = write_seconds * 1e6 / pages_written if pages_written else 0.0
    return out, {**inserts.rows(), **deletes.rows()}


# --------------------------------------------------------------------------- #
# the traced run
# --------------------------------------------------------------------------- #
def traced_run(ctx: W.Ctx, span_path: str) -> Dict[str, Any]:
    env, _setup_s = W.open_env(ctx, once=True)
    base = list(env.model.values())
    writes = ctx.workload in ("wire_mixed", "cluster_mixed")
    spans: List[Dict[str, Any]] = []
    units = params.units("per_layer")
    layer: Dict[str, float] = dict.fromkeys(units, 0.0)
    direct: List[W.WireConn] = []
    twins: List[Twin] = []
    try:
        verifier = Verifier(env.model, oracle_every=1 if ctx.smoke else params.ORACLE_EVERY)
        W.warm_up(ctx, env, verifier)

        # the top rung: the workload itself, untraced then traced
        streams = W.streams_for(ctx, env, "run")
        before = counters(env)
        plain, traced = W.Samples(), W.Samples()
        top_spans: List[Tuple[str, float, float]] = []
        # plain, traced, traced, plain: whatever drifts linearly with time (the
        # writer's live set, the host's load) weighs on both sides alike
        for samples, sink in ((plain, None), (traced, top_spans), (traced, top_spans),
                              (plain, None)):
            W.drive(ctx, env, streams, ctx.seconds / 8, verifier, samples, sink)
        after = counters(env)
        for n, (kind, start, end) in enumerate(top_spans):
            spans.append({"id": f"top:{n}", "parent": None, "name": f"top.{kind}", "op": n,
                          "start_us": start * 1e6, "end_us": end * 1e6})
        layer["trace.overhead_frac"] = 1.0 - (
            (traced.verified / traced.timed_s) / (plain.verified / plain.timed_s)
        )
        read_ms = plain.read_ms + traced.read_ms
        write_ms = plain.write_ms + traced.write_ms
        n_reads, n_writes = len(read_ms), len(write_ms)
        delta = {k: after[k] - before.get(k, 0) for k in after}
        layer["io.reads_per_read"] = (plain.read_ios + traced.read_ios) / n_reads
        layer["engine.write_mutex_wait_ms_p95"] = after.get("engine.write_mutex_wait_ms_p95", 0.0)
        layer["engine.read_latch_wait_ms_p95"] = after.get("engine.read_latch_wait_ms_p95", 0.0)
        layer["server.inside_ms_p50"] = after.get("inside_ms_p50", 0.0)
        if n_writes:
            layer["write.p50_ms"] = W.percentile(write_ms, 0.50)
            layer["write.p95_ms"] = W.percentile(write_ms, 0.95)
            layer["write.ios_per_op"] = (plain.write_ios + traced.write_ios) / n_writes
            layer["io.writes_per_write"] = delta["writes"] / n_writes
            layer["io.fsyncs_per_write"] = delta["fsyncs"] / n_writes
            commits = delta["wal_commits"]
            layer["durability.wal.bytes_per_commit"] = delta["wal_size_bytes"] / commits
            layer["durability.wal.syncs_per_commit"] = delta["wal_syncs"] / commits
            layer["durability.wal.group_absorbed_frac"] = delta["wal_group_absorbed"] / commits

        # the ladder below it, on quiesced state
        shard_map: Optional[ShardMap] = None
        if env.server is not None:
            with env.server.client() as db:
                cluster = db.stats().get("cluster")
            if cluster:
                shard_map = ShardMap.from_dict(cluster["topology"])
                shards_read = (plain.shards_contacted + traced.shards_contacted)
                layer["cluster.router.shards_per_read"] = shards_read / n_reads
                layer["cluster.router.shards_per_write"] = (
                    (delta["contacts"] - shards_read) / delta["routed_writes"]
                )
                for entry in cluster["shards"]:
                    host, port = entry["address"].rsplit(":", 1)
                    client = ReproClient(host, int(port), timeout=params.CLIENT_TIMEOUT_S)
                    direct.append(W.WireConn(client, env.shape))
            else:
                direct.append(env.conns[0])
            twins = build_twins(ctx, env, base, shard_map, with_wal=writes)
        else:
            assert env.engine is not None
            twins = [Twin(env.engine, env.shape)]
        route = shard_map.shards_for_query if shard_map else (lambda q: [0])
        owner = shard_map.shard_for_record if shard_map else (lambda r: 0)

        count = params.LADDER_READS // (5 if ctx.smoke else 1)
        reader = W.OpStream(env.shape, ctx.rng("ladder:reads"))
        read_ops = [reader.next() for _ in range(count)]
        figures, rungs = read_ladder(env, read_ops, twins, route, direct,
                                     shard_map is not None, spans)
        layer.update(figures)
        layer["ladder.contention_us_per_read"] = (
            sum(read_ms) / n_reads * 1e3 - layer["ladder.read_top_us"]
        )
        if shard_map is not None:
            queries = [env.shape.bound(op[1], op[2]) for op in read_ops]
            start = time.perf_counter()
            for q in queries:
                shard_map.shards_for_query(q)
            layer["cluster.topology.window_us_per_op"] = (
                (time.perf_counter() - start) / len(queries) * 1e6
            )
        if writes:
            rnd = ctx.rng("ladder:writes")
            count = params.LADDER_WRITES // (5 if ctx.smoke else 1)
            records = [W.new_interval(rnd) for _ in range(count)]
            figures, write_rungs = write_ladder(ctx, env, records, twins, owner, direct,
                                                shard_map is not None, spans)
            layer.update(figures)
            rungs.update(write_rungs)

        if env.db_dir is not None:
            layer["durability.disk_bytes_per_record"] = (
                procs.dir_bytes(env.db_dir) / len(env.model)
            )
        if ctx.workload == "wire_mixed":
            crash = W.crash_and_recover(env, verifier)
            layer["durability.recovery_s"] = crash["recovery_s"]
            layer["durability.recovery.records_replayed"] = crash["wal_records"]
            layer["durability.recovery.replay_us_per_record"] = (
                crash["recovery_s"] / crash["wal_records"] * 1e6 if crash["wal_records"] else 0.0
            )
    finally:
        for conn in direct:
            if conn not in env.conns:
                conn.close()
        for twin in twins:
            if twin.engine is not env.engine:
                twin.engine.close()
        env.close()
    floor_s = idle_floor()
    for name, unit in units.items():
        if layer[name] == 0.0 and unit in TIME_UNITS:
            layer[name] = floor_s * TIME_UNITS[unit]
    with open(span_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": ctx.workload, "seed": ctx.seed, "spans": spans}, fh)
    print(f"{len(spans)} spans -> {span_path}")
    return W.report(verifier, layer, units,
                    {f"rung {name} (us)": us for name, us in rungs.items()})
