"""The five workloads: their data, op streams, set-up and timed loops.

Everything here drives the program from outside through public entry
points — ``Engine``/``EngineSession``/``PreparedQuery`` in process,
``ReproClient`` against ``repro serve`` / ``repro cluster serve`` over the
wire.  All callers are closed-loop: the next request leaves when the
previous reply has arrived.  Data and op streams derive from ``--seed``
only; the program receives nothing but the generated inputs.
"""

from __future__ import annotations

import itertools
import os
import random
import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro import ClassRange, EndpointRange, Engine, Interval, Param, Stab, bind_params
from repro.durability import read_log
from repro.server import protocol as P
from repro.workloads.generators import balanced_hierarchy, random_class_objects, random_intervals

from benchmarks.record import params, procs
from benchmarks.record.verify import Verifier

#: ``("read", template_no, params)`` | ``("insert", record)`` | ``("delete", record)``
Op = Tuple[Any, ...]
#: ``(op, outcome_or_exception, start, end)`` as the timed loop leaves it
Logged = Tuple[Op, Any, float, float]


@dataclass
class Ctx:
    """One run's inputs: what the command line and the seed decide."""

    workload: str
    seed: int
    seconds: float
    scratch: str
    smoke: bool = False

    @property
    def n(self) -> int:
        return params.N // params.SMOKE_N_DIVISOR if self.smoke else params.N

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.seed}:{self.workload}:{stream}")

    def subdir(self, name: str) -> str:
        path = os.path.join(self.scratch, name)
        os.makedirs(path, exist_ok=True)
        return path


# --------------------------------------------------------------------------- #
# read shapes and op streams
# --------------------------------------------------------------------------- #
@dataclass
class Shape:
    """One read shape: prepared templates plus how to draw their bindings."""

    index: str
    templates: List[Any]
    draw: Callable[[random.Random], Tuple[int, Dict[str, Any]]]

    def bound(self, which: int, bindings: Dict[str, Any]) -> Any:
        return bind_params(self.templates[which], bindings)


def stab_shape() -> Shape:
    lo, hi = params.DOMAIN
    return Shape("c", [Stab(Param("x"))], lambda rnd: (0, {"x": rnd.uniform(lo, hi)}))


def endpoint_shape() -> Shape:
    lo, hi = params.DOMAIN
    width = params.ENDPOINT_WIDTH

    def draw(rnd: random.Random) -> Tuple[int, Dict[str, Any]]:
        start = rnd.uniform(lo, hi - width)
        return 0, {"lo": start, "hi": start + width}

    return Shape("c", [EndpointRange("low", Param("lo"), Param("hi"))], draw)


def class_shape(hierarchy: Any) -> Shape:
    lo, hi = params.DOMAIN
    width = params.CLASS_WIDTH
    # largest full extents first; sorted() is stable, so ties keep creation order
    targets = sorted(hierarchy.classes(), key=lambda c: -hierarchy.subtree_size(c))
    templates = [
        ClassRange(c, Param("lo"), Param("hi"), hierarchy=hierarchy)
        for c in targets[: params.CLASS_TARGETS]
    ]

    # round robin over the classes: a root-class read costs several leaf-class
    # reads, so drawing the class at random made every mean a lottery
    turn = itertools.count()

    def draw(rnd: random.Random) -> Tuple[int, Dict[str, Any]]:
        start = rnd.uniform(lo, hi - width)
        return next(turn) % len(templates), {"lo": start, "hi": start + width}

    return Shape("k", templates, draw)


def new_interval(rnd: random.Random) -> Interval:
    start = rnd.uniform(*params.DOMAIN)
    return Interval(start, start + rnd.expovariate(1.0 / params.MEAN_LENGTH))


class OpStream:
    """A seeded stream of ops for one closed-loop caller.

    ``write_every=k`` makes every k-th op a write (0: never, 1: always).
    Writes are inserts until ``live_target`` own records are live, then
    alternate insert / delete-own-oldest, so the stored set stays about
    constant.  A delete names a record whose insert was acknowledged,
    which is why :meth:`ack` feeds outcomes back.
    """

    def __init__(self, shape: Optional[Shape], rnd: random.Random, *,
                 write_every: int = 0, live_target: int = 0) -> None:
        self.shape = shape
        self.rnd = rnd
        self.write_every = write_every
        self.live_target = live_target
        self.own: Deque[Any] = deque()
        self._count = 0
        self._delete_next = False

    def next(self) -> Op:
        self._count += 1
        if self.write_every and self._count % self.write_every == 0:
            if self.own and len(self.own) >= self.live_target and self._delete_next:
                self._delete_next = False
                return ("delete", self.own.popleft())
            self._delete_next = True
            return ("insert", new_interval(self.rnd))
        assert self.shape is not None
        return ("read", *self.shape.draw(self.rnd))

    def ack(self, op: Op, outcome: Any) -> None:
        if op[0] == "insert" and not isinstance(outcome, BaseException):
            self.own.append(outcome[0])


# --------------------------------------------------------------------------- #
# connections: one closed-loop caller's handle on the program
# --------------------------------------------------------------------------- #
class EmbeddedConn:
    """An ``EngineSession`` with its prepared handles (in process)."""

    def __init__(self, engine: Engine, shape: Shape) -> None:
        self.session = engine.session()
        self.index = shape.index
        self.handles = [self.session.prepare(shape.index, t) for t in shape.templates]

    def apply(self, op: Op) -> Any:
        if op[0] == "read":
            return self.session.run(self.handles[op[1]], **op[2])
        if op[0] == "insert":
            return op[1], self.session.insert(self.index, op[1]).ios
        res = self.session.delete(self.index, op[1])
        return bool(res.records[0]), res.ios

    def close(self) -> None:
        pass


class WireConn:
    """A ``ReproClient`` connection with its prepared leases."""

    def __init__(self, client: Any, shape: Shape) -> None:
        self.db = client
        self.index = shape.index
        self.handles = [client.prepare(shape.index, t) for t in shape.templates]

    def apply(self, op: Op) -> Any:
        if op[0] == "read":
            return self.handles[op[1]].run(**op[2])
        if op[0] == "insert":
            # ``call`` rather than ``insert``: the reply's ``ios`` is wanted too
            resp = self.db.call("insert", index=self.index, record=P.record_to_dict(op[1]))
            return P.record_from_dict(resp["record"]), resp["ios"]
        resp = self.db.delete(self.index, op[1])
        return resp["removed"], resp["ios"]

    def close(self) -> None:
        self.db.close()


# --------------------------------------------------------------------------- #
# set-up: what exists when the timed phase starts
# --------------------------------------------------------------------------- #
@dataclass
class Env:
    shape: Shape
    #: uid -> stored record: the oracle's substrate
    model: Dict[int, Any]
    conns: List[Any]
    engine: Optional[Engine] = None
    server: Optional[procs.ServerProcess] = None
    db_dir: Optional[str] = None

    def rss_mb(self) -> float:
        """Peak RSS of the program: the server processes, or this process."""
        if self.server is not None:
            return self.server.peak_rss_mb()
        return procs.peak_rss_mb(os.getpid())

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        self.conns = []
        if self.server is not None:
            if not self.server.close():
                raise RuntimeError(f"unclean server exit; see {self.server.log_path}")
        if self.engine is not None:
            self.engine.close()


def base_intervals(ctx: Ctx) -> List[Interval]:
    return random_intervals(ctx.n, params.DOMAIN, params.MEAN_LENGTH, seed=ctx.seed)


def open_embedded_stab(ctx: Ctx, where: str) -> Env:
    engine = Engine(block_size=params.BLOCK_SIZE)
    records = base_intervals(ctx)
    engine.create_collection("c", records)
    shape = stab_shape()
    return Env(shape, {r.uid: r for r in records}, [EmbeddedConn(engine, shape)], engine=engine)


def open_embedded_class(ctx: Ctx, where: str) -> Env:
    engine = Engine(block_size=params.BLOCK_SIZE)
    hierarchy = balanced_hierarchy(params.CLASS_DEPTH, params.CLASS_FANOUT)
    objects = random_class_objects(hierarchy, ctx.n, params.DOMAIN, seed=ctx.seed)
    engine.create_class_index("k", hierarchy, objects, method="combined")
    shape = class_shape(hierarchy)
    return Env(shape, {o.uid: o for o in objects}, [EmbeddedConn(engine, shape)], engine=engine)


def _open_served(ctx: Ctx, where: str, shape: Shape, *, cluster: bool, callers: int) -> Env:
    db_dir = os.path.join(where, "db")
    os.makedirs(db_dir)
    log = os.path.join(where, "server.log")
    if cluster:
        server = procs.cluster_serve(db_dir, log)
    else:
        server = procs.serve(os.path.join(db_dir, "app.pages"), log)
    env = Env(shape, {}, [], server=server, db_dir=db_dir)
    try:
        records = base_intervals(ctx)
        with server.client() as db:
            db.create("c")
            for start in range(0, len(records), params.LOAD_BATCH):
                # the reply carries the stored records: authoritative uids
                for stored in db.bulk_load("c", records[start:start + params.LOAD_BATCH]):
                    env.model[stored.uid] = stored
        env.conns = [WireConn(server.client(), shape) for _ in range(callers)]
    except BaseException:
        for conn in env.conns:
            conn.close()
        server.kill_group()
        raise
    return env


def open_wire_stab(ctx: Ctx, where: str) -> Env:
    return _open_served(ctx, where, stab_shape(), cluster=False, callers=1)


def open_wire_mixed(ctx: Ctx, where: str) -> Env:
    return _open_served(ctx, where, endpoint_shape(), cluster=False, callers=2)


def open_cluster_mixed(ctx: Ctx, where: str) -> Env:
    return _open_served(ctx, where, stab_shape(), cluster=True, callers=1)


# --------------------------------------------------------------------------- #
# the timed loops
# --------------------------------------------------------------------------- #
def run_until(conn: Any, stream: OpStream, deadline: float, max_ops: Optional[int],
              spans: Optional[List[Tuple[str, float, float]]] = None) -> List[Logged]:
    """The closed loop: issue ops until ``deadline`` (or ``max_ops``).

    Outcomes are kept, not inspected: verification happens later, outside
    any timed interval.  An op that raises is kept as its exception.
    """
    log: List[Logged] = []
    clock = time.perf_counter
    while max_ops is None or len(log) < max_ops:
        op = stream.next()
        start = clock()
        try:
            outcome = conn.apply(op)
        except Exception as exc:  # noqa: BLE001 - a failed op, counted by the verifier
            outcome = exc
        end = clock()
        stream.ack(op, outcome)
        log.append((op, outcome, start, end))
        if spans is not None:
            spans.append((op[0], start, end))
        if end >= deadline:
            break
    return log


@dataclass
class Slice:
    """One stretch of the timed phase: verified ops, wall time, read latencies."""

    ops: int
    seconds: float
    read_ms: List[float]


@dataclass
class Samples:
    """What the timed phase measured, after verification.

    The phase is cut into time slices, so that :meth:`quiet` can tell the
    stretches the host left alone from the ones it did not.
    """

    timed_s: float = 0.0
    read_ms: List[float] = field(default_factory=list)
    write_ms: List[float] = field(default_factory=list)
    slices: List[Slice] = field(default_factory=list)
    #: over the first COUNT_WINDOW verified reads of the stream
    window_reads: int = 0
    window_ios: int = 0
    window_bound: float = 0.0
    read_ios: int = 0
    shards_contacted: int = 0
    write_ios: int = 0
    verified: int = 0
    #: verified ops not yet folded into a slice: (kind, end, ms)
    _pending: List[Tuple[str, float, float]] = field(default_factory=list)

    def absorb(self, log: List[Logged], shape: Shape, verifier: Verifier,
               floating: Optional[Dict[int, Any]] = None) -> None:
        for op, outcome, start, end in log:
            ms = (end - start) * 1e3
            if op[0] == "read":
                ok = verifier.read(shape.bound(op[1], op[2]), outcome, floating)
                if not ok:
                    continue
                self.read_ms.append(ms)
                self.read_ios += outcome.ios
                raw = getattr(outcome, "raw", None)
                if raw:
                    self.shards_contacted += raw.get("shards_contacted", 0)
                if self.window_reads < params.COUNT_WINDOW and outcome.bound is not None:
                    self.window_reads += 1
                    self.window_ios += outcome.ios
                    self.window_bound += outcome.bound
            else:
                if op[0] == "insert":
                    ok = verifier.insert(outcome)
                else:
                    ok = verifier.delete(op[1], outcome)
                if not ok:
                    continue
                self.write_ms.append(ms)
                self.write_ios += outcome[1]
            self.verified += 1
            self._pending.append((op[0], end, ms))

    def close_slice(self, seconds: float, until: float = float("inf")) -> None:
        """Fold the verified ops that ended by ``until`` into a slice ``seconds`` long."""
        taken = [p for p in self._pending if p[1] <= until]
        self._pending = [p for p in self._pending if p[1] > until]
        self.timed_s += seconds
        if taken:
            reads = [ms for kind, _end, ms in taken if kind == "read"]
            self.slices.append(Slice(len(taken), seconds, reads))

    def quiet(self) -> Slice:
        """The QUIET_SHARE of slices with the highest throughput, as one.

        The sandbox shares its host, and whatever else runs there only ever
        *adds* time, in bursts of tenths of a second to seconds: over 20 s of
        ``wire_stab`` the 0.5 s slices ran from 265 to 443 ops/s, the fast
        ones within 2 % of each other.  Throughput and read latencies taken
        over the slices nearest the undisturbed program repeat from run to
        run where the whole phase does not — ``timeit``'s argument for the
        minimum, with several slices so that one lucky slice decides nothing.
        The price: a stall the program causes itself is left out too, so the
        whole-phase p95 and p99 are printed beside it.
        """
        ranked = sorted(self.slices, key=lambda s: s.ops / s.seconds, reverse=True)
        kept = ranked[: max(1, round(len(ranked) * params.QUIET_SHARE))]
        return Slice(sum(s.ops for s in kept), sum(s.seconds for s in kept),
                     [ms for s in kept for ms in s.read_ms])


def drive_single(env: Env, stream: OpStream, seconds: float, verifier: Verifier,
                 samples: Samples, spans: Optional[list] = None) -> None:
    """One caller; timed slices, verified in untimed passes every few hundred ops.

    Verifying by op count, not by slice, keeps what the harness holds — and
    so ``rss_mb`` of the embedded workloads — independent of the op rate.
    """
    budget = seconds / params.SLICES
    for _ in range(params.SLICES):
        spent = 0.0
        while spent < budget:
            start = time.perf_counter()
            log = run_until(env.conns[0], stream, start + budget - spent,
                            params.VERIFY_BATCH, spans)
            spent += log[-1][3] - start
            samples.absorb(log, env.shape, verifier)
        samples.close_slice(spent)


def drive_reader_writer(env: Env, reader: OpStream, writer: OpStream, seconds: float,
                        verifier: Verifier, samples: Samples,
                        spans: Optional[list] = None) -> None:
    """Two callers on two connections: a reader beside a durable writer.

    Exact answers are unknowable under the interleaving, so reads are held
    to exactness on what the writer left alone and ``extras ⊆ what it
    inserted or deleted meanwhile``.
    """
    logs: List[Any] = [None, None]
    gate = threading.Barrier(2)

    def caller(slot: int, stream: OpStream) -> None:
        try:
            gate.wait()
            logs[slot] = run_until(
                env.conns[slot], stream, time.perf_counter() + seconds, None, spans
            )
        except BaseException as exc:  # noqa: BLE001 - re-raised on the main thread
            logs[slot] = exc
            gate.abort()

    threads = [
        threading.Thread(target=caller, args=(0, reader), name="bench-reader"),
        threading.Thread(target=caller, args=(1, writer), name="bench-writer"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for log in logs:
        if isinstance(log, BaseException):
            raise log
    floating = {}
    for op, outcome, _start, _end in logs[1]:
        if not isinstance(outcome, BaseException):
            record = outcome[0] if op[0] == "insert" else op[1]
            floating[record.uid] = record
    samples.absorb(logs[1], env.shape, verifier)
    samples.absorb(logs[0], env.shape, verifier, floating)
    start = min(log[0][2] for log in logs)
    width = (max(log[-1][3] for log in logs) - start) / params.SLICES
    for k in range(params.SLICES):
        samples.close_slice(width, until=start + (k + 1) * width)


def streams_for(ctx: Ctx, env: Env, phase: str) -> List[OpStream]:
    """The op streams of ``ctx.workload`` (``phase`` separates warm-up from run)."""
    if ctx.workload == "wire_mixed":
        return [
            OpStream(env.shape, ctx.rng(f"{phase}:reads")),
            OpStream(None, ctx.rng(f"{phase}:writes"), write_every=1,
                     live_target=params.LIVE_TARGET // (params.SMOKE_N_DIVISOR if ctx.smoke else 1)),
        ]
    every = params.WRITE_EVERY if ctx.workload == "cluster_mixed" else 0
    return [OpStream(env.shape, ctx.rng(f"{phase}:ops"), write_every=every)]


def drive(ctx: Ctx, env: Env, streams: List[OpStream], seconds: float, verifier: Verifier,
          samples: Samples, spans: Optional[list] = None) -> None:
    if len(streams) == 2:
        drive_reader_writer(env, streams[0], streams[1], seconds, verifier, samples, spans)
    else:
        drive_single(env, streams[0], seconds, verifier, samples, spans)


def crash_and_recover(env: Env, verifier: Verifier) -> Dict[str, float]:
    """``SIGKILL`` the server, reopen its database, check nothing acknowledged is lost."""
    assert env.server is not None and env.db_dir is not None
    for conn in env.conns:
        conn.close()
    env.conns = []
    env.server.kill_group()
    env.server = None
    path = os.path.join(env.db_dir, "app.pages")
    wal_records = sum(1 for _ in read_log(path + ".wal"))
    start = time.perf_counter()
    engine = Engine.open(path)
    recovery_s = time.perf_counter() - start
    try:
        verifier.recovered(r.uid for r in engine["c"].records())
    finally:
        engine.close()
    return {"recovery_s": recovery_s, "wal_records": float(wal_records)}


OPEN: Dict[str, Callable[[Ctx, str], Env]] = {
    "embedded_stab": open_embedded_stab,
    "embedded_class": open_embedded_class,
    "wire_stab": open_wire_stab,
    "wire_mixed": open_wire_mixed,
    "cluster_mixed": open_cluster_mixed,
}


def percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def open_env(ctx: Ctx, *, once: bool = False) -> Tuple[Env, float]:
    """Set up several times, keep the last; the median set-up time.

    At least SETUP_REPEATS times and for SETUP_MIN_S in all (``once``: one
    set-up), so that the sub-second set-ups of the embedded workloads are
    repeated often enough for their median to sit still.
    """
    times: List[float] = []
    env: Optional[Env] = None
    while True:
        if env is not None:
            env.close()
        start = time.perf_counter()
        env = OPEN[ctx.workload](ctx, ctx.subdir(f"setup{len(times)}"))
        times.append(time.perf_counter() - start)
        enough = len(times) >= params.SETUP_REPEATS and sum(times) >= params.SETUP_MIN_S
        if once or enough or len(times) == params.SETUP_MAX_REPEATS:
            return env, statistics.median(times)


def warm_up(ctx: Ctx, env: Env, verifier: Verifier) -> None:
    """Fill caches and finish lazy set-up before anything is timed."""
    count = params.WARMUP_OPS // (5 if ctx.smoke else 1)
    for conn, stream in zip(env.conns, streams_for(ctx, env, "warmup")):
        log = run_until(conn, stream, float("inf"), count)
        Samples().absorb(log, env.shape, verifier)


def report(verifier: Verifier, metrics: Dict[str, float], units: Dict[str, str],
           info: Dict[str, float]) -> Dict[str, Any]:
    """Print every metric by name and unit; build the result object."""
    for name, unit in units.items():
        print(f"{name:44s} {metrics[name]:14.6f} {unit}")
    for name, value in info.items():
        print(f"  (info) {name:35s} {value:14.6f}")
    failed_frac = verifier.failed / max(1, verifier.attempted)
    print(f"ops_attempted {verifier.attempted}  ops_failed {verifier.failed}  "
          f"failed_frac {failed_frac:.6f}  {dict(verifier.reasons) or ''}")
    return {
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
