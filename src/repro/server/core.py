"""``JsonLineServer`` — the one place a request enters, and ``ReproServer``.

:class:`JsonLineServer` owns everything about a request that does not
depend on *what* executes it: the JSON-line framing, the per-connection
loop and fault barrier, graceful shutdown, the **command table** (one row
per entry of :data:`~repro.server.protocol.COMMANDS`: the fields the
message carries, their types, the decode into engine values — checked
once, then one call) and the per-connection **prepared-handle registry**
(``prepare`` leases an integer handle valid on that connection only;
``run`` executes it; a handle whose index was dropped or re-created
becomes a structured ``stale_handle`` instead of tearing the connection
down).  What a command *does* is an :class:`Executor`: thirteen methods
returning response payloads, implemented exactly twice —
:class:`SessionExecutor` here, over one
:class:`~repro.engine.session.EngineSession` per connection, and
:class:`~repro.cluster.router.ShardRouter` over N shards.  A single
server and a cluster frontend therefore parse, validate, lease, count
and classify errors with the same code, and cannot drift.

Consistency model served to clients: every request is one atomic turn —
queries drain inside a shared read turn (many clients in parallel),
writes take exclusive turns, and a reader therefore always sees the
record set as it stood between two write turns, never a half-applied
write.  See :mod:`repro.engine.session`.

Run a single server with::

    python -m repro serve --port 7411 --n 10000

or embed it (the tests do)::

    server = ReproServer(engine)
    server.start()                    # background thread
    ... ReproClient(*server.address) ...
    server.close()
"""

from __future__ import annotations

import itertools
import socketserver
import threading
import time
from contextlib import contextmanager
from typing import (
    Any, Callable, ContextManager, Dict, Iterator, List, NamedTuple, Optional,
    Protocol, Tuple, TypeVar,
)

from repro.engine.core import _advance_uid_counters
from repro.errors import StalePreparedError, UnknownIndexError
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs_tracer
from repro.obs.slowlog import SLOWLOG
from repro.server import protocol as P

Payload = Dict[str, Any]
_Server = TypeVar("_Server", bound="JsonLineServer")


class Executor(Protocol):
    """What executes a validated command: one method per routed command.

    Arguments arrive decoded (queries are algebra nodes, records are
    record objects carrying the uid the write must use); every method
    returns the response payload.  :meth:`prepare` additionally hands
    back the *lease* — whatever the executor needs to run the query
    again — which the server keeps per connection behind an integer
    handle and passes to :meth:`run`; ``run`` raises
    :class:`~repro.errors.UnknownIndexError` /
    :class:`~repro.errors.StalePreparedError` when the leased index is
    gone, and the server turns exactly those into ``stale_handle``.
    """

    def ping(self) -> Payload: ...
    def create(self, index: str, kind: str, records: List[Any], dynamic: bool) -> Payload: ...
    def drop(self, index: str) -> Payload: ...
    def query(self, index: str, q: Any) -> Payload: ...
    def explain(self, index: str, q: Any) -> Payload: ...
    def prepare(self, index: str, q: Any) -> Tuple[Any, Payload]: ...
    def run(self, lease: Any, params: Dict[str, Any]) -> Payload: ...
    def insert(self, index: str, record: Any) -> Payload: ...
    def delete_record(self, index: str, record: Any) -> Payload: ...
    def delete_matching(self, index: str, q: Any, limit: Optional[int]) -> Payload: ...
    def bulk_load(self, index: str, records: List[Any]) -> Payload: ...
    def stats(self) -> Payload: ...
    def metrics(self) -> Payload: ...


class _Connection:
    """One client connection: its executor, its leases, its accounting."""

    __slots__ = ("id", "executor", "leases", "lease_ids", "requests")

    def __init__(self, conn_id: int, executor: Executor) -> None:
        self.id = conn_id
        self.executor = executor
        self.leases: Dict[int, Any] = {}
        self.lease_ids: Iterator[int] = itertools.count(1)
        self.requests = 0


# --------------------------------------------------------------------------- #
# the command table
# --------------------------------------------------------------------------- #
_REQUIRED: Any = object()

#: the :data:`~repro.engine.core.KINDS` that have a wire record form
INDEX_KINDS = ("collection", "interval")


class _Field(NamedTuple):
    """One request field: its JSON type(s), its default (or required),
    and the decode from wire form (``None``: the value as it is)."""

    name: str
    types: Tuple[type, ...]
    default: Any = _REQUIRED
    decode: Optional[Callable[[Any], Any]] = None

    def read(self, cmd: str, message: Dict[str, Any]) -> Any:
        """This field of ``message``, type-checked and decoded (or its default)."""
        value = message.get(self.name)
        if value is None:
            if self.default is _REQUIRED:
                raise P.ProtocolError(f"command {cmd!r} requires {self.name!r}")
            return self.default
        if type(value) not in self.types:  # exact: a bool is no int
            raise P.ProtocolError(
                f"{self.name!r} must be "
                f"{' or '.join(t.__name__ for t in self.types)}, "
                f"not {type(value).__name__}"
            )
        return value if self.decode is None else self.decode(value)


class _Row(NamedTuple):
    """One command: its fields, and the call they are the keywords of."""

    fields: Tuple[_Field, ...]
    call: Callable[..., Payload]

    def parse(self, cmd: str, message: Dict[str, Any]) -> Dict[str, Any]:
        return {field.name: field.read(cmd, message) for field in self.fields}


def _index_kind(kind: str) -> str:
    if kind not in INDEX_KINDS:
        raise P.ProtocolError(
            f"unknown index kind {kind!r}; know {list(INDEX_KINDS)}"
        )
    return kind


def _limit(limit: int) -> int:
    if limit < 0:
        raise P.ProtocolError(f"'limit' must be non-negative, not {limit}")
    return limit


def _records(data: List[Any], keep_uids: bool) -> List[Any]:
    """Decode wire records, minting fresh uids unless ``keep_uids``.

    A router upstream has minted authoritative uids already and asks the
    shard to honour them (``keep_uids: true``); this process then
    advances its own counters past the wire uids so nothing it ever mints
    can collide with a router-named record.
    """
    records = P.records_from_wire(data, fresh_uid=not keep_uids)
    if keep_uids:
        _advance_uid_counters(records)
    return records


def _prepare(conn: _Connection, index: str, q: Any) -> Payload:
    lease, payload = conn.executor.prepare(index, q)
    handle = next(conn.lease_ids)
    conn.leases[handle] = lease
    return {"handle": handle, **payload}


def _run(conn: _Connection, handle: int, params: Dict[str, Any]) -> Payload:
    lease = conn.leases.get(handle)
    if lease is None:
        raise P.StaleHandleError(
            f"no prepared handle {handle!r} on this connection; "
            "handles are leased per connection by 'prepare'"
        )
    try:
        return conn.executor.run(lease, params)
    except (UnknownIndexError, StalePreparedError) as exc:
        # only the leased index going away (dropped, or its name re-bound)
        # kills a lease; bad bindings and execution errors propagate with
        # their own classification and leave it alive
        del conn.leases[handle]
        raise P.StaleHandleError(
            f"prepared handle {handle} is stale: {P.error_message(exc)}"
        ) from exc


def _delete(
    conn: _Connection, index: str, record: Any, q: Any, limit: Optional[int]
) -> Payload:
    if record is not None:
        return conn.executor.delete_record(index, record)
    if q is not None:
        return conn.executor.delete_matching(index, q, limit)
    raise P.ProtocolError("'delete' takes a 'record' or a 'q' selector")


_INDEX = _Field("index", (str,))
_Q = _Field("q", (dict,), decode=P.query_from_wire)
_KEEP_UIDS = _Field("keep_uids", (bool,), False)
#: any command may carry it: the reply's records then leave as a record
#: frame (``protocol.encode_reply``); it changes nothing a command does
_FRAMES = _Field("frames", (bool,), False)

#: command -> row.  Defaults are shared objects: nothing mutates a field.
COMMAND_TABLE: Dict[str, _Row] = {
    "ping": _Row((), lambda c: c.executor.ping()),
    "create": _Row(
        (
            _INDEX,
            _Field("kind", (str,), "collection", _index_kind),
            _Field("records", (list,), []),
            _Field("dynamic", (bool,), True),
            _KEEP_UIDS,
        ),
        lambda c, index, kind, records, dynamic, keep_uids: c.executor.create(
            index, kind, _records(records, keep_uids), dynamic
        ),
    ),
    "query": _Row((_INDEX, _Q), lambda c, index, q: c.executor.query(index, q)),
    "prepare": _Row((_INDEX, _Q), _prepare),
    "run": _Row((_Field("handle", (int,)), _Field("params", (dict,), {})), _run),
    "insert": _Row(
        (_INDEX, _Field("record", (list, dict)), _KEEP_UIDS),
        lambda c, index, record, keep_uids: c.executor.insert(
            index, _records([record], keep_uids)[0]
        ),
    ),
    "delete": _Row(
        (
            _INDEX,
            # the wire uid *is* the name of the record to delete
            _Field("record", (list, dict), None, P.record_from_dict),
            _Field("q", (dict,), None, P.query_from_wire),
            _Field("limit", (int,), None, _limit),
        ),
        _delete,
    ),
    "bulk_load": _Row(
        (_INDEX, _Field("records", (list,)), _KEEP_UIDS),
        lambda c, index, records, keep_uids: c.executor.bulk_load(
            index, _records(records, keep_uids)
        ),
    ),
    "explain": _Row((_INDEX, _Q), lambda c, index, q: c.executor.explain(index, q)),
    "stats": _Row((), lambda c: c.executor.stats()),
    "metrics": _Row((), lambda c: c.executor.metrics()),
    "drop": _Row((_INDEX,), lambda c, index: c.executor.drop(index)),
    # acked like any command; the connection loop then stops the server
    "shutdown": _Row((), lambda c: {"stopping": True}),
}


class JsonLineServer:
    """A threaded TCP server of JSON-line requests over an :class:`Executor`.

    Subclasses say *which* executor serves a connection
    (:meth:`_connection`) and what to tear down afterwards
    (:meth:`_on_close`); this base owns the line framing, the command
    table dispatch, the per-connection fault barrier (any exception,
    encoding the reply included, becomes a structured error response,
    never a dropped connection), the one reply encoder
    (:func:`~repro.server.protocol.encode_reply`: rows, or a record frame
    when the request asked), the
    always-on per-command metrics, and the graceful shutdown dance (the
    loop acks a ``shutdown`` request, then unwinds ``serve_forever`` from
    a side thread).
    """

    #: name of the background serving thread (subclasses override)
    thread_name = "repro-server"
    #: metric namespace of this surface: the always-on per-command metrics
    #: are ``<prefix>.ops.<cmd>`` / ``<prefix>.latency_ms.<cmd>`` /
    #: ``<prefix>.bytes_in.<cmd>`` / ``<prefix>.bytes_out.<cmd>``
    metrics_prefix = "server"

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        outer = self

        class _Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:  # pragma: no cover - thread body
                outer._serve_connection(self)

        class _TCP(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True
            # a fleet of closed-loop clients (or a router's connection
            # pools) dials in bursts; the default backlog of 5 turns the
            # excess into refused connections and retry backoff
            request_queue_size = 64

        self._tcp = _TCP((host, port), _Handler)
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        #: whether serve_forever ran (shutdown on a never-served TCPServer
        #: would wait forever on its is-shut-down event)
        self._served = False
        self._conn_ids: Iterator[int] = itertools.count(1)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — resolves ``port=0`` to the real one."""
        host, port = self._tcp.server_address[:2]
        return str(host), int(port)

    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` (blocking; what the CLI calls).

        If :meth:`start` already runs the loop from its background
        thread, this *waits* on that thread instead of entering a second
        ``socketserver`` loop — two concurrent loops race on shutdown
        (the first to wake clears the shutdown flag in its ``finally``
        and strands the other in its poll loop forever).  The wait polls
        so signal handlers (SIGTERM → KeyboardInterrupt) still fire.
        """
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            while thread.is_alive():
                thread.join(timeout=0.2)
            return
        self._served = True
        self._tcp.serve_forever(poll_interval=0.1)

    def start(self: _Server) -> _Server:
        """Serve from a daemon background thread (embedding / tests)."""
        if self._thread is None:
            self._served = True  # the thread enters serve_forever
            self._thread = threading.Thread(
                target=self.serve_forever, name=self.thread_name, daemon=True
            )
            self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop accepting and unwind ``serve_forever`` (graceful)."""
        if self._served:
            self._tcp.shutdown()

    def close(self) -> None:
        """Shut down, release the socket, then run :meth:`_on_close`."""
        if self._closed:
            return
        self._closed = True
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._tcp.server_close()
        self._on_close()

    def __enter__(self: _Server) -> _Server:
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # subclass hooks
    # ------------------------------------------------------------------ #
    def _connection(self) -> ContextManager[Executor]:
        """A context manager yielding the :class:`Executor` that serves one
        client connection, for as long as that connection lives."""
        raise NotImplementedError

    def _execute(
        self, conn: _Connection, cmd: str, row: _Row, message: Dict[str, Any]
    ) -> Payload:
        """Validate one request against its row and make the one call."""
        return row.call(conn, **row.parse(cmd, message))

    def _on_close(self) -> None:
        """Extra teardown after the socket is released (engine, shards...)."""

    # ------------------------------------------------------------------ #
    # one connection
    # ------------------------------------------------------------------ #
    def _dispatch(self, conn: _Connection, message: Dict[str, Any]) -> Dict[str, Any]:
        """One decoded request → one response dict (or raise)."""
        cmd = message.get("cmd")
        row = COMMAND_TABLE.get(cmd) if isinstance(cmd, str) else None
        if row is None:
            raise P.ProtocolError(
                f"unknown command {cmd!r}; know {sorted(P.COMMANDS)}"
            )
        conn.requests += 1
        prefix = self.metrics_prefix
        obs_metrics.REGISTRY.counter(f"{prefix}.ops.{cmd}").inc()
        t0 = time.perf_counter()
        payload = self._execute(conn, cmd, row, message)
        obs_metrics.REGISTRY.histogram(f"{prefix}.latency_ms.{cmd}").observe(
            (time.perf_counter() - t0) * 1e3
        )
        return P.ok_response(message.get("id"), **payload)

    def _serve_connection(self, handler: socketserver.StreamRequestHandler) -> None:
        try:
            with self._connection() as executor:
                conn = _Connection(next(self._conn_ids), executor)
                for line in handler.rfile:
                    if not line.strip():
                        continue
                    request_id = cmd = None
                    try:
                        message = P.decode_message(line)
                        request_id, cmd = message.get("id"), message.get("cmd")
                        frames = _FRAMES.read(cmd, message)
                        response = self._dispatch(conn, message)
                        # inside the barrier: a payload no codec can carry is
                        # this request's error, not the connection's end
                        reply = P.encode_reply(response, frames)
                    except Exception as exc:  # noqa: BLE001 - fault barrier
                        response = P.error_response(request_id, exc)
                        reply = P.encode_reply(response)
                    if cmd in P.COMMANDS:  # never a metric per garbage command name
                        # counted before the reply leaves, so whoever reads the
                        # reply also reads counters that include it
                        prefix = self.metrics_prefix
                        counter = obs_metrics.REGISTRY.counter
                        counter(f"{prefix}.bytes_in.{cmd}").inc(len(line))
                        counter(f"{prefix}.bytes_out.{cmd}").inc(len(reply))
                    handler.wfile.write(reply)  # unbuffered: one sendall
                    handler.wfile.flush()
                    if cmd == "shutdown" and response["ok"]:
                        # unwind serve_forever from outside its own loop thread
                        threading.Thread(target=self.shutdown, daemon=True).start()
                        return
        except (ConnectionError, BrokenPipeError, OSError):
            pass  # client went away mid-write; the session just ends


def _result_payload(res: Any) -> Payload:
    # the answer as read: a frames reply packs its page columns unbuilt
    out: Payload = {
        "ios": res.ios,
        "stats": res.stats.as_dict(),
        "records": res.hits,
        "count": len(res),
    }
    if res.bound is not None:
        out["bound"] = res.bound
    return out


class SessionExecutor(Executor):
    """One connection's :class:`~repro.engine.session.EngineSession` as an
    :class:`Executor` (so its requests run as the session's atomic turns
    and its I/O is attributed per connection)."""

    def __init__(self, server: "ReproServer", session: Any) -> None:
        self.server = server
        self.session = session

    # -- control --------------------------------------------------------- #
    def ping(self) -> Payload:
        return {
            "pong": True,
            "version": P.PROTOCOL_VERSION,
            "session": self.session.session_id,
        }

    # -- namespace ------------------------------------------------------- #
    def create(
        self, index: str, kind: str, records: List[Any], dynamic: bool
    ) -> Payload:
        res = self.session.create(index, kind, records, dynamic=dynamic)
        return {"index": index, "kind": kind, "loaded": len(records), "ios": res.ios}

    def drop(self, index: str) -> Payload:
        return {"dropped": index, "ios": self.session.drop_index(index).ios}

    # -- reads ----------------------------------------------------------- #
    def query(self, index: str, q: Any) -> Payload:
        return _result_payload(self.session.query(index, q))

    def explain(self, index: str, q: Any) -> Payload:
        plan = self.session.explain(index, q)
        return {
            "plan": {
                "kind": plan.kind,
                "index": plan.index,
                "bound": plan.bound.formula,
                "predicted": plan.predicted(0),
                "describe": plan.describe(),
            },
        }

    def prepare(self, index: str, q: Any) -> Tuple[Any, Payload]:
        prepared = self.session.prepare(index, q)
        return prepared, {"index": index, "params": prepared.params}

    def run(self, lease: Any, params: Dict[str, Any]) -> Payload:
        res = self.session.run(lease, **params)
        payload = _result_payload(res)
        if res.from_cache is not None:
            payload["from_cache"] = res.from_cache
        return payload

    # -- writes ---------------------------------------------------------- #
    def insert(self, index: str, record: Any) -> Payload:
        res = self.session.insert(index, record)
        return {"record": P.record_to_row(record), "ios": res.ios}

    def delete_record(self, index: str, record: Any) -> Payload:
        res = self.session.delete(index, record)
        removed = 1 if res.records and res.records[0] else 0
        return {"removed": removed, "ios": res.ios}

    def delete_matching(self, index: str, q: Any, limit: Optional[int]) -> Payload:
        res = self.session.delete_matching(index, q, limit=limit)
        return {
            "removed": len(res.records),
            "records": res.records,
            "ios": res.ios,
        }

    def bulk_load(self, index: str, records: List[Any]) -> Payload:
        res = self.session.bulk_load(index, records)
        return {
            "loaded": len(records),
            "records": records,
            "ios": res.ios,
        }

    # -- accounting ------------------------------------------------------ #
    def stats(self) -> Payload:
        server, session, engine = self.server, self.session, self.server.engine
        per_session, retired = server.session_accounting()
        return {
            "retired": retired,
            "session": {
                "id": session.session_id,
                "requests": session.requests,
                **session.io_snapshot().as_dict(),
            },
            "sessions": per_session,
            "engine": {
                "block_size": engine.block_size,
                "indexes": engine.names(),
                "blocks": engine.block_count(),
                "uid_horizon": engine.uid_horizon(),
                **engine.io_stats().snapshot().as_dict(),
            },
            "epochs": engine.epochs.as_dict(),
            "wal": None if engine.wal is None else engine.wal.as_dict(),
            "uptime_s": server.uptime_s(),
        }

    def metrics(self) -> Payload:
        """The observability export: everything ``repro top`` needs in one
        round-trip — the metrics registry snapshot, plan-cache hit ratio,
        WAL group-absorption, epoch-pin age, tracer/slow-query state."""
        engine = self.server.engine
        epochs = engine.epochs.as_dict()
        epochs["pin_age_s"] = engine.epochs.pin_age_s()
        return {
            "uptime_s": self.server.uptime_s(),
            "metrics": obs_metrics.REGISTRY.snapshot(),
            "plan_cache": engine.plan_cache_info(),
            "wal": None if engine.wal is None else engine.wal.as_dict(),
            "epochs": epochs,
            "tracer": obs_tracer.TRACER.stats_dict(),
            "slowlog": SLOWLOG.stats_dict(),
        }


class ReproServer(JsonLineServer):
    """A concurrent JSON-line server over one :class:`~repro.engine.Engine`.

    Each client connection gets its own handler thread and its own
    :class:`SessionExecutor`.

    Parameters
    ----------
    engine:
        The shared engine.  The server does not own it unless
        ``close_engine`` — callers that hand over a persistent engine
        usually want the server's shutdown to checkpoint-and-close it.
    host / port:
        Bind address; port ``0`` picks a free port (see :attr:`address`).
    close_engine:
        When true, :meth:`close` also calls ``engine.close()``.
    """

    def __init__(
        self,
        engine: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        close_engine: bool = False,
    ) -> None:
        super().__init__(host, port)
        self.engine = engine
        self.close_engine = close_engine
        #: live sessions by id (what the ``stats`` command reports)
        self._sessions: Dict[int, Any] = {}
        self._sessions_lock = threading.Lock()
        #: aggregate of departed sessions, so ``stats`` accounts for the
        #: whole serving history, not just currently-open connections
        self._retired: Dict[str, int] = {"sessions": 0, "requests": 0, "ios": 0}
        self._started_monotonic = time.monotonic()

    def uptime_s(self) -> float:
        """Seconds since this server object was constructed."""
        return round(time.monotonic() - self._started_monotonic, 3)

    def session_accounting(self) -> Tuple[Dict[str, Any], Dict[str, int]]:
        """``(live sessions by id, the departed ones' aggregate)``."""
        with self._sessions_lock:
            per_session = {
                str(sid): {"requests": s.requests, **s.io_snapshot().as_dict()}
                for sid, s in sorted(self._sessions.items())
            }
            return per_session, dict(self._retired)

    def _on_close(self) -> None:
        if self.close_engine:
            self.engine.close()

    @contextmanager
    def _connection(self) -> Iterator[Executor]:
        session = self.engine.session()
        with self._sessions_lock:
            self._sessions[session.session_id] = session
        try:
            yield SessionExecutor(self, session)
        finally:
            with self._sessions_lock:
                del self._sessions[session.session_id]
                self._retired["sessions"] += 1
                self._retired["requests"] += session.requests
                self._retired["ios"] += session.stats.total
