"""``ReproServer`` — the threaded TCP server over one shared engine.

Each client connection gets its own handler thread, its own
:class:`~repro.engine.session.EngineSession` (so its requests run under
the engine's readers-writer lock and its I/O is attributed per session),
and its own **prepared-handle registry**: ``prepare`` leases an integer
handle valid on that connection only; ``run`` executes it; a handle whose
underlying index was dropped or re-created surfaces the engine's
invalidation error as a structured ``stale_handle`` response instead of
tearing the connection down.

Consistency model served to clients: every request is one atomic turn —
queries drain inside a shared read turn (many clients in parallel),
writes take exclusive turns, and a reader therefore always sees the
record set as it stood between two write turns, never a half-applied
write.  See :mod:`repro.engine.session`.

The transport itself — the JSON-line framing, the per-connection loop,
the fault barrier, graceful shutdown — lives in :class:`JsonLineServer`,
which the cluster frontend (:mod:`repro.cluster.router`) reuses to speak
the identical protocol over N shards.  Run a single server with::

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
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs_tracer
from repro.obs.slowlog import SLOWLOG
from repro.server import protocol as P


class _ShutdownRequested(Exception):
    """Internal: a client asked the whole server to stop."""


class JsonLineServer:
    """The protocol transport: a threaded TCP server of JSON-line requests.

    Subclasses implement the *meaning* of messages by overriding three
    hooks — :meth:`_open_connection` (per-connection state),
    :meth:`_dispatch_message` (one request → one response dict) and
    :meth:`_close_connection` — while this base owns the line framing,
    the per-connection fault barrier (any exception becomes a structured
    error response, never a dropped connection), and the graceful
    shutdown dance (a handler raising :class:`_ShutdownRequested` acks
    the request, then unwinds ``serve_forever`` from a side thread).
    """

    #: name of the background serving thread (subclasses override)
    thread_name = "repro-server"
    #: metric namespace of this surface: the always-on per-command byte
    #: counters are ``<prefix>.bytes_in.<cmd>`` / ``<prefix>.bytes_out.<cmd>``
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

    def start(self) -> "JsonLineServer":
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

    def __enter__(self) -> "JsonLineServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # subclass hooks
    # ------------------------------------------------------------------ #
    def _open_connection(self) -> Any:
        """Per-connection state handed to every dispatch on that socket."""
        return None

    def _close_connection(self, conn: Any) -> None:
        """The connection ended (client gone or shutdown)."""

    def _dispatch_message(self, conn: Any, message: Dict[str, Any]) -> Dict[str, Any]:
        """One decoded request → one response dict (or raise)."""
        raise NotImplementedError

    def _on_close(self) -> None:
        """Extra teardown after the socket is released (engine, shards...)."""

    # ------------------------------------------------------------------ #
    # one connection
    # ------------------------------------------------------------------ #
    def _serve_connection(self, handler: socketserver.StreamRequestHandler) -> None:
        conn = self._open_connection()
        try:
            for line in handler.rfile:
                if not line.strip():
                    continue
                request_id = cmd = None
                try:
                    message = P.decode_message(line)
                    request_id, cmd = message.get("id"), message.get("cmd")
                    response = self._dispatch_message(conn, message)
                except _ShutdownRequested:
                    handler.wfile.write(
                        P.encode_message(P.ok_response(request_id, stopping=True))
                    )
                    handler.wfile.flush()
                    # unwind serve_forever from outside its own loop thread
                    threading.Thread(target=self.shutdown, daemon=True).start()
                    return
                except Exception as exc:  # noqa: BLE001 - fault barrier
                    response = P.error_response(request_id, exc)
                reply = P.encode_message(response)
                if cmd in P.COMMANDS:  # never a metric per garbage command name
                    # counted before the reply leaves, so whoever reads the
                    # reply also reads counters that include it
                    prefix = self.metrics_prefix
                    counter = obs_metrics.REGISTRY.counter
                    counter(f"{prefix}.bytes_in.{cmd}").inc(len(line))
                    counter(f"{prefix}.bytes_out.{cmd}").inc(len(reply))
                handler.wfile.write(reply)
                handler.wfile.flush()
        except (ConnectionError, BrokenPipeError, OSError):
            pass  # client went away mid-write; the session just ends
        finally:
            self._close_connection(conn)


class _Connection:
    """One client connection's engine-side state (session + leases)."""

    __slots__ = ("session", "leases", "lease_ids")

    def __init__(self, session: Any) -> None:
        self.session = session
        self.leases: Dict[int, Any] = {}
        self.lease_ids: Iterator[int] = itertools.count(1)


class ReproServer(JsonLineServer):
    """A concurrent JSON-line server over one :class:`~repro.engine.Engine`.

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
        self._connections: Iterator[int] = itertools.count(1)
        #: aggregate of departed sessions, so ``stats`` accounts for the
        #: whole serving history, not just currently-open connections
        self._retired: Dict[str, int] = {"sessions": 0, "requests": 0, "ios": 0}
        self._started_monotonic = time.monotonic()

    def uptime_s(self) -> float:
        """Seconds since this server object was constructed."""
        return round(time.monotonic() - self._started_monotonic, 3)

    def __enter__(self) -> "ReproServer":
        self.start()
        return self

    def _on_close(self) -> None:
        if self.close_engine:
            self.engine.close()

    # ------------------------------------------------------------------ #
    # connection state
    # ------------------------------------------------------------------ #
    def _open_connection(self) -> _Connection:
        conn = _Connection(self.engine.session())
        with self._sessions_lock:
            self._sessions[conn.session.session_id] = conn.session
        return conn

    def _close_connection(self, conn: _Connection) -> None:
        session = conn.session
        with self._sessions_lock:
            self._sessions.pop(session.session_id, None)
            self._retired["sessions"] += 1
            self._retired["requests"] += session.requests
            self._retired["ios"] += session.stats.total

    # ------------------------------------------------------------------ #
    # the request router
    # ------------------------------------------------------------------ #
    def _dispatch_message(self, conn: _Connection, message: Dict[str, Any]) -> Dict[str, Any]:
        return self._dispatch(conn.session, conn.leases, conn.lease_ids, message)

    def _dispatch(
        self,
        session: Any,
        leases: Dict[int, Any],
        lease_ids: Iterator[int],
        message: Dict[str, Any],
    ) -> Dict[str, Any]:
        cmd = message.get("cmd")
        request_id = message.get("id")
        handler = getattr(self, f"_cmd_{cmd}", None) if isinstance(cmd, str) else None
        if handler is None:
            raise P.ProtocolError(
                f"unknown command {cmd!r}; know {sorted(P.COMMANDS)}"
            )
        obs_metrics.REGISTRY.counter(f"server.ops.{cmd}").inc()
        t0 = time.perf_counter()
        response: Dict[str, Any] = handler(
            session, leases, lease_ids, request_id, message
        )
        obs_metrics.REGISTRY.histogram(f"server.latency_ms.{cmd}").observe(
            (time.perf_counter() - t0) * 1e3
        )
        return response

    @staticmethod
    def _result_payload(res: Any, *, with_records: bool = True) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "ios": res.ios,
            "stats": res.stats.as_dict(),
        }
        if with_records:
            out["records"] = P.records_to_wire(res.records)
            out["count"] = len(res.records)
        if res.bound is not None:
            out["bound"] = res.bound
        return out

    @staticmethod
    def _wire_records(message: Dict[str, Any], data: Any) -> Any:
        """Decode wire records, minting fresh uids unless ``keep_uids``.

        A router upstream mints authoritative uids itself and asks the
        shard to honour them (``keep_uids: true``); the shard then
        advances its own counters past the wire uids so nothing this
        process ever mints can collide with a router-named record.
        """
        from repro.engine.core import _advance_uid_counters

        keep = bool(message.get("keep_uids"))
        records = P.records_from_wire(data, fresh_uid=not keep)
        if keep:
            _advance_uid_counters(records)
        return records

    # -- control --------------------------------------------------------- #
    def _cmd_ping(self, session: Any, leases: Dict[int, Any],
                 lease_ids: Iterator[int], request_id: Any,
                 message: Dict[str, Any]) -> Dict[str, Any]:
        return P.ok_response(
            request_id, pong=True, version=P.PROTOCOL_VERSION,
            session=session.session_id,
        )

    def _cmd_shutdown(self, session: Any, leases: Dict[int, Any],
                     lease_ids: Iterator[int], request_id: Any,
                     message: Dict[str, Any]) -> Dict[str, Any]:
        raise _ShutdownRequested

    # -- namespace ------------------------------------------------------- #
    def _cmd_create(self, session: Any, leases: Dict[int, Any],
                   lease_ids: Iterator[int], request_id: Any,
                   message: Dict[str, Any]) -> Dict[str, Any]:
        name = _required(message, "index")
        kind = message.get("kind", "collection")
        records = self._wire_records(message, message.get("records", []))
        dynamic = bool(message.get("dynamic", True))
        if kind == "collection":
            res = session.create_collection(name, records, dynamic=dynamic)
        elif kind == "interval":
            res = session.create_interval_index(name, records, dynamic=dynamic)
        else:
            raise P.ProtocolError(
                f"unknown index kind {kind!r}; know ['collection', 'interval']"
            )
        return P.ok_response(
            request_id, index=name, kind=kind, loaded=len(records), ios=res.ios
        )

    def _cmd_drop(self, session: Any, leases: Dict[int, Any],
                 lease_ids: Iterator[int], request_id: Any,
                 message: Dict[str, Any]) -> Dict[str, Any]:
        name = _required(message, "index")
        res = session.drop_index(name)
        return P.ok_response(request_id, dropped=name, ios=res.ios)

    # -- reads ----------------------------------------------------------- #
    def _cmd_query(self, session: Any, leases: Dict[int, Any],
                  lease_ids: Iterator[int], request_id: Any,
                  message: Dict[str, Any]) -> Dict[str, Any]:
        name = _required(message, "index")
        q = P.query_from_wire(_required(message, "q"))
        res = session.query(name, q)
        return P.ok_response(request_id, **self._result_payload(res))

    def _cmd_explain(self, session: Any, leases: Dict[int, Any],
                    lease_ids: Iterator[int], request_id: Any,
                    message: Dict[str, Any]) -> Dict[str, Any]:
        name = _required(message, "index")
        q = P.query_from_wire(_required(message, "q"))
        plan = session.explain(name, q)
        return P.ok_response(
            request_id,
            plan={
                "kind": plan.kind,
                "index": plan.index,
                "bound": plan.bound.formula,
                "predicted": plan.predicted(0),
                "describe": plan.describe(),
            },
        )

    def _cmd_prepare(self, session: Any, leases: Dict[int, Any],
                    lease_ids: Iterator[int], request_id: Any,
                    message: Dict[str, Any]) -> Dict[str, Any]:
        name = _required(message, "index")
        q = P.query_from_wire(_required(message, "q"))
        prepared = session.prepare(name, q)
        handle = next(lease_ids)
        leases[handle] = prepared
        return P.ok_response(
            request_id, handle=handle, index=name, params=prepared.params
        )

    def _cmd_run(self, session: Any, leases: Dict[int, Any],
                lease_ids: Iterator[int], request_id: Any,
                message: Dict[str, Any]) -> Dict[str, Any]:
        handle = _required(message, "handle")
        prepared = leases.get(handle)
        if prepared is None:
            raise P.StaleHandleError(
                f"no prepared handle {handle!r} on this connection; "
                "handles are leased per connection by 'prepare'"
            )
        params = message.get("params", {})
        if not isinstance(params, dict):
            raise P.ProtocolError("'params' must be an object of name -> value")
        try:
            res = session.run(prepared, **params)
        except (KeyError, RuntimeError) as exc:
            detail = exc.args[0] if exc.args and isinstance(exc.args[0], str) else ""
            # only the prepared-query liveness checks kill a lease: the
            # engine's "no index named ..." KeyError (dropped) and the
            # identity check's "... call Engine.prepare again" RuntimeError
            # (name re-bound).  Anything else — bad bindings, execution
            # errors — propagates with its own classification and leaves
            # the lease alive.
            stale = (
                isinstance(exc, KeyError) and "no index named" in detail
            ) or (
                isinstance(exc, RuntimeError) and "prepare" in detail
            )
            if not stale:
                raise
            leases.pop(handle, None)
            raise P.StaleHandleError(
                f"prepared handle {handle} is stale: " + (detail or repr(exc))
            ) from exc
        payload = self._result_payload(res)
        if res.from_cache is not None:
            payload["from_cache"] = res.from_cache
        return P.ok_response(request_id, **payload)

    # -- writes ---------------------------------------------------------- #
    def _cmd_insert(self, session: Any, leases: Dict[int, Any],
                   lease_ids: Iterator[int], request_id: Any,
                   message: Dict[str, Any]) -> Dict[str, Any]:
        name = _required(message, "index")
        [record] = self._wire_records(message, [_required(message, "record")])
        res = session.insert(name, record)
        return P.ok_response(
            request_id, record=P.record_to_row(record), ios=res.ios
        )

    def _cmd_delete(self, session: Any, leases: Dict[int, Any],
                   lease_ids: Iterator[int], request_id: Any,
                   message: Dict[str, Any]) -> Dict[str, Any]:
        name = _required(message, "index")
        if "record" in message:
            record = P.record_from_dict(message["record"])
            res = session.delete(name, record)
            removed = 1 if res.records and res.records[0] else 0
            return P.ok_response(request_id, removed=removed, ios=res.ios)
        if "q" in message:
            q = P.query_from_wire(message["q"])
            res = session.delete_matching(name, q, limit=message.get("limit"))
            return P.ok_response(
                request_id,
                removed=len(res.records),
                records=P.records_to_wire(res.records),
                ios=res.ios,
            )
        raise P.ProtocolError("'delete' takes a 'record' or a 'q' selector")

    def _cmd_bulk_load(self, session: Any, leases: Dict[int, Any],
                      lease_ids: Iterator[int], request_id: Any,
                      message: Dict[str, Any]) -> Dict[str, Any]:
        name = _required(message, "index")
        records = self._wire_records(message, _required(message, "records"))
        res = session.bulk_load(name, records)
        return P.ok_response(
            request_id,
            loaded=len(records),
            records=P.records_to_wire(records),
            ios=res.ios,
        )

    # -- accounting ------------------------------------------------------ #
    def _cmd_stats(self, session: Any, leases: Dict[int, Any],
                  lease_ids: Iterator[int], request_id: Any,
                  message: Dict[str, Any]) -> Dict[str, Any]:
        with self._sessions_lock:
            per_session = {
                str(sid): {
                    "requests": s.requests,
                    **s.io_snapshot().as_dict(),
                }
                for sid, s in sorted(self._sessions.items())
            }
            retired = dict(self._retired)
        return P.ok_response(
            request_id,
            retired=retired,
            session={
                "id": session.session_id,
                "requests": session.requests,
                **session.io_snapshot().as_dict(),
            },
            sessions=per_session,
            engine={
                "block_size": self.engine.block_size,
                "indexes": self.engine.names(),
                "blocks": self.engine.block_count(),
                "uid_horizon": self.engine.uid_horizon(),
                **self.engine.io_stats().snapshot().as_dict(),
            },
            epochs=self.engine.epochs.as_dict(),
            wal=(None if self.engine.wal is None else self.engine.wal.as_dict()),
            uptime_s=self.uptime_s(),
        )

    def _cmd_metrics(self, session: Any, leases: Dict[int, Any],
                    lease_ids: Iterator[int], request_id: Any,
                    message: Dict[str, Any]) -> Dict[str, Any]:
        """The observability export: everything ``repro top`` needs in one
        round-trip — the metrics registry snapshot, plan-cache hit ratio,
        WAL group-absorption, epoch-pin age, tracer/slow-query state."""
        epochs = self.engine.epochs.as_dict()
        epochs["pin_age_s"] = self.engine.epochs.pin_age_s()
        return P.ok_response(
            request_id,
            uptime_s=self.uptime_s(),
            metrics=obs_metrics.REGISTRY.snapshot(),
            plan_cache=self.engine.plan_cache_info(),
            wal=(None if self.engine.wal is None else self.engine.wal.as_dict()),
            epochs=epochs,
            tracer=obs_tracer.TRACER.stats_dict(),
            slowlog=SLOWLOG.stats_dict(),
        )


def _required(message: Dict[str, Any], key: str) -> Any:
    try:
        return message[key]
    except KeyError:
        raise P.ProtocolError(
            f"command {message.get('cmd')!r} requires {key!r}"
        ) from None
