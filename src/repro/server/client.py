"""``ReproClient`` — the blocking JSON-line client for :class:`ReproServer`.

One socket, one request in flight at a time (the protocol is strictly
request/response per connection; open several clients for parallelism —
that is exactly what the concurrent workload driver does; a router
calls ``call``'s halves, ``send`` and ``receive``, apart).  Records go
out as ``[low, high, payload, uid]`` rows; the calls that get records back
(``query`` / ``run`` / ``bulk_load`` / ``delete(q=)``) ask for them as a
**record frame** (``"frames": true``, see :mod:`repro.server.protocol`)
and accept rows from a server that does not know the field.  Either way
``query`` / ``run`` / ``bulk_load`` hand them back as real
:class:`~repro.interval.Interval` objects — built and validated
(endpoints finite and in order, uid an ``int``) before the call returns —
whose uids are the server's authoritative record names: pass them
straight back to :meth:`~ReproClient.delete` (whose own reply, for
``q=``, lists what it removed as rows).  A raw
:meth:`~ReproClient.call` gets rows unless it passes ``frames=True``
itself, in which case ``response["records"]`` is the verified
:class:`~repro.server.protocol.RecordFrame`.

After any transport failure inside ``send`` or ``receive`` — a timeout,
a short read, an undecodable reply, a reply to another request — the
client closes its socket: it no longer knows where the next reply starts,
so every later call raises :class:`ConnectionError` at once.  A structured
error (:class:`ServerError`) leaves the connection usable.

>>> with ReproClient("127.0.0.1", 7411) as db:          # doctest: +SKIP
...     db.create("ivs", records=[Interval(1, 5)])
...     stab = db.prepare("ivs", Stab(Param("x")))
...     hits = stab.run(x=3.0)
...     print(hits.count, hits.ios, hits.bound)
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.server import protocol as P


class ServerError(RuntimeError):
    """A structured error response from the server.

    ``code`` is the protocol's classification (one of
    :data:`~repro.server.protocol.ERROR_CODES`: ``bad_request`` /
    ``conflict`` / ``internal`` / ``shard_unavailable`` / ``stale_handle``
    / ``unknown_index``), ``type`` the server-side exception class name.
    """

    def __init__(self, code: str, type_: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.type = type_

    def __str__(self) -> str:
        return f"[{self.code}/{self.type}] {super().__str__()}"


@dataclass
class ClientResult:
    """One answered request: records plus the server's per-request accounting."""

    records: List[Any] = field(default_factory=list)
    ios: int = 0
    bound: Optional[float] = None
    stats: Dict[str, Any] = field(default_factory=dict)
    from_cache: Optional[bool] = None
    raw: Dict[str, Any] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class PreparedHandle:
    """A prepared-query lease on one connection (see ``prepare``)."""

    client: "ReproClient"
    handle: int
    index: str
    params: List[str]

    def run(self, **params: Any) -> ClientResult:
        return self.client.run(self, **params)


def _reply_records(response: Dict[str, Any]) -> List[Any]:
    """The reply's records, built and validated: out of its record frame,
    or row by row when the server answered rows."""
    records = response.get("records", [])
    if isinstance(records, P.RecordFrame):
        return records.records()
    return [P.record_from_dict(d) for d in records]


class ReproClient:
    """A blocking client for one server connection.

    Connecting retries refused/unreachable sockets with **capped, jittered
    exponential backoff** (``connect_retries`` extra attempts, delays of
    ``retry_base * 2^k`` seconds capped at ``retry_cap``, each scaled by a
    uniform 50–100% jitter so a thundering herd of clients spreads out).
    That absorbs the startup race against a server/router that just
    printed its address, and shard restarts behind a router, without
    masking a genuinely-down server for more than ~a second by default.
    Pass ``connect_retries=0`` for the old fail-fast behaviour.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: Optional[float] = 60.0,
        connect_retries: int = 3,
        retry_base: float = 0.05,
        retry_cap: float = 1.0,
    ) -> None:
        attempt = 0
        while True:
            try:
                self._sock = socket.create_connection((host, port), timeout=timeout)
                break
            except OSError:
                if attempt >= max(connect_retries, 0):
                    raise
                delay = min(retry_cap, retry_base * (2 ** attempt))
                time.sleep(delay * (0.5 + random.random() / 2))
                attempt += 1
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")
        self._next_id = 0

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def call(self, cmd: str, **payload: Any) -> Dict[str, Any]:
        """Send one command, wait for its response, unwrap errors."""
        return self.receive(self.send(cmd, **payload))

    def send(self, cmd: str, **payload: Any) -> int:
        """Write one request, not waiting for the reply; its id, which one
        :meth:`receive` must read before the next ``send``."""
        if cmd not in P.COMMANDS:
            raise ValueError(f"unknown command {cmd!r}; know {sorted(P.COMMANDS)}")
        if self._rfile.closed:
            raise ConnectionError("this connection was closed")
        self._next_id += 1
        try:
            self._wfile.write(P.encode_message({"id": self._next_id, "cmd": cmd, **payload}))
            self._wfile.flush()
        except OSError:  # the server may have half a request
            self.close()
            raise
        return self._next_id

    def receive(self, request_id: int) -> Dict[str, Any]:
        """Read the reply to the request :meth:`send` numbered ``request_id``."""
        try:
            response = P.read_reply(self._rfile)
            if response.get("id") != request_id:
                raise ConnectionError(
                    f"response id {response.get('id')!r} does not match "
                    f"request id {request_id!r}"
                )
        except (OSError, P.ProtocolError):
            # timeout, short read, undecodable reply: this side no longer knows
            # where the next reply starts, so nothing may be read from here on
            self.close()
            raise
        if not response.get("ok"):
            error = response.get("error", {})
            raise ServerError(
                error.get("code", "internal"),
                error.get("type", "Exception"),
                error.get("message", "unknown server error"),
            )
        return response

    def close(self) -> None:
        for closer in (self._wfile.close, self._rfile.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # the command surface
    # ------------------------------------------------------------------ #
    @staticmethod
    def _result(response: Dict[str, Any]) -> ClientResult:
        return ClientResult(
            records=_reply_records(response),
            ios=response.get("ios", 0),
            bound=response.get("bound"),
            stats=response.get("stats", {}),
            from_cache=response.get("from_cache"),
            raw=response,
        )

    def ping(self) -> Dict[str, Any]:
        return self.call("ping")

    def create(
        self,
        index: str,
        records: List[Any] = (),
        *,
        kind: str = "collection",
        dynamic: bool = True,
    ) -> Dict[str, Any]:
        return self.call(
            "create",
            index=index,
            kind=kind,
            dynamic=dynamic,
            records=P.records_to_wire(list(records)),
        )

    def query(self, index: str, q: Any) -> ClientResult:
        return self._result(
            self.call("query", index=index, q=P.query_to_wire(q), frames=True)
        )

    def prepare(self, index: str, q: Any) -> PreparedHandle:
        response = self.call("prepare", index=index, q=P.query_to_wire(q))
        return PreparedHandle(
            self, response["handle"], response["index"], response["params"]
        )

    def run(self, handle: Any, **params: Any) -> ClientResult:
        handle_id = handle.handle if isinstance(handle, PreparedHandle) else handle
        return self._result(
            self.call("run", handle=handle_id, params=params, frames=True)
        )

    def insert(self, index: str, record: Any) -> Any:
        """Insert; returns the *stored* record (authoritative server uid)."""
        response = self.call(
            "insert", index=index, record=P.record_to_row(record)
        )
        return P.record_from_dict(response["record"])

    def delete(self, index: str, record: Any = None, *, q: Any = None,
               limit: Optional[int] = None) -> Dict[str, Any]:
        if (record is None) == (q is None):
            raise ValueError("delete takes exactly one of record= or q=")
        if record is not None:
            return self.call("delete", index=index, record=P.record_to_row(record))
        payload: Dict[str, Any] = {"index": index, "q": P.query_to_wire(q)}
        if limit is not None:
            payload["limit"] = limit
        response = self.call("delete", frames=True, **payload)
        records = response.get("records")
        if isinstance(records, P.RecordFrame):
            response["records"] = records.rows()  # the reply as documented
        return response

    def bulk_load(self, index: str, records: List[Any]) -> List[Any]:
        """Bulk-load; returns the stored records (authoritative uids)."""
        response = self.call(
            "bulk_load", index=index, records=P.records_to_wire(list(records)),
            frames=True,
        )
        return _reply_records(response)

    def explain(self, index: str, q: Any) -> Dict[str, Any]:
        return self.call("explain", index=index, q=P.query_to_wire(q))["plan"]

    def stats(self) -> Dict[str, Any]:
        return self.call("stats")

    def metrics(self) -> Dict[str, Any]:
        """The observability export (counters, plan-cache ratio, WAL, ...)."""
        return self.call("metrics")

    def drop(self, index: str) -> Dict[str, Any]:
        return self.call("drop", index=index)

    def shutdown(self) -> Dict[str, Any]:
        """Ask the whole server to stop (graceful; the ack still arrives)."""
        return self.call("shutdown")
