"""The wire protocol: JSON-line request/response framing and codecs.

One request per line, one response per line, UTF-8 JSON both ways — dumb
enough to drive with ``netcat``, structured enough to carry the whole
engine surface:

========== =============================================================
command    payload
========== =============================================================
``ping``   —
``create`` ``index``, ``kind`` (``collection``/``interval``),
           ``records``, ``dynamic``
``query``  ``index``, ``q`` (a serialized algebra node)
``prepare``  ``index``, ``q`` (may contain ``Param`` nodes)
``run``    ``handle`` (a lease from ``prepare``), ``params``
``insert`` ``index``, ``record``
``delete`` ``index``, ``record`` *or* ``q`` (+ optional ``limit``)
``bulk_load``  ``index``, ``records``
``explain``  ``index``, ``q``
``stats``  —
``metrics``  — (the observability export: counter/gauge/histogram
           snapshot, plan-cache hit ratio, WAL group-absorption,
           epoch-pin age, uptime; what ``repro top`` polls)
``drop``   ``index``
``shutdown``  —
========== =============================================================

Fields are typed, and checked once for every deployment shape by the one
command table in :mod:`repro.server.core`: ``index`` and ``kind`` are
strings, ``handle`` an integer, ``q`` and ``params`` objects, ``records``
a list, ``dynamic`` / ``keep_uids`` real booleans, ``limit`` a
non-negative integer (booleans are not integers here).  A field that is
absent or ``null`` takes its default; a required one missing, or any of
the wrong type, is a ``bad_request`` and nothing is touched.

Query descriptors cross the wire through the algebra's
:meth:`~repro.algebra.AlgebraicQuery.to_dict` /
:func:`~repro.engine.queries.query_from_dict` round-trip, which preserves
``signature()`` and ``matches`` semantics for every node type, ``Param``
placeholders included.

Records (``PROTOCOL_VERSION = 2``) travel as **rows**: the JSON array
``[low, high, payload, uid]`` (:func:`record_to_row`).  Every record a
server or router *emits* — ``records`` of a read, a ``delete`` by query or
a ``bulk_load`` echo, ``record`` of an ``insert`` — is a row, and rows are
what :class:`~repro.server.client.ReproClient` sends.  On *input* (the
``record`` / ``records`` fields of ``create``, ``insert``, ``delete``,
``bulk_load``) a server also still accepts the version-1 tagged dict
``{"record": "interval", "low": ..., "high": ..., "payload": ...,
"uid": ...}`` (:func:`record_to_dict`), so a version-1 writer keeps
working; nothing emits it.  Either form is validated by
:func:`record_from_dict` before it becomes a record — endpoints must be
finite numbers in order, a uid (where present) an ``int`` — and a
violation is a ``bad_request``.  Payloads must be JSON-serializable.

Responses are ``{"id": ..., "ok": true, ...}`` or a **structured error**
``{"id": ..., "ok": false, "error": {"code": ..., "type": ..., "message":
...}}`` where ``code`` classifies the failure for programmatic handling:

* ``bad_request`` — malformed JSON, unknown command, a missing or
  mistyped field, a bad query node, unknown/unbound ``run`` parameters;
* ``unknown_index`` — no index of that name (whatever the name is);
* ``stale_handle`` — a prepared-query lease that expired (unknown id, or
  the index it was planned against was dropped/re-created);
* ``conflict`` — a duplicate: ``create`` of a name already taken (this
  was ``bad_request`` for most names before the codes were keyed on the
  exception's type), or a ``keep_uids`` write of a uid already stored;
* ``shard_unavailable`` — a cluster router could not reach a shard that
  the request needs (the shard died mid-request or is restarting);
* ``internal`` — anything else (the message carries the repr).

The code is a function of the exception's *class* alone
(:data:`ERROR_TABLE`), never of its message text.

Cluster extensions (additive; single servers ignore them): write commands
(``create`` / ``insert`` / ``bulk_load``) accept ``keep_uids: true``,
which makes the server honour the uids already on the wire instead of
minting fresh ones — what a router upstream uses after minting
authoritative uids itself, so a record keeps one identity across the
whole cluster.  Read responses from a router additionally carry
``shards_contacted``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple, Type

from repro.engine.queries import query_from_dict
from repro.errors import DuplicateError, ParameterError, StalePreparedError
from repro.interval import Interval, fresh_interval_uid, trusted_interval

#: 2: records travel as ``[low, high, payload, uid]`` rows (1: tagged dicts)
PROTOCOL_VERSION = 2

#: commands a server must route (the client refuses to send others)
COMMANDS = (
    "ping", "create", "query", "prepare", "run", "insert", "delete",
    "bulk_load", "explain", "stats", "metrics", "drop", "shutdown",
)

#: every structured ``error.code`` the protocol can produce — pinned
#: against :data:`ERROR_TABLE` and :func:`classify_error`'s fallback by
#: the ``wire-exhaustiveness`` lint rule and the conformance tests
ERROR_CODES = (
    "bad_request",
    "conflict",
    "internal",
    "shard_unavailable",
    "stale_handle",
    "unknown_index",
)


class ProtocolError(ValueError):
    """A malformed wire message (not JSON, not a dict, no command...)."""


# --------------------------------------------------------------------------- #
# framing
# --------------------------------------------------------------------------- #
#: one encoder for every message: ``json.dumps`` with non-default
#: separators builds a fresh ``JSONEncoder`` per call.  No circular-
#: reference bookkeeping (a dict insert and delete per container, ~15% of
#: a 200-row reply): messages are built from decoded JSON and record
#: fields, and a cyclic payload still fails — as a ``RecursionError``
_encode_json = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def encode_message(message: Dict[str, Any]) -> bytes:
    """One protocol message as a JSON line (the only frame format)."""
    return (_encode_json(message) + "\n").encode("utf-8")


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one JSON line into a message dict, or raise :class:`ProtocolError`."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"not a JSON line: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"a protocol message is a JSON object, not {type(message).__name__}"
        )
    return message


# --------------------------------------------------------------------------- #
# record codec
# --------------------------------------------------------------------------- #
_INF = float("inf")


def _no_wire_form(record: Any) -> "ProtocolError":
    return ProtocolError(
        f"record type {type(record).__name__} has no wire form; the server "
        "serves interval collections"
    )


def record_to_row(record: Any) -> List[Any]:
    """A stored record as its wire row ``[low, high, payload, uid]``."""
    if not isinstance(record, Interval):
        raise _no_wire_form(record)
    return [record.low, record.high, record.payload, record.uid]


def record_to_dict(record: Any) -> Dict[str, Any]:
    """A record as the version-1 tagged dict (accepted on input only)."""
    if not isinstance(record, Interval):
        raise _no_wire_form(record)
    return {
        "record": "interval",
        "low": record.low,
        "high": record.high,
        "payload": record.payload,
        "uid": record.uid,
    }


def record_from_dict(data: Any, *, fresh_uid: bool = False) -> Any:
    """Validate a wire record — a row or a tagged dict — and build it.

    ``fresh_uid`` mints a new process-unique uid instead of honouring the
    one on the wire — what the server's *insert* paths use, so clients can
    never collide with resident records; the returned (serialized) record
    carries the authoritative uid back to the client, which then names it
    in ``delete`` requests.  A record without a uid gets a fresh one too.

    Raises :class:`ProtocolError` (``bad_request``) unless both endpoints
    are finite ``int``/``float`` values with ``low <= high`` and the uid,
    when present, is an ``int``: a NaN endpoint would otherwise be stored
    as a key no comparison can find again, and an unhashable uid only
    fails deep inside the engine.
    """
    if type(data) is list:
        if len(data) != 4:
            raise ProtocolError(
                f"a record row is [low, high, payload, uid], not {data!r}"
            )
        low, high, payload, uid = data
    elif isinstance(data, dict):
        kind = data.get("record", "interval")
        if kind != "interval":
            raise ProtocolError(f"unknown record kind {kind!r}")
        try:
            low, high = data["low"], data["high"]
        except KeyError as exc:
            raise ProtocolError(f"interval record missing field {exc}") from exc
        payload, uid = data.get("payload"), data.get("uid")
    else:
        raise ProtocolError(f"not a serialized record: {data!r}")
    low_type, high_type = type(low), type(high)
    if not (
        (low_type is float or low_type is int)
        and (high_type is float or high_type is int)
        and -_INF < low <= high < _INF
    ):
        raise ProtocolError(
            f"malformed interval record {data!r}: endpoints must be finite "
            "numbers with low <= high"
        )
    if uid is not None and type(uid) is not int:
        raise ProtocolError(
            f"malformed interval record {data!r}: uid must be an integer"
        )
    if fresh_uid or uid is None:
        uid = fresh_interval_uid()
    return trusted_interval(low, high, payload, uid)


def records_to_wire(records: List[Any]) -> List[List[Any]]:
    """Records as wire rows (what every response carries)."""
    if set(map(type, records)) <= {Interval}:  # one C-level pass, then no per-row check
        return [[r.low, r.high, r.payload, r.uid] for r in records]
    return [record_to_row(r) for r in records]


def records_from_wire(data: List[Any], *, fresh_uid: bool = False) -> List[Any]:
    if not isinstance(data, list):
        raise ProtocolError(f"'records' must be a list, not {type(data).__name__}")
    return [record_from_dict(d, fresh_uid=fresh_uid) for d in data]


# --------------------------------------------------------------------------- #
# query codec (thin veneer over the algebra's own wire form)
# --------------------------------------------------------------------------- #
def query_to_wire(q: Any) -> Dict[str, Any]:
    return q.to_dict()


def query_from_wire(data: Any) -> Any:
    try:
        return query_from_dict(data)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


# --------------------------------------------------------------------------- #
# structured errors
# --------------------------------------------------------------------------- #
class StaleHandleError(RuntimeError):
    """A ``run`` named a prepared-handle id this connection never leased
    (or one whose lease was invalidated)."""


class ShardUnavailableError(RuntimeError):
    """A cluster shard this request needs cannot be reached.

    Raised by the router's shard links instead of letting a dead shard's
    ``ConnectionError`` hang or tear down the client connection; the
    frontend serializes it as a structured ``shard_unavailable`` error.
    """


#: exception class -> ``error.code``; the first ``isinstance`` match wins,
#: so a subclass sits above its base (the bare builtins are the defaults)
ERROR_TABLE: Tuple[Tuple[Type[BaseException], str], ...] = (
    (ProtocolError, "bad_request"),
    (StaleHandleError, "stale_handle"),
    (StalePreparedError, "stale_handle"),
    (ShardUnavailableError, "shard_unavailable"),
    (ParameterError, "bad_request"),
    (KeyError, "unknown_index"),
    (DuplicateError, "conflict"),
    (ValueError, "bad_request"),
)


def classify_error(exc: BaseException) -> str:
    """The structured ``error.code`` for an exception (see module docstring)."""
    code = getattr(exc, "code", None)
    if isinstance(code, str) and code:
        # a router relaying a shard's already-structured error keeps the
        # shard's classification (the client's ServerError carries .code)
        return code
    for exc_type, code in ERROR_TABLE:
        if isinstance(exc, exc_type):
            return code
    return "internal"


def error_message(exc: BaseException) -> str:
    """The exception's own message when it has one, else its repr."""
    return exc.args[0] if exc.args and isinstance(exc.args[0], str) else repr(exc)


def error_response(request_id: Any, exc: BaseException) -> Dict[str, Any]:
    """The structured error response for a failed request."""
    type_ = getattr(exc, "type", None)
    return {
        "id": request_id,
        "ok": False,
        "error": {
            "code": classify_error(exc),
            "type": type_ if isinstance(type_, str) else type(exc).__name__,
            "message": error_message(exc),
        },
    }


def ok_response(request_id: Any, **payload: Any) -> Dict[str, Any]:
    return {"id": request_id, "ok": True, **payload}
