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
a list, ``dynamic`` / ``keep_uids`` / ``frames`` real booleans, ``limit`` a
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
a ``bulk_load`` echo, ``record`` of an ``insert`` — is a row unless the
request asked for a record frame (below), and rows are what
:class:`~repro.server.client.ReproClient` sends.  On *input* (the
``record`` / ``records`` fields of ``create``, ``insert``, ``delete``,
``bulk_load``) a server also still accepts the version-1 tagged dict
``{"record": "interval", "low": ..., "high": ..., "payload": ...,
"uid": ...}`` (:func:`record_to_dict`), so a version-1 writer keeps
working; nothing emits it.  Either form is validated by
:func:`record_from_dict` before it becomes a record — endpoints must be
finite numbers in order, a uid (where present) an ``int``, the payload a
value of the closed domain (:mod:`repro.values`: no NaN, finite floats) —
and a violation is a ``bad_request`` with nothing stored.

**Rows in, rows or frames out.**  Any request may carry ``"frames":
true`` (a real boolean, like ``keep_uids``).  A reply that carries
``records`` — ``query``, ``run``, ``delete`` by query, ``bulk_load`` — is
then the usual JSON line with ``"frame": <byte length>`` in place of
``"records": [...]``, followed by exactly that many bytes, the **record
frame** (:class:`RecordFrame`); line and frame leave in one ``sendall``::

    head     magic "RPRF" | crc32 u32 | record count u32
    columns  lows | highs | uids | payloads

The crc32 covers every byte after it and is checked before any column is
read.  A column is one tag byte and a body, chosen by the values alone so
equal records give equal bytes; ``d`` / ``q`` / ``N`` are the page
codec's packed forms and ``J`` its canonical JSON encoder, imported from
:mod:`repro.io.pagecodec`, not copied:

=====  ==============================================================
tag    values
=====  ==============================================================
``d``  all ``float`` — struct-packed, eight bytes each
``q``  all ``int`` within int64 — struct-packed, eight bytes each
``N``  all ``None`` (or no records) — no body
``J``  anything else (mixed int/float endpoints, ints beyond int64,
       strings, bools, nested payloads) — ``u32`` length, then a JSON
       array with sorted keys
=====  ==============================================================

A server packs its frames from page columns: a read's answer reaches the
reply as the batches it was read in
(:class:`~repro.engine.result.RecordBatches`), and :meth:`RecordFrame.of`
takes a page batch's columns as the page holds them — a packed column by
the type its page tag names, unscanned — so no record object is built
for a ``frames`` reply.  Rows come from records, built on the way.

A frame is data, never code, and its reader raises :class:`ProtocolError`
on any other tag, on a count that disagrees with a column, on trailing
bytes, and — column-wise, before a single record is built — on whatever
:func:`record_from_dict` refuses in a row (an endpoint that is not a
finite ``int``/``float``, ``low > high``, a uid that is not an ``int``, a
payload outside the domain: ints and ``None`` need no look, a column of
floats one pass for finiteness, any other the value-by-value walk).  What
a frame decodes to equals what the rows would have, type for type and uid
for uid — which is why ``J`` is JSON and not the pages' tagged ``V``
column: a row is JSON, so a tuple payload reaches a row reader as a list,
and a frame must hand it the same list.  Rows remain the *input*
form of every write command and the reply form of every request that does
not ask, so ``netcat`` still works; a peer that does not know the field
ignores it and answers rows, and :func:`read_reply` takes either — which
is why ``PROTOCOL_VERSION`` stays 2: nothing a version-2 peer sends or
expects has changed.  :func:`encode_reply` and :func:`read_reply` are the
only reply codec: the server, the router and the client all call them.

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
``shards_contacted``.  A router asks its shards for frames and forwards a
single shard's frame as the bytes it received.
"""

from __future__ import annotations

import json
import struct
import zlib
from itertools import chain
from math import isfinite
from operator import le
from typing import Any, BinaryIO, Dict, List, Optional, Sequence, Tuple, Type

from repro.engine.queries import query_from_dict
from repro.engine.result import RecordBatches
from repro.errors import DomainError, DuplicateError, ParameterError, StalePreparedError
from repro.interval import Interval, fresh_interval_uid, trusted_interval
from repro.io import pagecodec
from repro.values import check_value

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
    """One protocol message as a JSON line."""
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
    are finite ``int``/``float`` values with ``low <= high``, the uid,
    when present, is an ``int`` and the payload is a domain value: a NaN
    endpoint would otherwise be stored as a key no comparison can find
    again, an unhashable uid only fails deep inside the engine, and a NaN
    payload is equal to no copy of itself.
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
    _check_payloads((payload,))
    if fresh_uid or uid is None:
        uid = fresh_interval_uid()
    return trusted_interval(low, high, payload, uid)


def _check_payloads(payloads: Sequence[Any]) -> None:
    """Refuse (``bad_request``) a payload outside the value domain."""
    try:
        for payload in payloads:
            check_value(payload)
    except DomainError as exc:
        raise ProtocolError(f"malformed interval record: {exc}") from exc


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
# record frames: the records of one reply as packed columns
# --------------------------------------------------------------------------- #
FRAME_MAGIC = b"RPRF"
#: magic | crc32 of every byte after this field | record count
_FRAME_HEAD = struct.Struct("<4sII")
_CRC_FROM = 8
_U32 = struct.Struct("<I")
_FLOATS, _INTS, _NONES = frozenset((float,)), frozenset((int,)), frozenset((type(None),))
_ENDPOINT_TYPES = _FLOATS | _INTS
#: the page codec's packed tags, and the value types each decodes to
_PACKED = {ord("d"): _FLOATS, ord("q"): _INTS, ord("N"): _NONES}
_TAG_J = ord("J")

Columns = Tuple[Sequence[Any], Sequence[Any], Sequence[Any], Sequence[Any]]


def _pack_column(values: Sequence[Any], kind: Optional[type] = None) -> bytes:
    packed = pagecodec.encode_packed(values, kind)
    if packed is not None:
        return packed
    # sorted keys: equal payloads give equal bytes
    data = pagecodec.canonical_json(list(values)).encode("utf-8")
    return b"".join((b"J", _U32.pack(len(data)), data))


def _unpack_column(data: bytes, at: int, n: int) -> Tuple[Sequence[Any], Any, int]:
    """One column at ``data[at:]``: ``(values, their types, where it ends)``."""
    tag = data[at]
    kinds = _PACKED.get(tag)
    if kinds is not None:
        values, at = pagecodec.decode_column(data, at, n)
        return values, kinds, at
    at += 1
    if tag == _TAG_J:
        (length,) = _U32.unpack_from(data, at)
        end = at + 4 + length
        values = json.loads(data[at + 4:end]) if end <= len(data) else None
        if type(values) is not list or len(values) != n:
            raise ProtocolError(f"a 'J' column must be a JSON array of {n} values")
        return values, set(map(type, values)), end
    # no tag names an opaque object stream: a frame is data, never code
    raise ProtocolError(f"unknown frame column tag {bytes((tag,))!r}")


class RecordFrame:
    """The records of one reply as a checksummed block of four columns.

    Built from an answer (:meth:`of`), from columns (:meth:`from_columns`)
    or from received bytes (:meth:`parse`, which checks magic, crc and
    count and touches no column); ``data`` is the wire form either way, so
    a frame received can be sent on without re-encoding.  The columns are
    decoded — and every record in them validated — on first use.
    ``kinds`` holds, per column, the one type all its values have, where
    the frame knows it (from its packed tags once decoded), else ``None``.
    """

    __slots__ = ("data", "count", "kinds", "_columns")

    def __init__(self, data: bytes, count: int, columns: Optional[Columns] = None,
                 kinds: Sequence[Optional[type]] = (None,) * 4) -> None:
        self.data = data
        self.count = count
        self.kinds = tuple(kinds)
        self._columns = columns

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return f"RecordFrame({self.count} records, {len(self.data)} bytes)"

    @classmethod
    def from_columns(cls, lows: Sequence[Any], highs: Sequence[Any],
                     uids: Sequence[Any], payloads: Sequence[Any],
                     kinds: Sequence[Optional[type]] = (None,) * 4) -> "RecordFrame":
        """The frame of four columns; ``kinds[i]``, when not ``None``, is the
        one type every value of column ``i`` has, which spares its scan."""
        count = len(uids)
        body = b"".join((
            _U32.pack(count), _pack_column(lows, kinds[0]), _pack_column(highs, kinds[1]),
            _pack_column(uids, kinds[2]), _pack_column(payloads, kinds[3]),
        ))
        data = b"".join((FRAME_MAGIC, _U32.pack(zlib.crc32(body)), body))
        return cls(data, count, (lows, highs, uids, payloads), kinds)

    @classmethod
    def of(cls, records: Any) -> "RecordFrame":
        """The frame of a list of intervals or of a read's
        :class:`~repro.engine.result.RecordBatches` — the one frame builder.

        A page batch of intervals (:class:`~repro.io.disk.Batch`) gives its
        rows' columns as the page holds them, so no record is built, and a
        packed page column is packed by the type its tag names, unscanned;
        a list of records — or any other batch, built — is read off the
        objects.
        """
        batches = records.batches if isinstance(records, RecordBatches) else [records]
        parts: List[Tuple[Sequence[Sequence[Any]], Tuple[Optional[type], ...]]] = []
        run: List[Any] = []                   # batches read off objects, in order
        for batch in batches:
            if not len(batch):
                continue
            read = None if type(batch) is list else batch.interval_columns()
            if read is None:
                run.append(batch)
                continue
            if run:
                parts.append(_record_columns(run))
                run = []
            parts.append(read)
        if run or not parts:
            parts.append(_record_columns(run))
        if len(parts) == 1:
            columns, kinds = parts[0]
            return cls.from_columns(*columns, kinds=kinds)
        layouts = {kinds for _, kinds in parts}
        return cls.from_columns(
            *(list(chain.from_iterable(values[i] for values, _ in parts)) for i in range(4)),
            kinds=layouts.pop() if len(layouts) == 1 else [
                same.pop() if len(same := {kinds[i] for kinds in layouts}) == 1 else None
                for i in range(4)
            ],
        )

    @classmethod
    def parse(cls, data: bytes) -> "RecordFrame":
        if len(data) < _FRAME_HEAD.size:
            raise ProtocolError(f"a record frame has a 12-byte head, not {len(data)} bytes")
        magic, crc, count = _FRAME_HEAD.unpack_from(data)
        if magic != FRAME_MAGIC:
            raise ProtocolError(f"bad record frame magic {magic!r}, expected {FRAME_MAGIC!r}")
        if zlib.crc32(memoryview(data)[_CRC_FROM:]) != crc:
            raise ProtocolError("record frame crc32 mismatch")
        if count > len(data):  # every record costs its uid at least a byte
            raise ProtocolError(f"a {len(data)}-byte record frame cannot hold {count} records")
        return cls(data, count)

    def columns(self) -> Columns:
        """``(lows, highs, uids, payloads)``, validated like a row is:
        endpoints finite ``int``/``float`` with ``low <= high``, uids ``int``."""
        if self._columns is None:
            data, n, at = self.data, self.count, _FRAME_HEAD.size
            parts: List[Sequence[Any]] = []
            kinds: List[Any] = []
            try:
                for _ in range(4):
                    column, kind, at = _unpack_column(data, at, n)
                    parts.append(column)
                    kinds.append(kind)
            except (struct.error, IndexError, UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(f"undecodable record frame: {exc!r}") from exc
            if at != len(data):
                raise ProtocolError(f"{len(data) - at} trailing bytes in a record frame")
            lows, highs, uids, payloads = parts
            if n and not (
                kinds[0] | kinds[1] <= _ENDPOINT_TYPES
                # NaN fails ``<=``, so past this line min and max are sound
                and all(map(le, lows, highs))
                and -_INF < min(lows)
                and max(highs) < _INF
            ):
                raise ProtocolError(
                    "malformed record frame: endpoints must be finite numbers "
                    "with low <= high"
                )
            if n and not kinds[2] <= _INTS:
                raise ProtocolError("malformed record frame: uids must be integers")
            # every int and None is a domain value: only floats need a look
            # (one pass), and anything else the whole walk
            if kinds[3] == _FLOATS:
                if not all(map(isfinite, payloads)):
                    raise ProtocolError(
                        "malformed interval record: a payload float must be finite"
                    )
            elif not kinds[3] <= _INTS | _NONES:
                _check_payloads(payloads)
            self.kinds = tuple([next(iter(k)) if len(k) == 1 else None for k in kinds])
            self._columns = (lows, highs, uids, payloads)
        return self._columns

    def records(self) -> List[Interval]:
        lows, highs, uids, payloads = self.columns()
        return list(map(trusted_interval, lows, highs, payloads, uids))

    def rows(self) -> List[List[Any]]:
        lows, highs, uids, payloads = self.columns()
        return list(map(list, zip(lows, highs, payloads, uids)))


def _record_columns(batches: List[Any]) -> Tuple[List[List[Any]], Tuple[None, ...]]:
    """The four frame columns of batches of intervals read off the objects,
    their kinds unknown."""
    records = list(chain.from_iterable(batches))
    if not set(map(type, records)) <= {Interval}:
        raise _no_wire_form(next(r for r in records if type(r) is not Interval))
    return [
        [r.low for r in records], [r.high for r in records],
        [r.uid for r in records], [r.payload for r in records],
    ], (None,) * 4


def encode_reply(response: Dict[str, Any], frames: bool = False) -> bytes:
    """One response as wire bytes — the only reply encoder.

    ``response["records"]``, when present, is a list of records, a read's
    :class:`~repro.engine.result.RecordBatches` or a :class:`RecordFrame`;
    it leaves as rows on the JSON line, built from records, or — when the
    request said ``"frames": true`` — as ``"frame": <byte length>`` on the
    line and that many frame bytes behind it (:meth:`RecordFrame.of`).
    """
    records = response.get("records")
    if records is None:
        return encode_message(response)
    envelope = dict(response)
    if not frames:
        if isinstance(records, RecordFrame):
            envelope["records"] = records.rows()
        else:
            envelope["records"] = records_to_wire(
                records.records() if isinstance(records, RecordBatches) else records
            )
        return encode_message(envelope)
    frame = records if isinstance(records, RecordFrame) else RecordFrame.of(records)
    del envelope["records"]
    envelope["frame"] = len(frame.data)
    return encode_message(envelope) + frame.data


def read_reply(rfile: BinaryIO) -> Dict[str, Any]:
    """Read one response off a stream: its JSON line and, when the line
    announces one, its record frame (verified, under ``"records"``).

    Raises :class:`ConnectionError` at end of stream or on a short frame and
    :class:`ProtocolError` on an undecodable line or frame; either way the
    caller has lost its place in the stream and must not read on.
    """
    line = rfile.readline()
    if not line:
        raise ConnectionError("server closed the connection")
    response = decode_message(line)
    if "frame" in response:
        length = response["frame"]
        if type(length) is not int or length < 0:
            raise ProtocolError(f"'frame' must be a byte count, not {length!r}")
        data = rfile.read(length)
        if len(data) != length:
            raise ConnectionError(
                f"connection closed {len(data)} bytes into a {length}-byte record frame"
            )
        response["records"] = RecordFrame.parse(data)
    return response


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
