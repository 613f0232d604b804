"""The page format: one framed, checksummed, columnar encoding of a block.

A page on :class:`~repro.io.filedisk.FileDisk` is a 24-byte frame followed
by a body::

    frame   magic "RPPG" | crc32 u32 | format version u8 | kind u8 | pad u16
            | record count u32 | capacity u32 | body length u32
    body    header section | record column

The crc32 covers every byte after it — the rest of the frame and the whole
body — and is checked on every read: a damaged page raises
:class:`PageCorruptError` (block id, file offset, what failed) and never
yields records.

**Header section** — the block's constant-size control dictionary: tag
``0`` (empty), ``1`` (a flat ``str -> None/bool/int/float/str`` mapping as
canonical JSON, keys sorted) or ``2`` (anything else, pickled).

**Record column** — the records, stored by column.  A column is one tag
byte and a payload; the tag of the outermost column is the frame's *kind*:

=====  ==============================================================
tag    records
=====  ==============================================================
``-``  none (control blocks, empty leaves)
``N``  all ``None`` — no payload bytes (how an absent payload is omitted)
``q``  ``int`` within int64, struct-packed
``d``  ``float``, struct-packed
``I``  :class:`~repro.interval.Interval` — columns low, high, uid, payload
``P``  :class:`~repro.metablock.geometry.PlanarPoint` — x, y, uid, payload
``S``  a point ``(low, high)`` carrying its own interval (what the
       interval manager's metablock trees store) — low, high, point uid,
       interval uid, interval payload; the shared endpoints stored once
``T``  2-tuples (B+-tree entries) — first, second
``O``  the escape hatch: anything else (mixed or string endpoints,
       class objects, nested payloads), pickled as one list
=====  ==============================================================

Columns nest (a ``T`` page of ``(float, Interval)`` leaf entries is a
``d`` column and an ``I`` column), and each column independently falls
back to ``O`` when its values fit no typed form, so one dict-valued
payload column does not cost a page its packed endpoints.  The encoding is
lossless and canonical — ``decode(encode(b)) == b`` value for value, type
for type and uid for uid, and equal blocks give equal bytes (inside an
opaque section, as far as ``pickle`` is deterministic: the same object
graph gives the same bytes) — which the round-trip property tests in
``tests/test_pagecodec.py`` check over every shape the engine writes.

Decoding is lazy: :func:`decode` checks the frame and unpacks the packed
columns (a few ``struct.unpack`` calls), but builds no record object.  The
column readers materialise single rows (``take``) or the whole list
(``tolist``) on demand, constructing records without re-running their
``__post_init__`` validation (:func:`~repro.interval.trusted_interval`) —
a page that passes its checksum holds exactly what a validated record
wrote.
"""

from __future__ import annotations

import json
import pickle
import struct
import threading
import zlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.interval import Interval, trusted_interval as _interval
from repro.metablock.geometry import PlanarPoint

MAGIC = b"RPPG"
#: bumped on any change to the bytes below; the FileDisk sidecar records it
#: and a file written under another value is refused, never mis-decoded
PAGE_FORMAT = 1

_FRAME = struct.Struct("<4sIBBxxIII")
#: the part of the frame after the checksum, which the checksum covers
_FRAME_TAIL = struct.Struct("<BBxxIII")
_CHECKED_FROM = _FRAME.size - _FRAME_TAIL.size
_U32 = struct.Struct("<I")

_HEADER_EMPTY, _HEADER_JSON, _HEADER_PICKLE = 0, 1, 2
_FLAT_TYPES = frozenset((type(None), bool, int, float, str))
_header_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
#: the C scanner itself: ``json.loads`` spends three times the parse on
#: encoding detection and whitespace checks, and every B+-tree page read
#: decodes one of these tiny headers
_scan_json = json.JSONDecoder().scan_once


class PageCorruptError(RuntimeError):
    """A page failed its frame or checksum verification."""

    def __init__(self, block_id: Any, offset: int, reason: str) -> None:
        super().__init__(f"page of block {block_id} at offset {offset} is corrupt: {reason}")
        self.block_id = block_id
        self.offset = offset
        self.reason = reason


class PageFormatError(RuntimeError):
    """A page file was written under a page format this build does not read."""


class DecodeTally(threading.local):
    """Per-thread counts of pages decoded and records materialised.

    Thread-local so a traced request reads exactly its own work off the
    delta (``plan.execute`` annotates it) while other sessions decode on
    the same disk.
    """

    pages = 0
    records = 0


# --------------------------------------------------------------------------- #
# encoding
# --------------------------------------------------------------------------- #
def encode(capacity: int, records: List[Any], header: Dict[str, Any]) -> bytes:
    """One block as page bytes (frame + body)."""
    head = _encode_header(header)
    column = _encode_column(records) if records else b"-"
    tail = _FRAME_TAIL.pack(
        PAGE_FORMAT, column[0], len(records), capacity, len(head) + len(column)
    )
    crc = zlib.crc32(column, zlib.crc32(head, zlib.crc32(tail)))
    return b"".join((MAGIC, _U32.pack(crc), tail, head, column))


def _encode_header(header: Dict[str, Any]) -> bytes:
    if not header:
        return bytes((_HEADER_EMPTY,))
    named = set(map(type, header)) == {str}
    if named and set(map(type, header.values())) <= _FLAT_TYPES:
        tag, data = _HEADER_JSON, _header_json(header).encode("utf-8")
    else:
        if named:  # key order is not part of a dict's value: store it sorted
            header = dict(sorted(header.items()))
        tag, data = _HEADER_PICKLE, pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
    return b"".join((bytes((tag,)), _U32.pack(len(data)), data))


def _encode_column(values: Sequence[Any]) -> bytes:
    kinds = set(map(type, values))
    if len(kinds) == 1:
        encoder = _ENCODERS.get(kinds.pop())
        if encoder is not None:
            encoded = encoder(values)
            if encoded is not None:
                return encoded
    data = pickle.dumps(list(values), protocol=pickle.HIGHEST_PROTOCOL)
    return b"".join((b"O", _U32.pack(len(data)), data))


def _encode_ints(values: Sequence[int]) -> Optional[bytes]:
    try:
        return b"q" + struct.pack(f"<{len(values)}q", *values)
    except struct.error:  # beyond int64: the escape hatch keeps it exact
        return None


def _encode_floats(values: Sequence[float]) -> bytes:
    return b"d" + struct.pack(f"<{len(values)}d", *values)


def _encode_intervals(values: Sequence[Interval]) -> bytes:
    return b"".join((
        b"I",
        _encode_column([iv.low for iv in values]),
        _encode_column([iv.high for iv in values]),
        _encode_column([iv.uid for iv in values]),
        _encode_column([iv.payload for iv in values]),
    ))


def _encode_points(values: Sequence[PlanarPoint]) -> bytes:
    xs = _encode_column([p.x for p in values])
    ys = _encode_column([p.y for p in values])
    uids = _encode_column([p.uid for p in values])
    payloads = [p.payload for p in values]
    if set(map(type, payloads)) == {Interval}:
        # equal column bytes mean equal values of equal types, so the
        # interval's endpoints can ride on the point's coordinates
        if _encode_column([iv.low for iv in payloads]) == xs and (
            _encode_column([iv.high for iv in payloads]) == ys
        ):
            return b"".join((
                b"S", xs, ys, uids,
                _encode_column([iv.uid for iv in payloads]),
                _encode_column([iv.payload for iv in payloads]),
            ))
    return b"".join((b"P", xs, ys, uids, _encode_column(payloads)))


def _encode_pairs(values: Sequence[Tuple[Any, ...]]) -> Optional[bytes]:
    if set(map(len, values)) != {2}:
        return None
    firsts, seconds = zip(*values)
    return b"".join((b"T", _encode_column(firsts), _encode_column(seconds)))


_ENCODERS: Dict[type, Callable[[Sequence[Any]], Optional[bytes]]] = {
    type(None): lambda values: b"N",
    int: _encode_ints,
    float: _encode_floats,
    Interval: _encode_intervals,
    PlanarPoint: _encode_points,
    tuple: _encode_pairs,
}


# --------------------------------------------------------------------------- #
# column readers (what a decoded page holds instead of record objects)
# --------------------------------------------------------------------------- #
def _point(x: Any, y: Any, payload: Any, uid: Any,
           _new: Callable[[type], Any] = object.__new__) -> PlanarPoint:
    """A :class:`PlanarPoint` built like :func:`~repro.interval.trusted_interval`."""
    record = _new(PlanarPoint)
    fields = record.__dict__
    fields["x"] = x
    fields["y"] = y
    fields["payload"] = payload
    fields["uid"] = uid
    return record


def _values(column: Any) -> Sequence[Any]:
    """A nested column as an indexable sequence of its row values.

    Packed columns decode straight to tuples; the other readers
    materialise (and, for :class:`OpaqueColumn`, unpickle) on demand.
    """
    return column if type(column) is tuple else column.tolist()


def _take(column: Any, rows: Sequence[int]) -> List[Any]:
    if type(column) is tuple:
        return [column[i] for i in rows]
    return column.take(rows)


class PackedColumn:
    """``q``/``d``/``N``/``-`` as the outermost column: the unpacked tuple."""

    __slots__ = ("values",)

    def __init__(self, values: Tuple[Any, ...]) -> None:
        self.values = values

    def tolist(self) -> List[Any]:
        return list(self.values)

    def take(self, rows: Sequence[int]) -> List[Any]:
        values = self.values
        return [values[i] for i in rows]


class OpaqueColumn:
    """An escape-hatch column: unpickled on first use."""

    __slots__ = ("_data", "_values")

    def __init__(self, data: bytes) -> None:
        self._data: Optional[bytes] = data
        self._values: List[Any] = []

    def tolist(self) -> List[Any]:
        data = self._data  # read once: readers of a cached block may race here
        if data is not None:
            self._values = pickle.loads(data)
            self._data = None
        return self._values

    def take(self, rows: Sequence[int]) -> List[Any]:
        values = self.tolist()
        return [values[i] for i in rows]


class IntervalColumn:
    """``I``: intervals as (lows, highs, uids, payloads)."""

    __slots__ = ("lows", "highs", "uids", "payloads")

    def __init__(self, lows: Any, highs: Any, uids: Any, payloads: Any) -> None:
        self.lows = lows
        self.highs = highs
        self.uids = uids
        self.payloads = payloads

    def tolist(self) -> List[Interval]:
        return list(map(
            _interval, _values(self.lows), _values(self.highs),
            _values(self.payloads), _values(self.uids),
        ))

    def take(self, rows: Sequence[int]) -> List[Interval]:
        lows, highs = _values(self.lows), _values(self.highs)
        payloads, uids = _values(self.payloads), _values(self.uids)
        return [_interval(lows[i], highs[i], payloads[i], uids[i]) for i in rows]


class PointColumn:
    """``P``/``S``: planar points as (xs, ys, uids, payloads).

    For an ``S`` page ``payloads`` is an :class:`IntervalColumn` sharing
    ``xs``/``ys`` as its endpoints, so a scan that only reports payloads
    (a stabbing query) never builds the points.
    """

    __slots__ = ("xs", "ys", "uids", "payloads")

    def __init__(self, xs: Any, ys: Any, uids: Any, payloads: Any) -> None:
        self.xs = xs
        self.ys = ys
        self.uids = uids
        self.payloads = payloads

    def tolist(self) -> List[PlanarPoint]:
        return list(map(
            _point, _values(self.xs), _values(self.ys),
            _values(self.payloads), _values(self.uids),
        ))

    def take(self, rows: Sequence[int]) -> List[PlanarPoint]:
        xs, ys, uids = _values(self.xs), _values(self.ys), _values(self.uids)
        return [
            _point(xs[i], ys[i], payload, uids[i])
            for i, payload in zip(rows, _take(self.payloads, rows))
        ]

    def take_payloads(self, rows: Sequence[int]) -> List[Any]:
        """The payloads of rows ``rows`` alone — no point is built."""
        return _take(self.payloads, rows)


class PairColumn:
    """``T``: 2-tuples as (firsts, seconds) — B+-tree keys beside values."""

    __slots__ = ("firsts", "seconds")

    def __init__(self, firsts: Any, seconds: Any) -> None:
        self.firsts = firsts
        self.seconds = seconds

    def tolist(self) -> List[Tuple[Any, Any]]:
        return list(zip(_values(self.firsts), _values(self.seconds)))

    def take(self, rows: Sequence[int]) -> List[Tuple[Any, Any]]:
        return list(zip(_take(self.firsts, rows), _take(self.seconds, rows)))

    def take_payloads(self, rows: Sequence[int]) -> List[Any]:
        """The second members (a B+-tree entry's value) of rows ``rows``."""
        return _take(self.seconds, rows)


# --------------------------------------------------------------------------- #
# decoding
# --------------------------------------------------------------------------- #
def verify(raw: bytes, block_id: Any, offset: int, expected: int) -> Tuple[int, int]:
    """Check a page's frame and checksum; ``(count, capacity)``.

    ``expected`` is the extent length the offset table recorded: a short
    read (truncated file) fails here before any byte is interpreted.
    """
    if len(raw) != expected or len(raw) < _FRAME.size:
        raise PageCorruptError(
            block_id, offset, f"truncated extent: {len(raw)} of {expected} bytes"
        )
    magic, crc, version, _kind, count, capacity, body_length = _FRAME.unpack_from(raw)
    if magic != MAGIC:
        raise PageCorruptError(block_id, offset, f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != PAGE_FORMAT:
        raise PageCorruptError(
            block_id, offset,
            f"page format version {version}, this build reads version {PAGE_FORMAT}",
        )
    if body_length != len(raw) - _FRAME.size:
        raise PageCorruptError(
            block_id, offset,
            f"body length {body_length} does not match the extent's {len(raw) - _FRAME.size}",
        )
    if zlib.crc32(raw[_CHECKED_FROM:]) != crc:
        raise PageCorruptError(block_id, offset, "crc32 mismatch")
    return count, capacity


def decode(
    raw: bytes, block_id: Any = None, offset: int = 0, expected: Optional[int] = None
) -> Tuple[int, int, Dict[str, Any], Any]:
    """Verify and decode one page: ``(capacity, count, header, column)``.

    ``column`` is a column reader (``tolist()`` / ``take(rows)``) over the
    page's records; no record object exists until one of them is called.
    """
    count, capacity = verify(
        raw, block_id, offset, len(raw) if expected is None else expected
    )
    try:
        header, at = _decode_header(raw, _FRAME.size)
        column, at = _decode_column(raw, at, count)
    except (struct.error, IndexError, ValueError, KeyError) as exc:
        # unreachable for bytes this module wrote (the checksum held), but
        # a foreign writer's page must fail typed, not as a stray IndexError
        raise PageCorruptError(block_id, offset, f"undecodable body: {exc!r}") from exc
    if at != len(raw):
        raise PageCorruptError(block_id, offset, f"{len(raw) - at} trailing body bytes")
    if type(column) is tuple:
        column = PackedColumn(column)
    return capacity, count, header, column


def _decode_header(raw: bytes, at: int) -> Tuple[Dict[str, Any], int]:
    tag = raw[at]
    if tag == _HEADER_EMPTY:
        return {}, at + 1
    (length,) = _U32.unpack_from(raw, at + 1)
    start = at + 5
    data = raw[start:start + length]
    if tag == _HEADER_JSON:
        return _scan_json(data.decode("utf-8"), 0)[0], start + length
    if tag == _HEADER_PICKLE:
        return pickle.loads(data), start + length
    raise ValueError(f"unknown header tag {tag}")


_D, _Q, _N, _EMPTY, _O, _S = (ord(c) for c in "dqN-OS")


def _decode_column(raw: bytes, at: int, n: int) -> Tuple[Any, int]:
    tag = raw[at]
    at += 1
    if tag == _D:
        return struct.unpack_from(f"<{n}d", raw, at), at + 8 * n
    if tag == _Q:
        return struct.unpack_from(f"<{n}q", raw, at), at + 8 * n
    if tag == _N:
        return (None,) * n, at
    if tag == _EMPTY:
        return (), at
    if tag == _O:
        (length,) = _U32.unpack_from(raw, at)
        start = at + 4
        return OpaqueColumn(raw[start:start + length]), start + length
    if tag == _S:
        xs, at = _decode_column(raw, at, n)
        ys, at = _decode_column(raw, at, n)
        uids, at = _decode_column(raw, at, n)
        interval_uids, at = _decode_column(raw, at, n)
        payloads, at = _decode_column(raw, at, n)
        return PointColumn(xs, ys, uids, IntervalColumn(xs, ys, interval_uids, payloads)), at
    reader = _READERS.get(tag)
    if reader is None:
        raise ValueError(f"unknown column tag {bytes((tag,))!r}")
    cls, width = reader
    parts = []
    for _ in range(width):
        part, at = _decode_column(raw, at, n)
        parts.append(part)
    return cls(*parts), at


_READERS: Dict[int, Tuple[Callable[..., Any], int]] = {
    ord("I"): (IntervalColumn, 4),
    ord("P"): (PointColumn, 4),
    ord("T"): (PairColumn, 2),
}
