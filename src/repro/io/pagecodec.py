"""The page format: one framed, checksummed, columnar encoding of a block.

A page on :class:`~repro.io.filedisk.FileDisk` is a 24-byte frame followed
by a body::

    frame   magic "RPPG" | crc32 u32 | format version u8 | kind u8 | pad u16
            | record count u32 | capacity u32 | body length u32
    body    header section | record column

The crc32 covers every byte after it — the rest of the frame and the whole
body — and is checked on every read: a damaged page raises
:class:`PageCorruptError` (block id, file offset, what failed) and never
yields records.  This is page format 2; a file of another format is
refused (:class:`PageFormatError`), never converted.

**Header section** — the block's constant-size control dictionary, a
str-keyed dict of domain values: tag ``0`` (empty); ``1``, canonical JSON
(keys sorted, nesting allowed, decoded by the C scanner) when JSON gives
the dict back exactly — ``None``, bool, int, finite float, str, and lists
and str-keyed dicts of these, what nearly every header holds; else ``2``,
the dict as one ``V`` value (below) — a tuple, a ``Fraction`` or an
infinity, as a split key of the priority search tree or a class name in
the catalog root may be.

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
``V``  tagged values: anything else (mixed or string endpoints, class
       objects, constraint tuples, nested payloads), one value after
       another, each a tag byte and its body (below)
=====  ==============================================================

Columns nest (a ``T`` page of ``(float, Interval)`` leaf entries is a
``d`` column and an ``I`` column), and each column independently falls
back to ``V`` when its values fit no typed form, so one dict-valued
payload column does not cost a page its packed endpoints.

A ``V`` value is one of the closed value domain (:mod:`repro.values`):
``n`` ``None``, ``t`` / ``f`` a bool, ``i`` an int (u32 length, then
minimal little-endian two's complement: exact at any size), ``d`` a float
(8 bytes), ``s`` a str (u32 length, UTF-8), ``b`` bytes (u32 length, raw),
``r`` a ``Fraction`` (numerator and denominator as ``i``), ``(`` / ``[`` a
tuple / list (u32 count, then the items), ``{`` a dict (u32 count, then
key and value per item, keys sorted) and one tag per record type, whose
fields follow in the order of :data:`repro.values.RECORDS` — the one
field table, which the records register in and the encoder and the
decoder share.  Any other type is refused with
:class:`~repro.errors.DomainError`; records refuse it sooner, when built.

The encoding is canonical by construction: each domain value has exactly
one encoding — ``tuple`` ≠ ``list``, ``int`` ≠ ``float`` ≠ ``bool``,
``str`` ≠ ``bytes``, ``0.0`` ≠ ``-0.0``, a dict's key order is not part of
its value; two values share one exactly when they are
:func:`~repro.values.identical` — and decoding inverts it, so
``decode(encode(b)) == b`` value for value, type for type and uid for
uid, and identical blocks give identical bytes.  The round-trip property
tests in ``tests/test_pagecodec.py`` check this over the whole domain.

Encoding is :func:`pack` of :func:`~repro.io.disk.split`: the split picks
a page's layout, once, into the column readers :func:`decode` gives back
(they live beside :class:`~repro.io.disk.Page`), and a page of either
backend is packed without building a record.

Decoding is lazy.  :class:`~repro.io.filedisk.FileDisk` reads a page's
extent with one ``os.pread``; :func:`decode` checks the frame and the
crc32, then unpacks the columns but builds no record object of the typed
columns.  A page whose columns are all packed (``d`` / ``q`` / ``N``
under ``S`` / ``I`` / ``P`` / ``T``) is unpacked by one precompiled
``struct`` call, memoised per (layout, row count): the tag bytes come out
with the values and must all equal the layout's, and the body length is
the plan's size, so every check of the generic reader still runs.  A page
with a ``V`` column — or one no plan matches — takes the recursive reader
(:func:`decode_column`), which builds the ``V`` values.  The column
readers materialise single rows (``take``) or the whole list
(``tolist``) on demand, constructing records without re-running their
``__post_init__`` validation (:func:`~repro.interval.trusted_interval`) —
a page that passes its checksum holds exactly what a validated record
wrote — and a scan's hits stay a :class:`~repro.io.disk.Batch` of rows
until someone asks for records: a record frame packs the columns
(:meth:`~repro.server.protocol.RecordFrame.of`), and ``IntervalColumn``
keeps the type of each packed column so it is never re-scanned.
"""

from __future__ import annotations

import json
import struct
import threading
import zlib
from fractions import Fraction
from operator import itemgetter
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import repro.classes.hierarchy  # noqa: F401 - registers ClassObject in RECORDS
import repro.constraints.terms  # noqa: F401 - registers the constraint records
from repro.errors import DomainError
# (registers Interval and PlanarPoint in RECORDS too)
from repro.io.disk import IntervalColumn, PackedColumn, PairColumn, PointColumn, split
from repro.values import RECORDS

MAGIC = b"RPPG"
#: bumped on any change to the bytes below; the FileDisk sidecar records it
#: and a file written under another value is refused, never mis-decoded
PAGE_FORMAT = 2

_FRAME = struct.Struct("<4sIBBxxIII")
#: the part of the frame after the checksum, which the checksum covers
_FRAME_TAIL = struct.Struct("<BBxxIII")
_CHECKED_FROM = _FRAME.size - _FRAME_TAIL.size
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")

_HEADER_EMPTY, _HEADER_JSON, _HEADER_VALUE = 0, 1, 2
#: the one canonical JSON encoder — page headers, the FileDisk sidecar and
#: the wire's ``J`` frame columns: sorted keys, no whitespace, no NaN
canonical_json = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False, check_circular=False
).encode
#: the C scanner itself: ``json.loads`` spends three times the parse on
#: encoding detection and whitespace checks, and every B+-tree page read
#: decodes one of these tiny headers
_scan_json = json.JSONDecoder().scan_once
_JSON_ATOMS = frozenset((type(None), bool, int, str))


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
# encoding: records split into typed columns, then the columns packed
# --------------------------------------------------------------------------- #
def encode(capacity: int, records: List[Any], header: Mapping[str, Any]) -> bytes:
    """One block as page bytes (frame + body)."""
    return pack(capacity, len(records), header, split(records))


def pack(capacity: int, count: int, header: Mapping[str, Any], column: Any) -> bytes:
    """A page of ``count`` records already split into ``column`` (a reader
    of :func:`split` or :func:`decode`), as bytes."""
    head = _encode_header(header)
    out: List[bytes] = []
    _pack_column(column, None, out)
    body = b"".join(out)
    tail = _FRAME_TAIL.pack(PAGE_FORMAT, body[0], count, capacity, len(head) + len(body))
    crc = zlib.crc32(body, zlib.crc32(head, zlib.crc32(tail)))
    return b"".join((MAGIC, _U32.pack(crc), tail, head, body))


def _encode_header(header: Mapping[str, Any]) -> bytes:
    if not header:
        return bytes((_HEADER_EMPTY,))
    if type(header) is not dict:  # a page's read-only view
        header = dict(header)
    if json_exact(header):
        data = canonical_json(header).encode("utf-8")
        return b"".join((bytes((_HEADER_JSON,)), _U32.pack(len(data)), data))
    out = [bytes((_HEADER_VALUE,))]
    _put(header, out)
    return b"".join(out)


def json_exact(value: Any) -> bool:
    """Whether JSON gives ``value`` back exactly: ``None``, bool, int,
    finite float, str, and lists and str-keyed dicts of these."""
    kind = type(value)
    if kind in _JSON_ATOMS:
        return True
    if kind is float:
        return value - value == 0.0
    if kind is list:
        return all(map(json_exact, value))
    if kind is dict:
        return all(type(key) is str for key in value) and all(map(json_exact, value.values()))
    return False


def _pack_column(column: Any, kind: Optional[type], out: List[bytes]) -> None:
    """Append a column's bytes: a tuple by its ``kind``, a reader by the
    tag of its record column."""
    reader = type(column)
    if reader is tuple:
        if kind is None:
            out.append(b"V")
            for value in column:
                _put(value, out)
        else:
            out.append(_PACKERS[kind](column))
    elif reader is PackedColumn:
        if column.values:
            _pack_column(column.values, column.kinds[0], out)
        else:
            out.append(b"-")
    elif reader is IntervalColumn:
        out.append(b"I")
        for part, kind in zip((column.lows, column.highs, column.uids, column.payloads), column.kinds):
            _pack_column(part, kind, out)
    elif reader is PairColumn:
        out.append(b"T")
        _pack_column(column.firsts, column.kinds[0], out)
        _pack_column(column.seconds, column.kinds[1], out)
    else:
        payloads, kinds = column.payloads, column.kinds
        # ``S`` when the payload intervals' endpoints are the points' own columns
        shared = type(payloads) is IntervalColumn and payloads.lows is column.xs and payloads.highs is column.ys
        out.append(b"S" if shared else b"P")
        for part, kind in zip((column.xs, column.ys, column.uids), kinds):
            _pack_column(part, kind, out)
        if shared:
            _pack_column(payloads.uids, payloads.kinds[2], out)
            _pack_column(payloads.payloads, payloads.kinds[3], out)
        else:
            _pack_column(payloads, kinds[3], out)


def encode_packed(values: Sequence[Any], kind: Optional[type] = None) -> Optional[bytes]:
    """``values`` as a ``d`` / ``q`` / ``N`` column — all floats, all ints
    within int64, all ``None`` or none at all — else ``None`` (what the
    wire's record frames pack their columns with).  ``kind``, the one type
    the caller knows every value has (a packed page column's), spares the
    scan for it."""
    if kind is None:
        kinds = set(map(type, values)) or {type(None)}
        if len(kinds) != 1:
            return None
        kind = kinds.pop()
    packer = _PACKERS.get(kind)
    return None if packer is None else packer(values)


def _encode_ints(values: Sequence[int]) -> Optional[bytes]:
    try:
        return b"q" + struct.pack(f"<{len(values)}q", *values)
    except struct.error:  # beyond int64: a ``V`` column keeps it exact
        return None


def _encode_floats(values: Sequence[float]) -> bytes:
    return b"d" + struct.pack(f"<{len(values)}d", *values)


_PACKERS: Dict[type, Callable[[Sequence[Any]], Optional[bytes]]] = {
    type(None): lambda values: b"N",
    int: _encode_ints,
    float: _encode_floats,
}
# --------------------------------------------------------------------------- #
# tagged values (the ``V`` column)
# --------------------------------------------------------------------------- #
def _trusted(cls: type, fields: Tuple[str, ...]) -> Callable[..., Any]:
    """A builder of ``cls`` from its field values that skips ``__init__``
    (the values were validated when the record was first built)."""

    def build(*values: Any, _new: Callable[[type], Any] = object.__new__) -> Any:
        record = _new(cls)
        record.__dict__.update(zip(fields, values))
        return record

    return build


#: record ``V`` tag -> (field count, trusted builder)
_BUILDERS = {
    tag.decode(): (len(fields), _trusted(cls, fields)) for cls, (tag, fields) in RECORDS.items()
}


def _put(value: Any, out: List[bytes]) -> None:
    """Append the ``V`` encoding of ``value`` to ``out``."""
    kind = type(value)
    if value is None:
        out.append(b"n")
    elif kind is bool:
        out.append(b"t" if value else b"f")
    elif kind is int:
        body = value.to_bytes(
            ((value if value >= 0 else ~value).bit_length() + 8) // 8, "little", signed=True
        )
        out += (b"i", _U32.pack(len(body)), body)
    elif kind is float:
        out += (b"d", _F64.pack(value))
    elif kind is str or kind is bytes:
        body = value.encode("utf-8", "surrogatepass") if kind is str else value
        out += (b"s" if kind is str else b"b", _U32.pack(len(body)), body)
    elif kind is Fraction:
        out.append(b"r")
        _put(value.numerator, out)
        _put(value.denominator, out)
    elif kind is tuple or kind is list:
        out += (b"(" if kind is tuple else b"[", _U32.pack(len(value)))
        for item in value:
            _put(item, out)
    elif kind is dict and all(type(key) is str for key in value):
        out += (b"{", _U32.pack(len(value)))
        for key in sorted(value):  # key order is not part of a dict's value
            _put(key, out)
            _put(value[key], out)
    elif kind in RECORDS:
        tag, fields = RECORDS[kind]
        out.append(tag)
        state = value.__dict__
        for name in fields:
            _put(state[name], out)
    else:
        raise DomainError(
            f"{value!r} is outside the value domain and has no page encoding"
        )


def _get(raw: bytes, at: int) -> Tuple[Any, int]:
    """The ``V`` value at ``raw[at:]`` and where it ends."""
    tag = chr(raw[at])
    at += 1
    if tag == "n":
        return None, at
    if tag in "tf":
        return tag == "t", at
    if tag == "d":
        return _F64.unpack_from(raw, at)[0], at + 8
    if tag in "isb":
        (length,) = _U32.unpack_from(raw, at)
        body = raw[at + 4:at + 4 + length]
        if len(body) != length:
            raise ValueError(f"a {length}-byte value runs past the page")
        at += 4 + length
        if tag == "i":
            return int.from_bytes(body, "little", signed=True), at
        return (body.decode("utf-8", "surrogatepass") if tag == "s" else body), at
    if tag == "r":
        numerator, at = _get(raw, at)
        denominator, at = _get(raw, at)
        return Fraction(numerator, denominator), at
    if tag in "([{":
        (count,) = _U32.unpack_from(raw, at)
        items, at = _get_many(raw, at + 4, 2 * count if tag == "{" else count)
        if tag == "{":
            return dict(zip(items[::2], items[1::2])), at
        return (tuple(items) if tag == "(" else items), at
    width, build = _BUILDERS[tag]
    fields, at = _get_many(raw, at, width)
    return build(*fields), at


def _get_many(raw: bytes, at: int, n: int) -> Tuple[List[Any], int]:
    """The ``n`` ``V`` values from ``raw[at:]`` and where they end."""
    values = []
    for _ in range(n):
        value, at = _get(raw, at)
        values.append(value)
    return values, at


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
    A page whose columns are all packed is read by its layout's one
    :class:`_Plan`; any other by :func:`decode_column`, which teaches the
    plan of a packed layout it meets.
    """
    count, capacity = verify(
        raw, block_id, offset, len(raw) if expected is None else expected
    )
    try:
        header, at = _decode_header(raw, _FRAME.size)
        column = _planned(raw, at, count)
        if column is None:
            column, end = decode_column(raw, at, count)
            if end != len(raw):
                raise PageCorruptError(block_id, offset, f"{len(raw) - end} trailing body bytes")
            _learn(raw, at, count)
    except (struct.error, IndexError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        # unreachable for bytes this module wrote (the checksum held), but
        # a foreign writer's page must fail typed, not as a stray IndexError
        raise PageCorruptError(block_id, offset, f"undecodable body: {exc!r}") from exc
    if type(column) is tuple:
        column = PackedColumn(column, _KINDS.get(raw[at]))
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
    if tag == _HEADER_VALUE:
        return _get(raw, at + 1)
    raise ValueError(f"unknown header tag {tag}")


_D, _Q, _N, _EMPTY, _V, _S, _I, _P, _T = (ord(c) for c in "dqN-VSIPT")
#: a packed column's tag -> the one type its values have
_KINDS: Dict[int, type] = {_D: float, _Q: int, _N: type(None)}
#: a record column's tag -> how many columns follow it
_WIDTHS = {_S: 5, _I: 4, _P: 4, _T: 2}


def decode_column(raw: bytes, at: int, n: int) -> Tuple[Any, int]:
    """The ``n``-row column at ``raw[at:]`` and where it ends: a tuple of
    values for ``d`` / ``q`` / ``N`` / ``V`` / ``-``, else a column reader."""
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
    if tag == _V:
        values, at = _get_many(raw, at, n)
        return tuple(values), at
    width = _WIDTHS.get(tag)
    if width is None:
        raise ValueError(f"unknown column tag {bytes((tag,))!r}")
    parts, kinds = [], []
    for _ in range(width):
        kinds.append(_KINDS.get(raw[at]))
        part, at = decode_column(raw, at, n)
        parts.append(part)
    return _column(tag, parts, kinds), at


def _column(tag: int, parts: List[Any], kinds: List[Optional[type]]) -> Any:
    """The reader of a record column from its decoded columns and their kinds."""
    if tag == _S:
        xs, ys, uids, interval_uids, payloads = parts
        return PointColumn(xs, ys, uids, IntervalColumn(
            xs, ys, interval_uids, payloads, (kinds[0], kinds[1], kinds[3], kinds[4]),
        ), (kinds[0], kinds[1], kinds[2], None))
    reader = IntervalColumn if tag == _I else PointColumn if tag == _P else PairColumn
    return reader(*parts, tuple(kinds))


# --------------------------------------------------------------------------- #
# unpack plans: a page of packed columns in one ``struct`` call
# --------------------------------------------------------------------------- #
class _Plan:
    """How to read one packed layout at one row count — an ``S`` page of
    ``d d q q q`` columns, say — with a single precompiled unpack.

    The tag bytes are unpacked with the values and must all equal the
    layout's (``check(values) == tags``); the body length is the struct's
    size, part of the key it is found under.  A page that fails either is
    read by :func:`decode_column` instead, which raises on what is corrupt.
    """

    __slots__ = ("unpack", "check", "tags", "pad", "build")

    def __init__(self, layout: List[int], n: int) -> None:
        fmt, tag_at, spans = ["<"], [], []
        width, pad = 0, ()
        for tag in layout:
            tag_at.append(width)
            fmt.append("B")
            width += 1
            if tag == _D or tag == _Q:
                fmt.append(f"{n}{chr(tag)}")
                spans.append(slice(width, width + n))
                width += n
            elif tag == _N:
                # an ``N`` column is read off a tail of Nones the unpack gets
                pad = (None,) * n
                spans.append(None)
        total = width + len(pad)
        self.unpack = struct.Struct("".join(fmt)).unpack_from
        self.check = itemgetter(*tag_at)
        self.tags = tuple(layout) if len(layout) > 1 else layout[0]
        self.pad = pad
        self.build = _builder(
            layout, [slice(width, total) if span is None else span for span in spans]
        )

    def read(self, raw: bytes, at: int) -> Any:
        """The column at ``raw[at:]``, or ``None`` when a tag byte differs."""
        values = self.unpack(raw, at)
        if self.check(values) != self.tags:
            return None
        return self.build(values + self.pad if self.pad else values)


def _builder(layout: List[int], spans: List[slice]) -> Callable[[Tuple[Any, ...]], Any]:
    """What turns a layout's unpacked values into its column: ``spans`` are
    where its packed columns lie in them, in layout order.  The tuple itself
    for one packed column, else the readers of :func:`_column`, nested as
    the layout nests them — written out for the interval manager's ``S``
    page, the one every stab reads."""
    if len(spans) <= 1:
        span = spans[0] if spans else slice(0, 0)
        return lambda values: values[span]

    def shape(tags: Any) -> Any:
        """A packed column as its kind, a record column as (tag, children)."""
        tag = next(tags)
        if tag not in _WIDTHS:
            return _KINDS[tag]
        return tag, [shape(tags) for _ in range(_WIDTHS[tag])]

    tree = shape(iter(layout))
    tag, children = tree
    if not any(type(child) is tuple for child in children):
        if tag == _S:
            xs, ys, uids, interval_uids, payloads = spans
            kinds = (children[0], children[1], children[3], children[4])
            point_kinds = (children[0], children[1], children[2], None)

            def build_points(values: Tuple[Any, ...]) -> PointColumn:
                lows, highs = values[xs], values[ys]
                return PointColumn(lows, highs, values[uids], IntervalColumn(
                    lows, highs, values[interval_uids], values[payloads], kinds,
                ), point_kinds)

            return build_points
        # any other record column over packed ones: no nesting to walk
        return lambda values: _column(tag, [values[span] for span in spans], children)

    leaves = itemgetter(*spans)

    def build(node: Any, columns: Any) -> Any:
        tag, children = node
        parts = [
            build(child, columns) if type(child) is tuple else next(columns)
            for child in children
        ]
        kinds = [None if type(child) is tuple else child for child in children]
        return _column(tag, parts, kinds)

    return lambda values: build(tree, iter(leaves(values)))


#: (outer tag, row count, column bytes) -> the plans of the packed layouts
#: met under that key; bounded, as a cache of compiled code
_PLANS: Dict[Tuple[int, int, int], List[_Plan]] = {}
_PLANS_MAX, _PLANS_PER_KEY = 4096, 4


def _planned(raw: bytes, at: int, n: int) -> Any:
    """The column at ``raw[at:]`` read by a plan, or ``None`` when no plan
    of its key matches its tag bytes."""
    plans = _PLANS.get((raw[at], n, len(raw) - at))
    if plans is not None:
        for plan in plans:
            column = plan.read(raw, at)
            if column is not None:
                return column
    return None


def _learn(raw: bytes, at: int, n: int) -> None:
    """Compile a plan for the column at ``raw[at:]`` if it is all packed
    (the generic reader has just read it whole)."""
    layout: List[int] = []
    if _packed_layout(raw, at, n, layout) != len(raw):
        return
    if len(_PLANS) >= _PLANS_MAX:
        _PLANS.clear()
    plans = _PLANS.setdefault((raw[at], n, len(raw) - at), [])
    if len(plans) < _PLANS_PER_KEY:
        plans.append(_Plan(layout, n))


def _packed_layout(raw: bytes, at: int, n: int, layout: List[int]) -> int:
    """Append the tags of the column at ``raw[at:]`` to ``layout``; where the
    column ends, or ``-1`` when some column in it is ``V``."""
    tag = raw[at]
    layout.append(tag)
    at += 1
    if tag == _D or tag == _Q:
        return at + 8 * n
    if tag == _N or tag == _EMPTY:
        return at
    width = _WIDTHS.get(tag)
    if width is None:  # ``V``
        return -1
    for _ in range(width):
        at = _packed_layout(raw, at, n, layout)
        if at < 0:
            return -1
    return at
