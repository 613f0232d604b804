"""A simulated disk of fixed-capacity blocks with I/O counting.

The paper's model (Section 1.1): secondary storage is accessed in pages of
``B`` units, each access is one I/O, and bounds are expressed in the number
of I/Os.  :class:`SimulatedDisk` realises that model: it stores blocks in a
dictionary, enforces the per-block record capacity, and counts every read
and write.

A *block* here holds up to ``B`` records (values of the closed domain of
:mod:`repro.values`) plus a small, constant amount of header information
(pointers, split keys).  This matches the convention used throughout the
paper, where "a block holds B data items" and control information of
constant size per block is ignored.  A block is read and written as a
:class:`Page`: an immutable value, the same on every backend.
"""

from __future__ import annotations

from operator import itemgetter
from types import MappingProxyType, SimpleNamespace
from typing import (
    Any, Callable, ContextManager, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from repro.interval import Interval, trusted_interval as _interval
from repro.io.counters import IOStats, Measurement
from repro.values import identical

BlockId = int


class Page:
    """One block as stored: immutable, on every backend.

    ``header`` is a read-only mapping of constant-size control information
    (child pointers, fence keys...), apart from the ``count`` records the
    capacity bounds.  :attr:`columns` is the records' column reader (below):
    what :func:`~repro.io.pagecodec.decode` makes of the page's bytes, or
    :func:`split` of the records the page was built from.  Scans filter on
    it and :meth:`take` the matching rows; :meth:`records` is a fresh list
    on each call, counted in ``tally``.  A page never changes: the backend's
    ``write`` stores a block's next version, :meth:`replace`; and a page of
    more than ``capacity`` records is refused as it is built.
    """

    __slots__ = ("block_id", "capacity", "count", "header", "tally", "_columns", "_records")

    def __init__(
        self,
        block_id: BlockId,
        capacity: int,
        count: int,
        header: Mapping[str, Any],
        columns: Any,
        tally: Any,
        records: Optional[Tuple[Any, ...]] = None,
    ) -> None:
        if count > capacity:
            raise ValueError(f"block {block_id} overfull: {count} > capacity {capacity}")
        self.block_id = block_id
        self.capacity = capacity
        self.count = count
        self.header = header
        self.tally = tally
        self._columns = columns
        self._records = records

    @classmethod
    def of(
        cls, block_id: BlockId, capacity: int, records: Sequence[Any] = (),
        header: Optional[Mapping[str, Any]] = None,
    ) -> "Page":
        """The page of ``records`` and ``header`` (both copied)."""
        records = tuple(records)
        header = MappingProxyType(dict(header)) if header else _NO_HEADER
        return cls(block_id, capacity, len(records), header, None, UNCOUNTED, records)

    def replace(self, records: Sequence[Any], header: Optional[Mapping[str, Any]] = None) -> "Page":
        """This block's next version: ``records``, and ``header`` in place of
        the page's own when given.  Nothing is stored until it is written."""
        return Page.of(self.block_id, self.capacity, records, self.header if header is None else header)

    @property
    def columns(self) -> Any:
        """The column reader; a page built from records splits them on first
        use (two readers racing here compute equal columns)."""
        columns = self._columns
        if columns is None:
            columns = self._columns = split(self._records)
        return columns

    def records(self) -> List[Any]:
        """The page's records, in a list of the caller's own."""
        records = self.columns.tolist()
        self.tally.records += len(records)
        return records

    def take(self, rows: Optional[Sequence[int]] = None, *, payloads: bool = False) -> "Batch":
        """Rows ``rows`` of the page (``None`` for all of them) as a
        :class:`Batch`: no record is built until the batch's records are
        asked for.  With ``payloads`` the batch is of what the records carry
        (a point's payload, an entry's value)."""
        columns = self.columns
        return Batch(
            columns.payloads if payloads else columns, rows,
            self.count if rows is None else len(rows), self.tally,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Page(id={self.block_id}, n={self.count}/{self.capacity})"


_NO_HEADER: Mapping[str, Any] = MappingProxyType({})


def column_values(column: Any) -> Sequence[Any]:
    """A page column's values: the column itself when packed (or ``V``),
    else the records of a nested column (intervals, pairs), built."""
    return column if type(column) is tuple else column.tolist()


def pick(columns: Sequence[Sequence[Any]], rows: Optional[Sequence[int]]) -> List[Sequence[Any]]:
    """Rows ``rows`` of each of ``columns`` (a page's value tuples): the
    columns themselves for ``None``, slices for a ``range``, else tuples."""
    if rows is None:
        return list(columns)
    if type(rows) is range:
        part = slice(rows.start, rows.stop)
        return [column[part] for column in columns]
    if len(rows) < 2:  # ``itemgetter`` of one row returns it bare
        return [tuple(column[i] for i in rows) for column in columns]
    return list(map(itemgetter(*rows), columns))


class Batch:
    """Rows of one decoded page: a scan's hits, not yet built as records.

    ``column`` is a column reader (:class:`IntervalColumn`...), or the value
    tuple of a packed or ``V`` column; ``rows`` the rows that matched, in
    order, ``None`` for all ``count`` of them.  :meth:`records` (and
    iteration) builds the records once, counted in the disk's ``tally``;
    :meth:`uids` and :meth:`interval_columns` read columns and build
    nothing — what the filters of a read and the wire's record frames use,
    so a served answer can leave as the columns it was read in.
    """

    __slots__ = ("column", "rows", "count", "tally", "_records")

    def __init__(self, column: Any, rows: Optional[Sequence[int]], count: int, tally: Any) -> None:
        self.column = column
        self.rows = rows
        self.count = count
        self.tally = tally
        self._records: Optional[List[Any]] = None

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[Any]:
        return iter(self.records())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Batch({type(self.column).__name__}, {self.count} rows)"

    def records(self) -> List[Any]:
        """The rows as records (or values), built on the first call."""
        records = self._records
        if records is None:
            column, rows = self.column, self.rows
            if type(column) is tuple:
                records = list(pick((column,), rows)[0])
            else:
                records = column.tolist() if rows is None else column.take(rows)
            self.tally.records += len(records)
            self._records = records
        return records

    def row(self, i: int) -> Any:
        """The record of this batch's ``i``-th row alone."""
        if self._records is not None:
            return self._records[i]
        column = self.column
        row = i if self.rows is None else self.rows[i]
        self.tally.records += 1
        return column[row] if type(column) is tuple else column.take([row])[0]

    def subset(self, positions: Sequence[int]) -> "Batch":
        """The rows at ``positions`` (indexes into this batch), as a batch."""
        rows = self.rows
        picked = list(positions) if rows is None else [rows[i] for i in positions]
        return Batch(self.column, picked, len(picked), self.tally)

    def uids(self) -> Optional[Sequence[Any]]:
        """Each row's record uid, off the uid column; ``None`` when the rows
        are not uid-keyed records (B+-tree pairs, bare values)."""
        uids = getattr(self.column, "uids", None)
        return None if uids is None else pick((uids,), self.rows)[0]

    def interval_columns(
        self,
    ) -> Optional[Tuple[List[Sequence[Any]], Tuple[Optional[type], ...]]]:
        """The rows' lows, highs, uids and payloads, and per column the type
        every value of that page column has (``None`` for a ``V`` column) —
        or ``None`` unless the rows are intervals in flat columns."""
        read = getattr(self.column, "interval_columns", None)
        return None if read is None else read(self.rows)


class SimulatedDisk:
    """An in-memory page store that counts I/Os.

    Parameters
    ----------
    block_size:
        The page capacity ``B`` in records.  Every block allocated from this
        disk holds at most ``block_size`` records.

    Notes
    -----
    * ``read``/``write`` each count as one I/O; ``read_run`` counts one
      per block.
    * A block is the :class:`Page` last written; every read returns it.  Its
      records are split into columns on its first scan, not at the write:
      many pages are never read, and a split per write cost 75 % more build.
    * Structures that want to model a buffer pool should wrap the disk in a
      :class:`~repro.io.buffer.BufferManager`; the raw disk itself performs
      no caching, which gives worst-case (cold-cache) I/O counts.
    """

    def __init__(self, block_size: int) -> None:
        if block_size < 2:
            raise ValueError("block_size must be at least 2")
        self.block_size = block_size
        self.stats = IOStats()
        #: free-form metadata (the engine catalog root pointer lives here);
        #: in-memory only — the file-backed disk persists it in its sidecar
        self.meta: Dict[str, Any] = {}
        self._blocks: Dict[BlockId, Page] = {}
        self._next_id: BlockId = 0

    # ------------------------------------------------------------------ #
    # allocation
    # ------------------------------------------------------------------ #
    def allocate(
        self,
        records: Optional[Sequence[Any]] = None,
        header: Optional[Mapping[str, Any]] = None,
        capacity: Optional[int] = None,
    ) -> Page:
        """Allocate a new block, write it, and return its page.

        Allocation itself is free; the initial write is counted as one I/O,
        mirroring the cost of materialising a page on disk.
        """
        page = Page.of(self._next_id, capacity or self.block_size, records or (), header)
        self._next_id += 1
        self._blocks[page.block_id] = page
        self.stats.count(allocations=1, writes=1)
        return page

    def free(self, block_id: BlockId) -> None:
        """Release a block.  Freeing is not an I/O."""
        if block_id in self._blocks:
            del self._blocks[block_id]
            self.stats.count(frees=1)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def read(self, block_id: BlockId) -> Page:
        """Read a block from disk (one I/O)."""
        try:
            page = self._blocks[block_id]
        except KeyError as exc:
            raise KeyError(f"no such block: {block_id}") from exc
        self.stats.count(reads=1)
        return page

    def read_run(self, block_ids: Sequence[BlockId]) -> List[Page]:
        """Read ``block_ids`` in order: one I/O each, charged in one count."""
        try:
            run = [self._blocks[bid] for bid in block_ids]
        except KeyError as exc:
            raise KeyError(f"no such block: {exc.args[0]}") from exc
        if run:
            self.stats.count(reads=len(run))
        return run

    def write(self, page: Page) -> None:
        """Store ``page`` as its block's new version (one I/O)."""
        if page.block_id not in self._blocks:
            raise KeyError(f"no such block: {page.block_id}")
        self._blocks[page.block_id] = page
        self.stats.count(writes=1)

    def peek(self, block_id: BlockId) -> Page:
        """Inspect a block *without* counting an I/O.

        Intended for tests, for structure-invariant checks and for a buffer
        pool that charges a run's misses itself; algorithms must use
        :meth:`read` or :meth:`read_run`.
        """
        return self._blocks[block_id]

    # ------------------------------------------------------------------ #
    # accounting helpers
    # ------------------------------------------------------------------ #
    @property
    def blocks_in_use(self) -> int:
        """Number of currently allocated blocks (the space bound)."""
        return len(self._blocks)

    def block_ids(self) -> List[BlockId]:
        return list(self._blocks.keys())

    def measure(self) -> ContextManager[Measurement]:
        """Measure this thread's I/Os within a ``with`` block.

        Example
        -------
        >>> disk = SimulatedDisk(block_size=4)
        >>> blk = disk.allocate([1, 2, 3])
        >>> with disk.measure() as m:
        ...     _ = disk.read(blk.block_id)
        >>> m.ios
        1
        """
        return self.stats.measure()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimulatedDisk(B={self.block_size}, blocks={self.blocks_in_use}, "
            f"{self.stats})"
        )


#: the tally of pages no decode made (:class:`SimulatedDisk`'s): what is
#: built from them is counted like any other, and read by no one
UNCOUNTED = SimpleNamespace(pages=0, records=0)


# --------------------------------------------------------------------------- #
# column readers: a packed or ``V`` column is a tuple of its values, a record
# column a reader that builds rows (``take``, ``tolist``) from its columns or
# hands back the records it was split from (``objects``)
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


def _take(column: Any, rows: Sequence[int]) -> List[Any]:
    if type(column) is tuple:
        return [column[i] for i in rows]
    return column.take(rows)


class PackedColumn:
    """``q``/``d``/``N``/``V``/``-`` as the outermost column: the unpacked
    tuple, and as its one kind the type of its values when it packs
    (``None`` for ``V`` and ``-``)."""

    __slots__ = ("values", "kinds")

    def __init__(self, values: Tuple[Any, ...], kind: Optional[type]) -> None:
        self.values = values
        self.kinds = (kind,)

    def tolist(self) -> List[Any]:
        return list(self.values)

    def take(self, rows: Sequence[int]) -> List[Any]:
        values = self.values
        return [values[i] for i in rows]


class IntervalColumn:
    """``I``: intervals as (lows, highs, uids, payloads).

    ``kinds`` holds, per column, the one type a packed column's values have
    (``float`` for ``d``, ``int`` for ``q``, ``NoneType`` for ``N``) and
    ``None`` for any other — what a record frame packs them by, unscanned.
    Every reader keeps its columns' kinds so.  ``objects`` are the records
    themselves when the reader was split from them (:func:`split`), and
    handed out as they are; a decoded reader builds its records.
    """

    __slots__ = ("lows", "highs", "uids", "payloads", "kinds", "objects")

    def __init__(self, lows: Any, highs: Any, uids: Any, payloads: Any,
                 kinds: Tuple[Optional[type], ...], objects: Optional[Tuple[Any, ...]] = None) -> None:
        self.lows = lows
        self.highs = highs
        self.uids = uids
        self.payloads = payloads
        self.kinds = kinds
        self.objects = objects

    def tolist(self) -> List[Interval]:
        if self.objects is not None:
            return list(self.objects)
        return list(map(
            _interval, column_values(self.lows), column_values(self.highs),
            column_values(self.payloads), column_values(self.uids),
        ))

    def take(self, rows: Sequence[int]) -> List[Interval]:
        objects = self.objects
        if objects is not None:
            return [objects[i] for i in rows]
        lows, highs = column_values(self.lows), column_values(self.highs)
        payloads, uids = column_values(self.payloads), column_values(self.uids)
        return [_interval(lows[i], highs[i], payloads[i], uids[i]) for i in rows]

    def interval_columns(
        self, rows: Optional[Sequence[int]]
    ) -> Optional[Tuple[List[Sequence[Any]], Tuple[Optional[type], ...]]]:
        """Rows ``rows`` of the four columns, and their kinds (see
        :meth:`~repro.io.disk.Batch.interval_columns`); ``None`` when the
        payloads are records themselves (a nested column)."""
        if type(self.payloads) is not tuple:
            return None
        return pick((self.lows, self.highs, self.uids, self.payloads), rows), self.kinds


class PointColumn:
    """``P``/``S``: planar points as (xs, ys, uids, payloads).

    For an ``S`` page ``payloads`` is an :class:`IntervalColumn` sharing
    ``xs``/``ys`` as its endpoints, so a scan that only reports payloads
    (a stabbing query) never builds the points.
    """

    __slots__ = ("xs", "ys", "uids", "payloads", "kinds", "objects")

    def __init__(self, xs: Any, ys: Any, uids: Any, payloads: Any,
                 kinds: Tuple[Optional[type], ...], objects: Optional[Tuple[Any, ...]] = None) -> None:
        self.xs = xs
        self.ys = ys
        self.uids = uids
        self.payloads = payloads
        self.kinds = kinds
        self.objects = objects

    def tolist(self) -> List[PlanarPoint]:
        if self.objects is not None:
            return list(self.objects)
        return list(map(
            _point, column_values(self.xs), column_values(self.ys),
            column_values(self.payloads), column_values(self.uids),
        ))

    def take(self, rows: Sequence[int]) -> List[PlanarPoint]:
        objects = self.objects
        if objects is not None:
            return [objects[i] for i in rows]
        xs, ys, uids = column_values(self.xs), column_values(self.ys), column_values(self.uids)
        return [
            _point(xs[i], ys[i], payload, uids[i])
            for i, payload in zip(rows, _take(self.payloads, rows))
        ]


class PairColumn:
    """``T``: 2-tuples as (firsts, seconds) — B+-tree keys beside values."""

    __slots__ = ("firsts", "seconds", "kinds", "objects")

    def __init__(self, firsts: Any, seconds: Any, kinds: Tuple[Optional[type], ...],
                 objects: Optional[Tuple[Any, ...]] = None) -> None:
        self.firsts = firsts
        self.seconds = seconds
        self.kinds = kinds
        self.objects = objects

    @property
    def payloads(self) -> Any:
        """The second members: what a B+-tree entry carries."""
        return self.seconds

    def tolist(self) -> List[Tuple[Any, Any]]:
        if self.objects is not None:
            return list(self.objects)
        return list(zip(column_values(self.firsts), column_values(self.seconds)))

    def take(self, rows: Sequence[int]) -> List[Tuple[Any, Any]]:
        objects = self.objects
        if objects is not None:
            return [objects[i] for i in rows]
        return list(zip(_take(self.firsts, rows), _take(self.seconds, rows)))


# --------------------------------------------------------------------------- #
# the split: records into a page's columns, the one place a layout is chosen
# --------------------------------------------------------------------------- #
def split(records: Sequence[Any]) -> Any:
    """``records`` as the column reader :func:`~repro.io.pagecodec.decode`
    gives back for their page — the one place a page's layout is chosen:
    each column takes the typed form its values fit (``d``, ``q`` within
    int64, ``N``; intervals, points and pairs as record columns), else
    ``V``.  :func:`~repro.io.pagecodec.pack` writes what this returns."""
    column, kind = _split(records)
    return PackedColumn(column, kind) if type(column) is tuple else column


def _split(values: Sequence[Any]) -> Tuple[Any, Optional[type]]:
    """A nested column and its kind: a tuple and the one type of its values
    when it packs (``d`` / ``q`` / ``N``), a tuple and ``None`` for ``V``,
    a record column's reader and ``None``."""
    kinds = set(map(type, values))
    if len(kinds) == 1:
        (kind,) = kinds
        if kind is float or kind is type(None):
            return tuple(values), kind
        if kind is int:
            column = tuple(values)
            # beyond int64 a ``V`` column keeps it exact
            if _INT64_MIN <= min(column) and max(column) <= _INT64_MAX:
                return column, int
        else:
            splitter = _SPLITTERS.get(kind)
            if splitter is not None:
                column = splitter(values)
                if column is not None:
                    return column, None
    return tuple(values), None


def _split_intervals(values: Sequence[Interval]) -> "IntervalColumn":
    lows, low_kind = _split([iv.low for iv in values])
    highs, high_kind = _split([iv.high for iv in values])
    uids, uid_kind = _split([iv.uid for iv in values])
    payloads, payload_kind = _split([iv.payload for iv in values])
    return IntervalColumn(
        lows, highs, uids, payloads, (low_kind, high_kind, uid_kind, payload_kind), tuple(values)
    )


def _split_points(values: Sequence[PlanarPoint]) -> "PointColumn":
    xs, x_kind = _split([p.x for p in values])
    ys, y_kind = _split([p.y for p in values])
    uids, uid_kind = _split([p.uid for p in values])
    payloads = tuple([p.payload for p in values])
    kinds = (x_kind, y_kind, uid_kind, None)
    if set(map(type, payloads)) == _INTERVALS_ONLY and (
        # the interval manager's points share their interval's endpoint
        # objects; identical values (type for type) give equal columns too
        all([iv.low is p.x and iv.high is p.y for p, iv in zip(values, payloads)])
        or all([identical(iv.low, p.x) and identical(iv.high, p.y) for p, iv in zip(values, payloads)])
    ):
        # ``S``: the interval's endpoints ride on the point's coordinates
        interval_uids, interval_uid_kind = _split([iv.uid for iv in payloads])
        interval_payloads, payload_kind = _split([iv.payload for iv in payloads])
        return PointColumn(xs, ys, uids, IntervalColumn(
            xs, ys, interval_uids, interval_payloads,
            (x_kind, y_kind, interval_uid_kind, payload_kind), payloads,
        ), kinds, tuple(values))
    column, payload_kind = _split(payloads)
    return PointColumn(xs, ys, uids, column, kinds[:3] + (payload_kind,), tuple(values))


def _split_pairs(values: Sequence[Tuple[Any, ...]]) -> Optional["PairColumn"]:
    if set(map(len, values)) != {2}:
        return None
    firsts, seconds = zip(*values)
    firsts, first_kind = _split(firsts)
    seconds, second_kind = _split(seconds)
    return PairColumn(firsts, seconds, (first_kind, second_kind), tuple(values))


_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
_INTERVALS_ONLY = {Interval}

# the metablock package imports this module: PlanarPoint comes last, once
# everything here is defined
from repro.metablock.geometry import PlanarPoint  # noqa: E402

#: a record type -> its record column's reader of a list of such records
_SPLITTERS: Dict[type, Callable[[Sequence[Any]], Any]] = {
    Interval: _split_intervals,
    PlanarPoint: _split_points,
    tuple: _split_pairs,
}
