"""A simulated disk of fixed-capacity blocks with I/O counting.

The paper's model (Section 1.1): secondary storage is accessed in pages of
``B`` units, each access is one I/O, and bounds are expressed in the number
of I/Os.  :class:`SimulatedDisk` realises that model: it stores blocks in a
dictionary, enforces the per-block record capacity, and counts every read
and write.

A *block* here holds up to ``B`` records (arbitrary Python objects) plus a
small, constant amount of header information (pointers, split keys).  This
matches the convention used throughout the paper, where "a block holds B
data items" and control information of constant size per block is ignored.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, ContextManager, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.io.counters import IOStats, Measurement

BlockId = int


class Block:
    """A single disk block.

    Parameters
    ----------
    block_id:
        Identifier assigned by the owning :class:`SimulatedDisk`.
    capacity:
        Maximum number of records the block may hold (the page size ``B``).
    records:
        Initial payload records.
    header:
        Constant-size control information (child pointers, fence keys...).
        Kept separate from ``records`` so capacity checks only apply to data.
    """

    __slots__ = ("block_id", "capacity", "header", "_records", "_columns", "_count", "_tally")

    def __init__(
        self,
        block_id: BlockId,
        capacity: int,
        records: Optional[List[Any]] = None,
        header: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.block_id = block_id
        self.capacity = capacity
        self._records: Optional[List[Any]] = list(records) if records is not None else []
        self.header: Dict[str, Any] = dict(header) if header is not None else {}
        self._columns: Any = None
        self._count = 0
        self._tally: Any = None
        if len(self._records) > capacity:
            raise ValueError(
                f"block {block_id} overfull: {len(self._records)} > capacity {capacity}"
            )

    @classmethod
    def lazy(
        cls,
        block_id: BlockId,
        capacity: int,
        count: int,
        header: Dict[str, Any],
        columns: Any,
        tally: Any,
    ) -> "Block":
        """A block over a decoded page's columns: no record object built yet.

        ``columns`` is a :mod:`~repro.io.pagecodec` column reader and
        ``tally`` the owning disk's :class:`~repro.io.pagecodec.DecodeTally`,
        which counts every record this block materialises.
        """
        block = cls.__new__(cls)
        block.block_id = block_id
        block.capacity = capacity
        block.header = header
        block._records = None
        block._columns = columns
        block._count = count
        block._tally = tally
        return block

    @property
    def records(self) -> List[Any]:
        """The payload records (materialised from the columns on first use)."""
        records = self._records
        if records is None:
            columns = self._columns
            if columns is None:
                # a concurrent reader of this (cached) block got here first
                return self._records  # type: ignore[return-value]
            records = self._records = columns.tolist()
            self._tally.records += len(records)
            # callers may mutate the list, so from here on it is the truth
            # (dropped only after _records is set: see the early return)
            self._columns = None
        return records

    @records.setter
    def records(self, records: List[Any]) -> None:
        self._records = records
        self._columns = None

    @property
    def columns(self) -> Any:
        """The undecoded record columns, or ``None``.

        Set only on a block read from a page store whose ``records`` have
        not been touched; scans filter on these and :meth:`take` the rows
        that match instead of materialising the page.
        """
        return self._columns

    def take(
        self, columns: Any, rows: Optional[Sequence[int]] = None, *, payloads: bool = False
    ) -> "Batch":
        """Rows ``rows`` of ``columns`` — what :attr:`columns` returned to the
        caller that filtered them — as a :class:`Batch`: no record is built
        until the batch's records are asked for.  ``rows`` ``None`` is the
        whole page.

        With ``payloads`` the batch is of what the records carry (a point's
        payload, an entry's value).  The caller hands its own reference
        back because the block may have dropped its: under a buffer pool
        concurrent readers share one cached block, and one of them touching
        ``records`` must not pull the columns out from under another's scan.
        """
        return Batch(
            columns.payloads if payloads else columns, rows,
            self._count if rows is None else len(rows), self._tally,
        )

    @property
    def is_full(self) -> bool:
        return len(self) >= self.capacity

    def __len__(self) -> int:
        return self._count if self._records is None else len(self._records)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Block(id={self.block_id}, n={len(self)}/{self.capacity})"


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

    ``column`` is a :mod:`~repro.io.pagecodec` column reader, or the value
    tuple of a packed or ``V`` column; ``rows`` the rows that matched, in
    order, ``None`` for all ``count`` of them.  :meth:`records` (and
    iteration) builds the records once, counted in the disk's ``tally``;
    :meth:`uids` and :meth:`interval_columns` read columns and build
    nothing — what the filters of a read and the wire's record frames use,
    so a served answer can leave as the columns it was read in.  A block
    of :class:`SimulatedDisk` holds records, and its hits stay lists.
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
        self._blocks: Dict[BlockId, Block] = {}
        self._next_id: BlockId = 0

    # ------------------------------------------------------------------ #
    # allocation
    # ------------------------------------------------------------------ #
    def allocate(
        self,
        records: Optional[List[Any]] = None,
        header: Optional[Dict[str, Any]] = None,
        capacity: Optional[int] = None,
    ) -> Block:
        """Allocate a new block, write it, and return it.

        Allocation itself is free; the initial write is counted as one I/O,
        mirroring the cost of materialising a page on disk.
        """
        block_id = self._next_id
        self._next_id += 1
        block = Block(block_id, capacity or self.block_size, records, header)
        self._blocks[block_id] = block
        self.stats.count(allocations=1, writes=1)
        return block

    def free(self, block_id: BlockId) -> None:
        """Release a block.  Freeing is not an I/O."""
        if block_id in self._blocks:
            del self._blocks[block_id]
            self.stats.count(frees=1)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def read(self, block_id: BlockId) -> Block:
        """Read a block from disk (one I/O)."""
        try:
            block = self._blocks[block_id]
        except KeyError as exc:
            raise KeyError(f"no such block: {block_id}") from exc
        self.stats.count(reads=1)
        return block

    def read_run(self, block_ids: Sequence[BlockId]) -> List[Block]:
        """Read ``block_ids`` in order: one I/O each, charged in one count."""
        try:
            run = [self._blocks[bid] for bid in block_ids]
        except KeyError as exc:
            raise KeyError(f"no such block: {exc.args[0]}") from exc
        if run:
            self.stats.count(reads=len(run))
        return run

    def write(self, block: Block) -> None:
        """Write a block back to disk (one I/O)."""
        if block.block_id not in self._blocks:
            raise KeyError(f"no such block: {block.block_id}")
        if len(block.records) > block.capacity:
            raise ValueError(
                f"block {block.block_id} overfull: "
                f"{len(block.records)} > capacity {block.capacity}"
            )
        self._blocks[block.block_id] = block
        self.stats.count(writes=1)

    def peek(self, block_id: BlockId) -> Block:
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
