"""An external-memory B+-tree with I/O accounting.

Design
------
* Leaves hold up to ``B`` ``(key, value)`` pairs, sorted by key, and are
  chained left-to-right, exactly as the paper describes B+-trees
  (Section 1.4: "keep data only in their leaves and chain the leaves from
  left to right").
* Internal nodes hold up to ``B`` routing entries ``(max_key_of_child,
  child_block_id)``.
* Duplicate keys are allowed (several objects may share an attribute
  value); a range search reports every matching pair.
* All block accesses go through the owning :class:`SimulatedDisk` (or
  :class:`BufferManager`), so every operation has an exact I/O cost.

The structure supports point search, range search, insertion, deletion and
bulk loading from sorted data.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.algebra import Range, Stab
from repro.analysis.complexity import Bound, btree_query_bound
from repro.io.disk import Block, BlockId

Pair = Tuple[Any, Any]


def _packed_entries(block: Block) -> Tuple[Any, Optional[Tuple[Any, ...]]]:
    """``(columns, keys)`` of a node still in its page's columns.

    ``keys`` is ``None`` for an in-memory block, or when the keys fit no
    packed column (strings, mixed numbers) — callers then walk
    ``block.records``.
    """
    columns = block.columns
    keys = getattr(columns, "firsts", None)
    return columns, keys if type(keys) is tuple else None


class _HybridBulkLoad:
    """Descriptor giving ``bulk_load`` both calling conventions.

    ``BPlusTree.bulk_load(disk, pairs)`` — the historical constructor —
    builds a fresh tree; ``tree.bulk_load(pairs)`` — the
    :class:`~repro.engine.protocols.MutableIndex` surface — adds a batch
    to an existing tree by repacking it bottom-up.
    """

    def __get__(self, obj, objtype=None):
        if obj is None:
            return objtype._bulk_build
        return obj._bulk_add


class BPlusTree:
    """A B+-tree storing ``(key, value)`` pairs on a simulated disk.

    Parameters
    ----------
    disk:
        A :class:`~repro.io.disk.SimulatedDisk` or
        :class:`~repro.io.buffer.BufferManager`.
    name:
        Optional label used in ``repr`` and debugging output.
    """

    def __init__(self, disk, name: str = "bptree") -> None:
        self._bind(disk, name)
        self._load_sorted([])

    def _bind(self, disk, name: str) -> None:
        self.disk = disk
        self.name = name
        self.branching = disk.block_size
        if self.branching < 2:
            raise ValueError("block size must be at least 2 for a B+-tree")

    #: capability flags of the :class:`~repro.engine.protocols.MutableIndex`
    #: tier: deletion and bottom-up bulk loading are both native here
    supports_deletes = True
    supports_bulk_load = True

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def _bulk_build(cls, disk, pairs: Iterable[Pair], name: str = "bptree") -> "BPlusTree":
        """Build a tree from (not necessarily sorted) ``(key, value)`` pairs.

        Bulk loading packs leaves completely full, which gives the
        ``O(n/B)`` space bound with a small constant, and costs one write
        per block and no read after sorting.
        """
        data = sorted(pairs, key=lambda kv: kv[0])
        tree = cls.__new__(cls)
        tree._bind(disk, name)
        tree._load_sorted(data)
        return tree

    def _load_sorted(self, data: List[Pair]) -> None:
        """Pack already-sorted pairs into full leaves, bottom-up: one write
        per block, no read.

        The leaves are allocated right to left, so each is written once,
        already holding the id of the leaf after it.
        """
        disk = self.disk
        B = self.branching
        chunks = [data[start : start + B] for start in range(0, len(data), B)] or [[]]
        leaf_ids: List[BlockId] = []
        next_id: Optional[BlockId] = None
        for chunk in reversed(chunks):
            next_id = disk.allocate(records=chunk, header={"leaf": True, "next": next_id}).block_id
            leaf_ids.append(next_id)
        leaf_ids.reverse()

        level_ids = leaf_ids
        level_keys = [chunk[-1][0] if chunk else None for chunk in chunks]
        height = 1
        while len(level_ids) > 1:
            next_ids: List[BlockId] = []
            next_keys: List[Any] = []
            for start in range(0, len(level_ids), B):
                child_ids = level_ids[start : start + B]
                child_keys = level_keys[start : start + B]
                records = list(zip(child_keys, child_ids))
                block = disk.allocate(records=records, header={"leaf": False})
                next_ids.append(block.block_id)
                next_keys.append(child_keys[-1])
            level_ids = next_ids
            level_keys = next_keys
            height += 1

        self.root_id = level_ids[0]
        self.height = height
        self.size = len(data)

    def _bulk_add(self, pairs: Iterable[Pair]) -> int:
        """Add a batch: :meth:`rebuild` over one leaf scan of the resident
        pairs, then the batch — ``O((n + m)/B)`` I/Os for ``m`` pairs."""
        batch = list(pairs)
        if batch:
            self.rebuild(chain(self.iter_pairs(), batch))
        return len(batch)

    bulk_load = _HybridBulkLoad()

    def rebuild(self, pairs: Iterable[Pair]) -> None:
        """Replace the contents by ``pairs``, packed bottom-up, in this object.

        The sort — the only step that can fail (keys that do not compare) —
        runs first and the old levels are freed last, so a failing batch
        raises with the tree intact.
        """
        data = sorted(pairs, key=lambda kv: kv[0])
        old_root = self.root_id
        self._load_sorted(data)
        self._free_subtree(old_root)

    def destroy(self) -> None:
        """Free every block of the tree (rebuilds and ``drop_index`` use this)."""
        if self.root_id is None:
            return
        self._free_subtree(self.root_id)
        self.root_id = None
        self.height = 0
        self.size = 0

    def _free_subtree(self, root_id: BlockId) -> None:
        stack = [root_id]
        while stack:
            bid = stack.pop()
            block = self.disk.peek(bid)
            if not block.header["leaf"]:
                stack.extend(child for _, child in block.records)
            self.disk.free(bid)

    # ------------------------------------------------------------------ #
    # search
    # ------------------------------------------------------------------ #
    def _find_leaf(self, key: Any) -> Tuple[Block, List[Tuple[Block, int]]]:
        """Descend to the leaf that should contain ``key``.

        Returns the leaf block and the path of ``(block, child_index)``
        taken through internal nodes: the blocks the descent read, which a
        split updates without reading them again.
        """
        path: List[Tuple[Block, int]] = []
        block = self.disk.read(self.root_id)
        while not block.header["leaf"]:
            columns, keys = _packed_entries(block)
            if keys is not None and type(columns.seconds) is tuple:
                # a page still in columns: route on the key column alone
                idx = min(bisect_left(keys, key), len(keys) - 1)
                child_id = columns.seconds[idx]
            else:
                idx = self._route(block, key)
                child_id = block.records[idx][1]
            path.append((block, idx))
            block = self.disk.read(child_id)
        return block, path

    @staticmethod
    def _route(block: Block, key: Any) -> int:
        """Index of the child an internal node routes ``key`` to."""
        records = block.records
        lo, hi = 0, len(records) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if records[mid][0] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def search(self, key: Any) -> List[Any]:
        """Return all values stored under ``key`` (``O(log_B n + t/B)`` I/Os)."""
        return [v for _, v in self.range_search(key, key)]

    def contains(self, key: Any) -> bool:
        """Whether any pair with ``key`` exists."""
        leaf, _ = self._find_leaf(key)
        if any(k == key for k, _ in leaf.records):
            return True
        # duplicates may spill into following leaves
        next_id = leaf.header["next"]
        while next_id is not None:
            nxt = self.disk.read(next_id)
            if nxt.records and nxt.records[0][0] == key:
                return True
            break
        return False

    def range_search(
        self,
        lo: Any,
        hi: Any,
        *,
        min_inclusive: bool = True,
        max_inclusive: bool = True,
    ) -> List[Pair]:
        """All ``(key, value)`` pairs with key in the given range.

        By default the range is the closed interval ``[lo, hi]``;
        ``min_inclusive=False`` / ``max_inclusive=False`` open the
        corresponding endpoint, so callers no longer need a post-filter to
        discard boundary records.

        Cost: ``O(log_B n + t/B)`` I/Os — the paper's reference bound.
        """
        return list(
            self.iter_range(lo, hi, min_inclusive=min_inclusive, max_inclusive=max_inclusive)
        )

    def iter_range(
        self,
        lo: Any,
        hi: Any,
        *,
        min_inclusive: bool = True,
        max_inclusive: bool = True,
    ) -> Iterator[Pair]:
        """Stream ``(key, value)`` pairs in key order, reading leaves lazily.

        The generator descends to the first qualifying leaf on the first
        ``next()`` and then reads one chained leaf at a time, so consumers
        that stop early (``itertools.islice``, ``QueryResult.first``) pay
        only for the blocks they actually touched.
        """
        return chain.from_iterable(
            self.iter_range_blocks(
                lo, hi, min_inclusive=min_inclusive, max_inclusive=max_inclusive
            )
        )

    def iter_range_blocks(
        self,
        lo: Any,
        hi: Any,
        *,
        min_inclusive: bool = True,
        max_inclusive: bool = True,
        values: bool = False,
    ) -> Iterator[Any]:
        """The range scan a leaf at a time: one batch of matches per leaf read.

        As lazy as :meth:`iter_range` (which is this, flattened).  With
        ``values`` the batches hold the stored values instead of ``(key,
        value)`` pairs.  On a leaf still in its page's columns the range is
        found by bisecting the packed key column, and the batch is the
        page's rows inside it (a :class:`~repro.io.disk.Batch`), built
        only when asked; an in-memory leaf's batch is a list.
        """
        if lo > hi or (lo == hi and not (min_inclusive and max_inclusive)):
            return
        leaf, _ = self._find_leaf(lo)
        while True:
            columns, keys = _packed_entries(leaf)
            if keys is not None:
                start = bisect_left(keys, lo) if min_inclusive else bisect_right(keys, lo)
                stop = bisect_right(keys, hi) if max_inclusive else bisect_left(keys, hi)
                done = stop < len(keys)
                whole = start == 0 and stop == len(keys)
                chunk = leaf.take(
                    columns, None if whole else range(start, stop), payloads=values
                ) if start < stop else []
            else:
                chunk = []
                done = False
                for k, v in leaf.records:
                    if k > hi or (k == hi and not max_inclusive):
                        done = True
                        break
                    if k > lo or (k == lo and min_inclusive):
                        chunk.append(v if values else (k, v))
            if chunk:
                yield chunk
            next_id = leaf.header["next"]
            if done or next_id is None:
                return
            leaf = self.disk.read(next_id)

    def iter_pairs(self) -> Iterator[Pair]:
        """Iterate over every pair in key order (reads every leaf)."""
        block = self.disk.read(self.root_id)
        while not block.header["leaf"]:
            block = self.disk.read(block.records[0][1])
        while True:
            for pair in block.records:
                yield tuple(pair)
            next_id = block.header["next"]
            if next_id is None:
                return
            block = self.disk.read(next_id)

    def min_key(self) -> Optional[Any]:
        """Smallest key in the tree, or ``None`` when empty."""
        if self.size == 0:
            return None
        block = self.disk.read(self.root_id)
        while not block.header["leaf"]:
            block = self.disk.read(block.records[0][1])
        return block.records[0][0] if block.records else None

    def max_key(self) -> Optional[Any]:
        """Largest key in the tree, or ``None`` when empty."""
        if self.size == 0:
            return None
        block = self.disk.read(self.root_id)
        while not block.header["leaf"]:
            block = self.disk.read(block.records[-1][1])
        return block.records[-1][0] if block.records else None

    # ------------------------------------------------------------------ #
    # insertion
    # ------------------------------------------------------------------ #
    def insert(self, key: Any, value: Any) -> None:
        """Insert a pair (``O(log_B n)`` I/Os amortised over splits)."""
        leaf, path = self._find_leaf(key)
        self._insert_into_leaf(leaf, key, value)
        self.size += 1
        if len(leaf.records) <= leaf.capacity:
            self.disk.write(leaf)
            return
        self._split(leaf, path)

    @staticmethod
    def _insert_into_leaf(leaf: Block, key: Any, value: Any) -> None:
        records = leaf.records
        lo, hi = 0, len(records)
        while lo < hi:
            mid = (lo + hi) // 2
            if records[mid][0] <= key:
                lo = mid + 1
            else:
                hi = mid
        records.insert(lo, (key, value))

    def _split(self, block: Block, path: List[Tuple[Block, int]]) -> None:
        """Split an overfull node and propagate upward."""
        while True:
            mid = len(block.records) // 2
            left_records = block.records[:mid]
            right_records = block.records[mid:]
            is_leaf = block.header["leaf"]

            if is_leaf:
                right = self.disk.allocate(
                    records=right_records,
                    header={"leaf": True, "next": block.header["next"]},
                )
                block.records = left_records
                block.header["next"] = right.block_id
            else:
                right = self.disk.allocate(records=right_records, header={"leaf": False})
                block.records = left_records
            self.disk.write(block)

            left_max = left_records[-1][0]
            right_max = right_records[-1][0]

            if not path:
                # split the root: allocate a new root above
                new_root = self.disk.allocate(
                    records=[(left_max, block.block_id), (right_max, right.block_id)],
                    header={"leaf": False},
                )
                self.root_id = new_root.block_id
                self.height += 1
                return

            parent, child_idx = path.pop()
            # the existing entry pointed at `block`; refresh its key and add the right sibling
            parent.records[child_idx] = (left_max, block.block_id)
            parent.records.insert(child_idx + 1, (right_max, right.block_id))
            if len(parent.records) <= parent.capacity:
                self.disk.write(parent)
                return
            block = parent  # keep splitting upward

    # ------------------------------------------------------------------ #
    # uniform Index surface (see repro.engine.protocols.Index)
    # ------------------------------------------------------------------ #
    def stream(self, q: Any, *, values: bool = False) -> Iterator[Any]:
        """The plain lazy hit iterator for a supported descriptor.

        * :class:`~repro.engine.queries.Range` -> ``(key, value)`` pairs in
          key order, honouring per-bound inclusivity — or, with ``values``,
          the stored values alone;
        * :class:`~repro.engine.queries.Stab` -> values stored under the
          exact key.
        """
        return chain.from_iterable(self.stream_blocks(q, values=values))

    def stream_blocks(self, q: Any, *, values: bool = False) -> Iterator[Any]:
        """:meth:`stream` a batch per leaf read (see :meth:`iter_range_blocks`)."""
        if isinstance(q, Stab):
            return self.iter_range_blocks(q.x, q.x, values=True)
        return self.iter_range_blocks(
            q.low, q.high, min_inclusive=q.min_inclusive,
            max_inclusive=q.max_inclusive, values=values,
        )

    def query(self, q: Any, *, values: bool = False) -> "Any":
        """Answer an engine query descriptor with a lazy ``QueryResult``
        over :meth:`stream` (``TypeError`` for an unsupported shape)."""
        from repro.engine.result import QueryResult

        return QueryResult.of(self, q, values=values)

    def supports(self, q: Any) -> bool:
        """Exact-key (:class:`Stab`) and key-range (:class:`Range`) shapes."""
        return isinstance(q, (Stab, Range))

    def cost(self, q: Any) -> "Any":
        """Section 1.1: ``O(log_B n + t/B)`` I/Os per search."""
        n, b = max(self.size, 2), self.branching
        return Bound.of("log_B n + t/B", lambda t: btree_query_bound(n, b, t))

    def io_stats(self):
        """Live I/O counters of the backing store."""
        return self.disk.stats

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def block_count(self) -> int:
        """Number of blocks reachable from the root (the space bound)."""
        count = 0
        stack = [self.root_id]
        while stack:
            block = self.disk.peek(stack.pop())
            count += 1
            if not block.header["leaf"]:
                stack.extend(child for _, child in block.records)
        return count

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BPlusTree(name={self.name!r}, n={self.size}, height={self.height})"


# --------------------------------------------------------------------------- #
# deletion implemented as a module-level patch to keep the class body readable
# --------------------------------------------------------------------------- #
_MISSING = object()


def _delete(
    self: BPlusTree, key: Any, value: Any = _MISSING, *, match: Any = None
) -> bool:
    """Delete one pair with ``key`` (and ``value`` when given).

    ``match`` (a ``value -> bool`` predicate) replaces the ``v == value``
    test when given — the interval manager passes a uid comparison so that
    deleting one of several value-identical records removes exactly the
    record asked for, not an equal twin.

    Returns ``True`` when a pair was removed.  Underflow is handled lazily:
    empty leaves stay in place (their parent entry remains valid because the
    paper's structures never rely on B+-tree minimum-occupancy for their
    bounds, and lazy deletion keeps the space bound within a constant
    factor).  This matches common practice for B+-trees used as secondary
    indexes.
    """
    leaf, _ = self._find_leaf(key)
    while True:
        for i, (k, v) in enumerate(leaf.records):
            if k == key and (
                match(v) if match is not None else (value is _MISSING or v == value)
            ):
                del leaf.records[i]
                self.disk.write(leaf)
                self.size -= 1
                return True
            if k > key:
                return False
        next_id = leaf.header["next"]
        if next_id is None:
            return False
        leaf = self.disk.read(next_id)
        if leaf.records and leaf.records[0][0] > key:
            return False


BPlusTree.delete = _delete  # type: ignore[method-assign]
