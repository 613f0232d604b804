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
from operator import itemgetter
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.algebra import Range, Stab
from repro.analysis.complexity import Bound, btree_query_bound
from repro.io.disk import BlockId, Page, column_values

Pair = Tuple[Any, Any]
_key = itemgetter(0)


def _keys(node: Page) -> Sequence[Any]:
    """A node's keys, off its page's key column (its entries are pairs)."""
    return column_values(node.columns.firsts) if node.count else ()


def _children(node: Page) -> Sequence[BlockId]:
    """An internal node's child ids, in key order."""
    return node.columns.seconds


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
        data = sorted(map(tuple, pairs), key=_key)
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
        data = sorted(map(tuple, pairs), key=_key)
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
            node = self.disk.peek(bid)
            if not node.header["leaf"]:
                stack.extend(_children(node))
            self.disk.free(bid)

    # ------------------------------------------------------------------ #
    # search
    # ------------------------------------------------------------------ #
    def _find_leaf(self, key: Any) -> Tuple[Page, List[Tuple[Page, int]]]:
        """Descend to the leaf that should contain ``key``.

        Returns the leaf's page and the path of ``(page, child_index)``
        taken through internal nodes: the pages the descent read, which a
        split updates without reading them again.  A node routes on its
        key column alone.
        """
        path: List[Tuple[Page, int]] = []
        node = self.disk.read(self.root_id)
        while not node.header["leaf"]:
            keys = _keys(node)
            idx = min(bisect_left(keys, key), len(keys) - 1)
            path.append((node, idx))
            node = self.disk.read(_children(node)[idx])
        return node, path

    def search(self, key: Any) -> List[Any]:
        """Return all values stored under ``key`` (``O(log_B n + t/B)`` I/Os)."""
        return [v for _, v in self.range_search(key, key)]

    def contains(self, key: Any) -> bool:
        """Whether any pair with ``key`` exists."""
        leaf, _ = self._find_leaf(key)
        if key in _keys(leaf):
            return True
        # duplicates may spill into the following leaf
        next_id = leaf.header["next"]
        if next_id is None:
            return False
        keys = _keys(self.disk.read(next_id))
        return bool(keys) and keys[0] == key

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
        value)`` pairs.  The range is found by bisecting the leaf's key
        column, and the batch is the page's rows inside it (a
        :class:`~repro.io.disk.Batch`), built only when asked.
        """
        if lo > hi or (lo == hi and not (min_inclusive and max_inclusive)):
            return
        leaf, _ = self._find_leaf(lo)
        while True:
            keys = _keys(leaf)
            start = bisect_left(keys, lo) if min_inclusive else bisect_right(keys, lo)
            stop = bisect_right(keys, hi) if max_inclusive else bisect_left(keys, hi)
            if start < stop:
                whole = start == 0 and stop == len(keys)
                yield leaf.take(None if whole else range(start, stop), payloads=values)
            next_id = leaf.header["next"]
            if stop < len(keys) or next_id is None:
                return
            leaf = self.disk.read(next_id)

    def iter_pairs(self) -> Iterator[Pair]:
        """Iterate over every pair in key order (reads every leaf)."""
        node = self.disk.read(self.root_id)
        while not node.header["leaf"]:
            node = self.disk.read(_children(node)[0])
        while True:
            yield from node.records()
            next_id = node.header["next"]
            if next_id is None:
                return
            node = self.disk.read(next_id)

    def min_key(self) -> Optional[Any]:
        """Smallest key in the tree, or ``None`` when empty."""
        if self.size == 0:
            return None
        node = self.disk.read(self.root_id)
        while not node.header["leaf"]:
            node = self.disk.read(_children(node)[0])
        keys = _keys(node)
        return keys[0] if keys else None

    def max_key(self) -> Optional[Any]:
        """Largest key in the tree, or ``None`` when empty."""
        if self.size == 0:
            return None
        node = self.disk.read(self.root_id)
        while not node.header["leaf"]:
            node = self.disk.read(_children(node)[-1])
        keys = _keys(node)
        return keys[-1] if keys else None

    # ------------------------------------------------------------------ #
    # insertion
    # ------------------------------------------------------------------ #
    def insert(self, key: Any, value: Any) -> None:
        """Insert a pair (``O(log_B n)`` I/Os amortised over splits)."""
        leaf, path = self._find_leaf(key)
        records = leaf.records()
        records.insert(bisect_right(_keys(leaf), key), (key, value))
        self.size += 1
        if len(records) <= leaf.capacity:
            self.disk.write(leaf.replace(records))
            return
        self._split(leaf, records, path)

    def _split(self, node: Page, records: List[Pair], path: List[Tuple[Page, int]]) -> None:
        """Split ``node``, whose entries have grown to the overfull
        ``records``, and propagate upward."""
        while True:
            mid = len(records) // 2
            left_records = records[:mid]
            right_records = records[mid:]

            if node.header["leaf"]:
                right = self.disk.allocate(
                    records=right_records,
                    header={"leaf": True, "next": node.header["next"]},
                )
                self.disk.write(node.replace(left_records, {"leaf": True, "next": right.block_id}))
            else:
                right = self.disk.allocate(records=right_records, header={"leaf": False})
                self.disk.write(node.replace(left_records))

            left_max = left_records[-1][0]
            right_max = right_records[-1][0]

            if not path:
                # split the root: allocate a new root above
                new_root = self.disk.allocate(
                    records=[(left_max, node.block_id), (right_max, right.block_id)],
                    header={"leaf": False},
                )
                self.root_id = new_root.block_id
                self.height += 1
                return

            parent, child_idx = path.pop()
            # the existing entry pointed at `node`; refresh its key and add the right sibling
            records = parent.records()
            records[child_idx] = (left_max, node.block_id)
            records.insert(child_idx + 1, (right_max, right.block_id))
            if len(records) <= parent.capacity:
                self.disk.write(parent.replace(records))
                return
            node = parent  # keep splitting upward

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
            node = self.disk.peek(stack.pop())
            count += 1
            if not node.header["leaf"]:
                stack.extend(_children(node))
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
        records = leaf.records()
        for i, (k, v) in enumerate(records):
            if k == key and (
                match(v) if match is not None else (value is _MISSING or v == value)
            ):
                del records[i]
                self.disk.write(leaf.replace(records))
                self.size -= 1
                return True
            if k > key:
                return False
        next_id = leaf.header["next"]
        if next_id is None:
            return False
        leaf = self.disk.read(next_id)
        keys = _keys(leaf)
        if keys and keys[0] > key:
            return False


BPlusTree.delete = _delete  # type: ignore[method-assign]
