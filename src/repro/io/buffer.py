"""LRU buffer pool over a :class:`~repro.io.disk.SimulatedDisk`.

The paper assumes ``O(B^2)`` units of main memory, i.e. roughly ``B``
resident pages (Section 1.1).  :class:`BufferManager` models that memory:
reads of resident pages are cache hits and cost no I/O, evictions of dirty
pages cost a write.

All external structures accept either a raw :class:`SimulatedDisk` (cold
cache, worst-case counts — the default used in benchmarks) or a
:class:`BufferManager` wrapping one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, List, Mapping, Optional, Sequence, Set

from repro.io.disk import BlockId, Page, SimulatedDisk


class BufferManager:
    """A write-back LRU cache of disk pages.

    Parameters
    ----------
    disk:
        The underlying simulated disk.
    capacity_pages:
        Number of pages that fit in main memory.  Defaults to the page size
        ``B``, matching the paper's ``O(B^2)`` words of memory assumption.
    """

    def __init__(self, disk: SimulatedDisk, capacity_pages: Optional[int] = None) -> None:
        if capacity_pages is not None and capacity_pages < 1:
            raise ValueError("capacity_pages must be positive")
        self.disk = disk
        self.capacity_pages = capacity_pages if capacity_pages is not None else disk.block_size
        self._cache: "OrderedDict[BlockId, Page]" = OrderedDict()
        self._dirty: Set[BlockId] = set()
        #: guards the LRU order, residency set and dirty set — concurrent
        #: reader sessions hit the pool in parallel, and an unsynchronized
        #: eviction racing a move_to_end raises (or loses a dirty page)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # pass-through API (same surface as SimulatedDisk)
    # ------------------------------------------------------------------ #
    @property
    def block_size(self) -> int:
        return self.disk.block_size

    @property
    def stats(self):
        return self.disk.stats

    @property
    def meta(self):
        return self.disk.meta

    @property
    def blocks_in_use(self) -> int:
        return self.disk.blocks_in_use

    def block_ids(self) -> List[BlockId]:
        return self.disk.block_ids()

    def measure(self):
        return self.disk.measure()

    def allocate(
        self,
        records: Optional[Sequence[Any]] = None,
        header: Optional[Mapping[str, Any]] = None,
        capacity: Optional[int] = None,
    ) -> Page:
        with self._lock:
            block = self.disk.allocate(records, header, capacity)
            self._insert(block, dirty=False)
            return block

    def free(self, block_id: BlockId) -> None:
        with self._lock:
            self._cache.pop(block_id, None)
            self._dirty.discard(block_id)
            self.disk.free(block_id)

    def read(self, block_id: BlockId) -> Page:
        """Read a block, through the cache."""
        with self._lock:
            if block_id in self._cache:
                self._cache.move_to_end(block_id)
                self.disk.stats.count(cache_hits=1)
                return self._cache[block_id]
            block = self.disk.read(block_id)
            self._insert(block, dirty=False)
            return block

    def read_run(self, block_ids: Sequence[BlockId]) -> List[Page]:
        """:meth:`read` each of ``block_ids`` in order, charged in one count.

        Hits and misses fall exactly as ``k`` single reads would have them
        (an earlier miss may evict a later block of the run), so each miss
        is fetched uncounted and the run's misses and hits are charged
        together at the end.
        """
        run: List[Page] = []
        misses = 0
        with self._lock:
            for block_id in block_ids:
                block = self._cache.get(block_id)
                if block is None:
                    block = self.disk.peek(block_id)
                    self._insert(block, dirty=False)
                    misses += 1
                else:
                    self._cache.move_to_end(block_id)
                run.append(block)
            if run:
                self.disk.stats.count(reads=misses, cache_hits=len(run) - misses)
        return run

    def write(self, page: Page) -> None:
        """Write a page.  Deferred to eviction or :meth:`flush` (write-back),
        which cannot fail for it: no :class:`~repro.io.disk.Page` is overfull."""
        with self._lock:
            self._insert(page, dirty=True)

    def peek(self, block_id: BlockId) -> Page:
        with self._lock:
            if block_id in self._cache:
                return self._cache[block_id]
        return self.disk.peek(block_id)

    # ------------------------------------------------------------------ #
    # cache machinery
    # ------------------------------------------------------------------ #
    def _insert(self, page: Page, dirty: bool) -> None:
        # caller holds self._lock
        self._cache[page.block_id] = page
        self._cache.move_to_end(page.block_id)
        if dirty:
            self._dirty.add(page.block_id)
        while len(self._cache) > self.capacity_pages:
            victim_id, victim = self._cache.popitem(last=False)
            if victim_id in self._dirty:
                self._dirty.discard(victim_id)
                self.disk.write(victim)

    def flush(self) -> None:
        """Write back every dirty resident page."""
        with self._lock:
            for block_id in list(self._dirty):
                block = self._cache.get(block_id)
                if block is not None:
                    self.disk.write(block)
            self._dirty.clear()

    def drop(self) -> None:
        """Empty the cache *without* writing dirty pages (test helper)."""
        with self._lock:
            self._cache.clear()
            self._dirty.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BufferManager(pages={len(self._cache)}/{self.capacity_pages}, "
            f"dirty={len(self._dirty)})"
        )
