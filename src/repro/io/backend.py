"""The storage-backend protocol every external structure builds on.

The paper's cost model only requires a page store: fixed-capacity blocks,
each read or write counting as one I/O.  :class:`StorageBackend` captures
that contract structurally, so the data structures are agnostic to *where*
the pages live:

* :class:`~repro.io.disk.SimulatedDisk` — in-memory pages (the default;
  exact, deterministic I/O counts),
* :class:`~repro.io.filedisk.FileDisk` — real pages serialized to a file on
  disk, same accounting,
* :class:`~repro.io.buffer.BufferManager` — an LRU buffer pool layered over
  either of the above.

Any object satisfying this protocol can be passed wherever a ``disk`` is
expected, including :class:`~repro.engine.Engine` via ``Engine(backend=...)``.
"""

from __future__ import annotations

from typing import (
    Any, ContextManager, Dict, List, Mapping, Optional, Protocol, Sequence, runtime_checkable,
)

from repro.io.counters import IOStats, Measurement
from repro.io.disk import BlockId, Page


@runtime_checkable
class StorageBackend(Protocol):
    """Structural interface of a block store with I/O accounting.

    Implementations must treat :meth:`read` and :meth:`write` as one I/O
    each (buffer pools may absorb reads as cache hits).

    Every backend hands out immutable :class:`~repro.io.disk.Page` values; a
    block changes only by :meth:`write` of its next version
    (:meth:`~repro.io.disk.Page.replace`), never overfull.
    """

    block_size: int
    stats: IOStats
    #: free-form metadata dictionary (not blocks, not I/O-counted); the
    #: engine stores its catalog root pointer here, and persistent backends
    #: (``FileDisk``) carry it across processes
    meta: Dict[str, Any]

    def allocate(
        self,
        records: Optional[Sequence[Any]] = None,
        header: Optional[Mapping[str, Any]] = None,
        capacity: Optional[int] = None,
    ) -> Page:
        """Allocate and persist a new block (one write I/O)."""
        ...

    def free(self, block_id: BlockId) -> None:
        """Release a block (not an I/O)."""
        ...

    def read(self, block_id: BlockId) -> Page:
        """Fetch a block (one read I/O, unless absorbed by a cache)."""
        ...

    def read_run(self, block_ids: Sequence[BlockId]) -> List[Page]:
        """Fetch blocks in order, counted exactly as that many :meth:`read`
        calls but in one charge (none for an empty run) — for a scan that
        knows its blocks before it reads any."""
        ...

    def write(self, page: Page) -> None:
        """Store ``page`` as its block's next version (one write I/O, possibly
        deferred by a cache)."""
        ...

    def peek(self, block_id: BlockId) -> Page:
        """Inspect a block without accounting (tests, invariant checks, and
        a buffer pool that charges a run's misses itself)."""
        ...

    @property
    def blocks_in_use(self) -> int:
        """Number of live blocks (the space bound)."""
        ...

    def measure(self) -> ContextManager[Measurement]:
        """Scoped I/O measurement (see :meth:`SimulatedDisk.measure`)."""
        ...
