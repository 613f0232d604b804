"""I/O cost-model substrate.

The paper measures every algorithm by the number of disk-block transfers
("I/Os") it performs, where each block holds ``B`` units of data.  This
subpackage provides that cost model as an executable substrate:

* :class:`~repro.io.disk.SimulatedDisk` — an in-memory page store whose
  reads and writes are counted,
* :class:`~repro.io.buffer.BufferManager` — an LRU buffer pool modelling the
  ``O(B^2)`` words of main memory the paper assumes,
* :class:`~repro.io.filedisk.FileDisk` — the same page store backed by a
  real file on disk,
* :class:`~repro.io.counters.IOStats` — the counters every benchmark reports.

The common contract is :class:`~repro.io.backend.StorageBackend`: all
external data structures in this repository (B+-trees, metablock trees,
blocked priority search trees) allocate their pages from *some* backend and
therefore have exact, deterministic I/O costs regardless of where the pages
physically live.
"""

from repro.io.counters import IOStats, Measurement
from repro.io.disk import BlockId, Page, SimulatedDisk
from repro.io.buffer import BufferManager
from repro.io.backend import StorageBackend
from repro.io.filedisk import FileDisk

__all__ = [
    "BlockId",
    "BufferManager",
    "FileDisk",
    "IOStats",
    "Measurement",
    "Page",
    "SimulatedDisk",
    "StorageBackend",
]
