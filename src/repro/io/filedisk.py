"""A file-backed page store: the paper's disk model over real disk pages.

:class:`FileDisk` implements the same :class:`~repro.io.backend.StorageBackend`
contract as :class:`~repro.io.disk.SimulatedDisk`, but every block lives in
an append-only page file on the real filesystem.  A read is one
``os.pread`` of the page's extent, then its frame and checksum are
verified and its columns decoded; writes append a fresh version of the
page through the file's write buffer and advance the in-memory offset
table (a tiny log-structured store).  The bytes of a page are owned by
:mod:`repro.io.pagecodec`.  I/O accounting is identical to the simulated
disk, so every bound-checking experiment runs unchanged against real pages.

A read returns a :class:`~repro.io.disk.Page` like every backend's, over
the decoded columns: records are built only when ``records()`` is called
or a scan takes the rows that matched — fresh copies, so the structures
deduplicate by record uid, never by object identity.  A write packs a
page's columns (:func:`~repro.io.pagecodec.pack`) and builds no record.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from types import MappingProxyType
from typing import Any, ContextManager, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis import lockdep
from repro.errors import DomainError
from repro.io import pagecodec
from repro.io.counters import IOStats, Measurement
from repro.io.disk import BlockId, Page
from repro.io.pagecodec import PAGE_FORMAT, PageFormatError


#: what :meth:`FileDisk.compact` appends to the names of the copies it swaps in
COMPACT_SUFFIX = ".compact"


def decode_page(block_id: BlockId, offset: int, length: int, raw: bytes, tally: Any) -> Page:
    """The page block ``block_id``'s bytes ``raw`` hold (see
    :func:`~repro.io.pagecodec.decode`), counted in ``tally``."""
    capacity, count, header, columns = pagecodec.decode(raw, block_id, offset, length)
    tally.pages += 1
    return Page(block_id, capacity, count, MappingProxyType(header), columns, tally)


class FileDisk:
    """An append-only file of framed, checksummed pages with I/O counting.

    Parameters
    ----------
    path:
        Page-file location.  When omitted, a temporary file is created and
        removed again on :meth:`close`.  Constructing always starts from an
        empty file: a *non-empty* existing file is refused unless
        ``overwrite=True`` — reattach to an existing database with
        :meth:`FileDisk.open` instead.
    block_size:
        The page capacity ``B`` in records, as for ``SimulatedDisk``.
    overwrite:
        Allow truncating a non-empty existing file at ``path``.

    Notes
    -----
    * The offset table (block id -> byte extent) lives in memory while the
      disk is open; :meth:`sync` — called automatically by :meth:`close` —
      persists it (together with the free-form :attr:`meta` dictionary the
      :class:`~repro.engine.Engine` stores its catalog root in) to a
      ``<path>.meta`` sidecar, which is what makes a named page file a
      reopenable database rather than per-process scratch space.
    * Overwriting a page appends a new version; :meth:`compact` reclaims
      the superseded extents.  ``blocks_in_use`` counts live blocks, which
      is the quantity the paper's space bounds are about.
    * No byte a durable sidecar names is ever rewritten, and the sidecar's
      ``os.replace`` is the only commit point of :meth:`sync` and
      :meth:`compact` alike: a kill at any instant leaves a reopenable pair.
    """

    def __init__(
        self, path: Optional[str] = None, block_size: int = 16, *, overwrite: bool = False
    ) -> None:
        if block_size < 2:
            raise ValueError("block_size must be at least 2")
        self.block_size = block_size
        self.stats = IOStats()
        #: pages decoded / records materialised by the calling thread
        self.decoded = pagecodec.DecodeTally()
        self._extents: Dict[BlockId, Tuple[int, int]] = {}
        self._capacities: Dict[BlockId, int] = {}
        self._next_id: BlockId = 0
        self._owns_file = path is None
        if path is None:
            fd, path = tempfile.mkstemp(prefix="repro-filedisk-", suffix=".pages")
            os.close(fd)
        elif not overwrite and os.path.exists(path) and os.path.getsize(path) > 0:
            raise ValueError(
                f"refusing to truncate non-empty page file {path!r}; "
                "pass overwrite=True to allow it"
            )
        self.path = path
        #: free-form, sidecar-persisted metadata (the engine catalog root
        #: pointer lives here); not part of the block space or I/O counts
        self.meta: Dict[str, Any] = {}
        self._file = open(path, "w+b")
        self._end = 0
        #: the file offset up to which appended pages have left the buffer
        self._flushed = 0
        self._closed = False
        #: serializes preads, appends and flushes on the shared file handle
        #: (and the extent-table updates next to them) — concurrent reader
        #: sessions issue parallel block reads through one FileDisk, and
        #: compact() swaps the file under it
        self._io_lock = threading.RLock()

    @classmethod
    def open(cls, path: str) -> "FileDisk":
        """Reattach to a page file written (and closed) by a prior process.

        Loads the ``<path>.meta`` sidecar that :meth:`sync` wrote — offset
        table, capacities, allocation cursor and the :attr:`meta`
        dictionary — and reopens the page file in place.  Raises
        :class:`FileNotFoundError` when either file is missing and
        :class:`~repro.io.pagecodec.PageFormatError` when the file was
        written under another page format (see :meth:`read_sidecar`).  A
        :meth:`compact` the previous process was killed in is finished or
        discarded first.
        """
        sidecar = cls._meta_path_for(path)
        pages_copy, sidecar_copy = path + COMPACT_SUFFIX, sidecar + COMPACT_SUFFIX
        if os.path.exists(pages_copy):
            # the swap never began: drop both copies, the sidecar's first, so
            # a kill between the two unlinks still reads as "discard"
            for leftover in (sidecar_copy, pages_copy):
                if os.path.exists(leftover):
                    os.unlink(leftover)
        elif os.path.exists(sidecar_copy):
            # the pages were renamed into place, their sidecar was not: promote
            os.replace(sidecar_copy, sidecar)
        state = cls.read_sidecar(path)
        disk = cls.__new__(cls)
        disk.block_size = state["block_size"]
        disk.stats = IOStats()
        disk.decoded = pagecodec.DecodeTally()
        disk._extents = state["extents"]
        disk._capacities = state["capacities"]
        disk._next_id = state["next_id"]
        disk._owns_file = False
        disk.path = path
        disk.meta = dict(state["meta"])
        disk._file = open(path, "r+b")
        disk._end = disk._flushed = state["end"]
        disk._closed = False
        disk._io_lock = threading.RLock()
        return disk

    @classmethod
    def read_sidecar(cls, path: str) -> Dict[str, Any]:
        """The sidecar of the page file at ``path``, as :meth:`sync` wrote it.

        ``extents`` maps block id to ``(offset, length)`` and ``capacities``
        block id to capacity; ``block_size``, ``next_id``, ``end`` and
        ``meta`` are as stored.  The one sidecar loader: :meth:`open` and the
        read-only ``repro catalog`` both call it.  Raises
        :class:`~repro.io.pagecodec.PageFormatError` for a file written
        under another page format — a sidecar that is not JSON is format 1
        or earlier, one without the field predates format 1.
        """
        with open(cls._meta_path_for(path), "rb") as fh:
            # the sidecar is constant-size control information, exactly like
            # the block headers — not an I/O in the model (see :meth:`sync`)
            # lint: allow(uncounted-io)
            raw = fh.read()
        try:
            state = json.loads(raw)
        except ValueError:
            state = None
        written = state.get("page_format", 0) if isinstance(state, dict) else "1 or earlier"
        if written != PAGE_FORMAT:
            raise PageFormatError(
                f"page file {path!r} was written in page format {written}; this "
                f"build reads and writes page format {PAGE_FORMAT} only — "
                "rebuild the database from its source records"
            )
        blocks = state.pop("blocks")
        state["extents"] = {bid: (offset, length) for bid, offset, length, _ in blocks}
        state["capacities"] = {bid: capacity for bid, _, _, capacity in blocks}
        return state

    @staticmethod
    def _meta_path_for(path: str) -> str:
        return path + ".meta"

    @classmethod
    def exists(cls, path: str) -> bool:
        """Whether ``path`` names a reopenable database (its sidecar exists)."""
        return os.path.exists(cls._meta_path_for(path))

    @property
    def persistent(self) -> bool:
        """Whether this disk outlives the process (named path + sidecar)."""
        return not self._owns_file

    @property
    def closed(self) -> bool:
        return self._closed

    def sync(self) -> None:
        """Persist the offset table and :attr:`meta` to the sidecar file.

        A no-op for anonymous temporary disks (they are scratch space by
        contract).  Sidecar maintenance is not an I/O in the model: it is
        constant-size control information, exactly like the block headers.

        Durability contract: the page file is flushed **and fsynced**
        before the sidecar is written, and the sidecar itself is written
        atomically (temp file + ``os.replace``) and fsynced — a crash
        leaves either the previous consistent (pages, sidecar) pair or the
        new one, never a sidecar describing pages that were lost in a
        buffer.  The two barriers are counted as ``fsyncs`` (not I/Os).
        """
        if self._owns_file or self._closed:
            return
        with self._io_lock:
            payload = self._sidecar(self._extents, self._end)
            self._file.flush()
            self._flushed = self._end
            fileno = self._file.fileno()
        # the fsync runs *outside* _io_lock: the snapshot above is already
        # consistent (flush happened under the lock), and holding the page
        # lock across a platter barrier would stall every concurrent
        # read/write for the fsync's duration — the exact pathology the
        # blocking-under-mutex lint rule exists to catch
        lockdep.notify_blocking("filedisk.sync")
        os.fsync(fileno)
        sidecar = self._meta_path_for(self.path)
        self._write_durable(sidecar + ".tmp", [payload])
        os.replace(sidecar + ".tmp", sidecar)
        self.stats.count(fsyncs=2)

    def _sidecar(self, extents: Dict[BlockId, Tuple[int, int]], end: int) -> bytes:
        """The sidecar's bytes for a page layout (``extents``, ``end``):
        canonical JSON, one ``[id, offset, length, capacity]`` per block."""
        capacities = self._capacities
        state = {
            "page_format": PAGE_FORMAT,
            "block_size": self.block_size,
            "blocks": [
                [bid, offset, length, capacities[bid]]
                for bid, (offset, length) in sorted(extents.items())
            ],
            "next_id": self._next_id,
            "end": end,
            "meta": self.meta,
        }
        # the rest are ints this disk counted; ``meta`` is its callers'
        if not pagecodec.json_exact(self.meta):
            raise DomainError(
                f"the sidecar's meta {self.meta!r} is not JSON that reads back "
                "exactly: None, bool, int, finite float, str, and lists and "
                "str-keyed dicts of these"
            )
        return pagecodec.canonical_json(state).encode("utf-8")

    @staticmethod
    def _write_durable(path: str, chunks: Iterable[bytes]) -> None:
        """Write ``chunks`` to a fresh file at ``path`` and fsync it; the
        caller renames it into place (``os.replace`` is the commit point)."""
        with open(path, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def _append(self, page: Page) -> None:
        """Append a page version through the file's write buffer: reads go
        by ``os.pread`` and never move the file position, so it stays at
        the end, and :meth:`_extent` flushes what a read reaches."""
        raw = pagecodec.pack(page.capacity, page.count, page.header, page.columns)
        with self._io_lock:
            if self._file.tell() != self._end:
                # a handle :meth:`open` or :meth:`compact` just opened starts
                # at 0 (and a killed writer may have left bytes past the end)
                self._file.seek(self._end)
            self._file.write(raw)
            self._extents[page.block_id] = (self._end, len(raw))
            self._capacities[page.block_id] = page.capacity
            self._end += len(raw)

    def _extent(self, block_id: BlockId) -> Tuple[int, int, bytes]:
        """A block's raw page: ``(offset, recorded length, bytes read)`` —
        one ``os.pread``, after a flush only when the page is still in the
        write buffer."""
        with self._io_lock:
            try:
                offset, length = self._extents[block_id]
            except KeyError as exc:
                raise KeyError(f"no such block: {block_id}") from exc
            if offset + length > self._flushed:
                self._file.flush()
                self._flushed = self._end
            return offset, length, os.pread(self._file.fileno(), length, offset)

    # ------------------------------------------------------------------ #
    # StorageBackend surface
    # ------------------------------------------------------------------ #
    def allocate(
        self,
        records: Optional[Sequence[Any]] = None,
        header: Optional[Mapping[str, Any]] = None,
        capacity: Optional[int] = None,
    ) -> Page:
        """Allocate a new block and persist it (one write I/O)."""
        self._check_open()
        with self._io_lock:
            page = Page.of(self._next_id, capacity or self.block_size, records or (), header)
            self._append(page)
            self._next_id += 1
        self.stats.count(allocations=1, writes=1)
        return page

    def free(self, block_id: BlockId) -> None:
        """Release a block.  Freeing is not an I/O; space is reclaimed by compact()."""
        with self._io_lock:
            if block_id not in self._extents:
                return
            del self._extents[block_id]
            del self._capacities[block_id]
        self.stats.count(frees=1)

    def read(self, block_id: BlockId) -> Page:
        """Read, verify and decode a block from the page file (one I/O).

        Raises :class:`~repro.io.pagecodec.PageCorruptError` when the page
        fails its frame or checksum — a damaged page is never data.
        """
        self._check_open()
        page = decode_page(block_id, *self._extent(block_id), self.decoded)
        self.stats.count(reads=1)
        return page

    def read_run(self, block_ids: Sequence[BlockId]) -> List[Page]:
        """:meth:`read` each of ``block_ids`` in order, charged in one count."""
        self._check_open()
        run = [decode_page(bid, *self._extent(bid), self.decoded) for bid in block_ids]
        if run:
            self.stats.count(reads=len(run))
        return run

    def write(self, page: Page) -> None:
        """Persist ``page`` as its block's new version (one I/O, appended)."""
        self._check_open()
        if page.block_id not in self._extents:
            raise KeyError(f"no such block: {page.block_id}")
        self._append(page)
        self.stats.count(writes=1)

    def peek(self, block_id: BlockId) -> Page:
        """Decode a block without counting an I/O (tests/invariants only)."""
        self._check_open()
        return decode_page(block_id, *self._extent(block_id), self.decoded)

    # ------------------------------------------------------------------ #
    # accounting helpers (same surface as SimulatedDisk)
    # ------------------------------------------------------------------ #
    @property
    def blocks_in_use(self) -> int:
        return len(self._extents)

    def block_ids(self) -> List[BlockId]:
        return list(self._extents.keys())

    def measure(self) -> ContextManager[Measurement]:
        return self.stats.measure()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def file_bytes(self) -> int:
        """Current size of the page file, including superseded versions."""
        return self._end

    def compact(self) -> int:
        """Swap in a copy of the page file that keeps only live block versions.

        Returns the number of bytes reclaimed.  Not an I/O in the model (it
        is maintenance, not query/update work).  Pages move as verified
        bytes — each is checksummed before anything is written, so a
        damaged page raises :class:`~repro.io.pagecodec.PageCorruptError`
        with the file untouched — and no record is decoded.

        Nothing is rewritten in place: the live pages go to ``<path>.compact``
        and (on a persistent disk) the sidecar for that layout to
        ``<path>.meta.compact``, both fsynced, and are then renamed over
        ``<path>`` and ``<path>.meta`` in that order.  :meth:`open` discards
        the copies of a process killed before the first rename and promotes
        the sidecar copy of one killed between the two.
        """
        self._check_open()
        pages, sidecar = self.path + COMPACT_SUFFIX, self._meta_path_for(self.path)
        with self._io_lock:
            extents: Dict[BlockId, Tuple[int, int]] = {}
            live, end = [], 0
            for bid in self._extents:
                offset, length, raw = self._extent(bid)
                pagecodec.verify(raw, bid, offset, length)
                extents[bid] = (end, length)
                live.append(raw)
                end += length
            self._write_durable(pages, live)
            if self.persistent:
                self._write_durable(sidecar + COMPACT_SUFFIX, [self._sidecar(extents, end)])
            os.replace(pages, self.path)
            if self.persistent:
                os.replace(sidecar + COMPACT_SUFFIX, sidecar)
            self._file.close()
            self._file = open(self.path, "r+b")
            reclaimed = self._end - end
            self._extents, self._end = extents, end
            self._flushed = end
            return reclaimed

    def close(self) -> None:
        """Sync the sidecar, then close the page file (temporaries are deleted)."""
        if self._closed:
            return
        self.sync()
        self._closed = True
        self._file.close()
        if self._owns_file:
            try:
                os.unlink(self.path)
            except OSError:
                pass

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError(f"FileDisk({self.path!r}) is closed")

    def __enter__(self) -> "FileDisk":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FileDisk(path={self.path!r}, B={self.block_size}, "
            f"blocks={self.blocks_in_use}, {self.stats})"
        )
