"""The write-ahead log: durable commit records with group commit.

Layout
------
The log is a flat file of self-delimiting records::

    [4-byte little-endian payload length][4-byte CRC32][pickled payload]

where the payload is the pair ``(epoch, op)`` — the commit's global epoch
(see :class:`~repro.durability.mvcc.EpochManager`) and the logical
operation tuple the :class:`~repro.engine.Engine` replays on recovery
(``("insert", name, args)``, ``("bulk", name, records)``, ``("create",
entry, records)``, ...).  Records are framed *and* checksummed, so a torn
tail — the expected artifact of crashing mid-append — is detected, not
misparsed: iteration stops at the first record whose header is short or
whose checksum fails, and :meth:`WriteAheadLog.__init__` truncates the
file back to the last intact record before appending anything new.

Commit protocol (what the engine does)
--------------------------------------
1. :meth:`append` the commit's record — buffered, cheap, returns the byte
   offset the log must be durable *up to* for this commit.
2. :meth:`sync_to` that offset — the durability barrier.  This is where
   **group commit** happens: one ``fsync`` covers every record appended
   before it, so when N threads commit concurrently, the first one into
   the sync lock pays the barrier and the rest find their offset already
   durable and return without syncing.  The amortization is observable:
   ``fsyncs`` (counted into the shared :class:`~repro.io.counters.IOStats`)
   stays below ``commits`` under concurrency.

An acknowledged commit is therefore exactly one whose record survived an
``fsync``; everything after the last barrier is legitimately lost on a
crash, everything before it must replay.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import time
import zlib
from typing import TYPE_CHECKING, Any, Dict, Iterator, NamedTuple, Optional, Tuple

from repro.analysis import lockdep
from repro.obs import metrics as obs_metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.io.counters import IOStats

#: record framing: payload length + CRC32 of the payload
_HEADER = struct.Struct("<II")
#: refuse absurd lengths when scanning (a torn header can decode to anything)
_MAX_PAYLOAD = 1 << 30


class WalRecord(NamedTuple):
    """One decoded log record (what :meth:`WriteAheadLog.records` yields)."""

    lsn: int            #: ordinal position in the log (0-based)
    epoch: int          #: commit epoch the operation belongs to
    op: Tuple[Any, ...]  #: the logical operation tuple
    offset: int         #: byte offset of the record header in the file
    length: int         #: total framed length (header + payload)


def _scan(raw: bytes) -> Iterator[Tuple[int, int, bytes]]:
    """Yield ``(offset, framed_length, payload)`` for every intact record.

    Stops silently at the first torn or corrupt record — that is the valid
    prefix of the log, by the crash contract.
    """
    pos, end = 0, len(raw)
    while pos + _HEADER.size <= end:
        length, crc = _HEADER.unpack_from(raw, pos)
        if length > _MAX_PAYLOAD or pos + _HEADER.size + length > end:
            return
        payload = raw[pos + _HEADER.size : pos + _HEADER.size + length]
        if zlib.crc32(payload) != crc:
            return
        yield pos, _HEADER.size + length, payload
        pos += _HEADER.size + length


def read_log(path: str) -> Iterator[WalRecord]:
    """Decode a log file read-only (``repro wal inspect``).

    Unlike constructing a :class:`WriteAheadLog`, this never truncates a
    torn tail — it just stops there — so inspection is safe on the live
    log of a running server and on a crashed process's evidence.
    """
    with open(path, "rb") as fh:
        # read-only inspection of evidence, not a modeled block I/O (no
        # engine owns this handle's counters)
        # lint: allow(uncounted-io)
        raw = fh.read()
    for lsn, (offset, length, payload) in enumerate(_scan(raw)):
        epoch, op = pickle.loads(payload)
        yield WalRecord(lsn, epoch, op, offset, length)


class WriteAheadLog:
    """An append-only, checksummed redo log with group-commit fsync.

    Parameters
    ----------
    path:
        Log file location; created when missing.  When the file already
        holds records (a crashed process's tail), they stay readable via
        :meth:`records` and any torn suffix is truncated away on open.
    stats:
        An :class:`~repro.io.counters.IOStats` to count ``fsyncs`` into —
        pass the storage backend's counters so durability barriers show up
        next to the block I/Os in ``stats`` responses and bench reports.
    fsync:
        ``False`` disables the physical barrier (the commit protocol and
        counters behave identically) — for tests and in-memory engines
        where the log is about replay, not the platter.
    """

    def __init__(
        self,
        path: str,
        *,
        stats: Optional["IOStats"] = None,
        fsync: bool = True,
    ) -> None:
        self.path = path
        self.stats = stats
        self._fsync_enabled = fsync
        #: serializes appends (record order == commit order)
        self._lock = threading.Lock()
        #: serializes the durability barrier (group commit happens here)
        self._sync_lock = threading.Lock()
        self._file = open(path, "a+b")
        # the open-time recovery scan reads the log once; like the catalog
        # sidecar it is control information, outside the I/O model
        self._file.seek(0)  # lint: allow(uncounted-io)
        raw = self._file.read()  # lint: allow(uncounted-io)
        valid = 0
        records = 0
        for offset, length, _ in _scan(raw):
            valid = offset + length
            records += 1
        if valid < len(raw):
            # torn tail from a crash mid-append: cut back to the last
            # intact record so new appends extend a clean prefix
            self._file.truncate(valid)  # lint: allow(uncounted-io)
        self._appended = valid      # bytes of intact records in the file
        self._synced = valid        # bytes known durable (file was at rest)
        self._records = records
        #: cumulative counters (survive truncate(): they describe the
        #: process, not the file)
        self.commits = 0            # records appended by this process
        self.syncs = 0              # sync barriers issued (fsync if enabled)
        self.group_absorbed = 0     # commits that rode another's barrier

    # ------------------------------------------------------------------ #
    # the commit path
    # ------------------------------------------------------------------ #
    def append(self, epoch: int, op: Tuple[Any, ...]) -> int:
        """Buffer one commit record; returns the offset :meth:`sync_to` needs.

        Callers append under their own commit ordering (the engine's write
        mutex), so record order in the file equals epoch order.
        """
        payload = pickle.dumps((epoch, op), protocol=pickle.HIGHEST_PROTOCOL)
        header = _HEADER.pack(len(payload), zlib.crc32(payload))
        with self._lock:
            # buffered byte appends: the WAL charges durability *barriers*
            # (``fsyncs`` in sync_to), never buffered writes — the model
            # counts block I/Os and platter round-trips, not library calls
            self._file.write(header)  # lint: allow(uncounted-io)
            self._file.write(payload)  # lint: allow(uncounted-io)
            self._appended += len(header) + len(payload)
            self._records += 1
            self.commits += 1
            return self._appended

    def sync_to(self, offset: int) -> bool:
        """Make the log durable up to ``offset``; returns ``True`` on a
        physical barrier, ``False`` when another commit's barrier already
        covered this offset (the group-commit fast path)."""
        wait0 = time.perf_counter()
        if self._synced >= offset:
            with self._lock:
                self.group_absorbed += 1
            return False
        with self._sync_lock:
            obs_metrics.REGISTRY.histogram("wal.sync_wait_ms").observe(
                (time.perf_counter() - wait0) * 1e3
            )
            if self._synced >= offset:
                with self._lock:
                    self.group_absorbed += 1
                return False
            with self._lock:
                target = self._appended
                self._file.flush()
            if self._fsync_enabled:
                # the durability barrier runs under _sync_lock alone — a
                # declared barrier lock; holding any latch here would stall
                # readers on the platter, which the witness treats as fatal
                lockdep.notify_blocking("wal.sync_to")
                os.fsync(self._file.fileno())
                if self.stats is not None:
                    self.stats.count(fsyncs=1)
            self._synced = target
            self.syncs += 1
            return True

    def truncate(self) -> None:
        """Drop every record: the checkpoint made them redundant.

        Called *after* the catalog checkpoint is durable — a crash between
        the checkpoint and this truncate replays a tail of operations the
        checkpoint already contains, which the ``durable_epoch`` filter in
        :func:`~repro.durability.recovery.replay_wal` skips.
        """
        with self._sync_lock, self._lock:
            self._file.truncate(0)
            self._file.flush()
            if self._fsync_enabled:
                # a quiesced-checkpoint barrier: the engine holds the write
                # mutex, so no append can race this fsync-under-_lock
                # lint: allow(blocking-under-mutex)
                os.fsync(self._file.fileno())
                if self.stats is not None:
                    self.stats.count(fsyncs=1)
            self._appended = 0
            self._synced = 0
            self._records = 0
            self.syncs += 1

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def records(self) -> Iterator[WalRecord]:
        """Decode every intact record, in append order.

        Reads through a private handle over a flushed view of the file, so
        inspection works while the log is live.
        """
        with self._lock:
            self._file.flush()
        with open(self.path, "rb") as fh:
            # live-log inspection through a private handle; same contract
            # as :func:`read_log` — not a modeled block I/O
            # lint: allow(uncounted-io)
            raw = fh.read()
        for lsn, (offset, length, payload) in enumerate(_scan(raw)):
            epoch, op = pickle.loads(payload)
            yield WalRecord(lsn, epoch, op, offset, length)

    # ------------------------------------------------------------------ #
    # introspection / lifecycle
    # ------------------------------------------------------------------ #
    @property
    def size_bytes(self) -> int:
        """Bytes of intact records currently in the file."""
        return self._appended

    @property
    def record_count(self) -> int:
        """Records currently in the file (reset by :meth:`truncate`)."""
        return self._records

    @property
    def synced_bytes(self) -> int:
        return self._synced

    @property
    def group_absorbed_ratio(self) -> Optional[float]:
        """Fraction of commits that rode another commit's barrier.

        ``None`` until the first commit — exporters can tell "no write
        traffic yet" apart from "no absorption happening".
        """
        if not self.commits:
            return None
        return round(self.group_absorbed / self.commits, 6)

    def as_dict(self) -> Dict[str, object]:
        """Log state as plain data (the server's ``stats`` response)."""
        return {
            "path": self.path,
            "size_bytes": self.size_bytes,
            "records": self.record_count,
            "commits": self.commits,
            "syncs": self.syncs,
            "group_absorbed": self.group_absorbed,
            "group_absorbed_ratio": self.group_absorbed_ratio,
        }

    def close(self) -> None:
        if not self._file.closed:
            with self._sync_lock, self._lock:
                self._file.flush()
                self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WriteAheadLog({self.path!r}, records={self.record_count}, "
            f"commits={self.commits}, syncs={self.syncs})"
        )
