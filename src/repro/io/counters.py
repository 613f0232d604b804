"""I/O statistics counters.

Every read or write of a disk block is one I/O in the paper's cost model.
:class:`IOStats` keeps the running totals and supports scoped measurement so
a benchmark can ask "how many I/Os did *this* query perform?" without
resetting global state.

Thread safety & attribution
---------------------------
A storage backend is shared by every index of an engine — and, since the
serving subsystem, by every concurrent :class:`~repro.engine.session.
EngineSession` draining queries in parallel.  Two guarantees follow:

* **Totals never lose updates.**  All mutation goes through :meth:`count`
  (or :meth:`merge`/:meth:`reset`), which holds a per-instance lock around
  the read-modify-write.  The bare ``stats.reads += 1`` pattern of the
  single-caller era is gone from the backends.
* **Per-thread attribution.**  :meth:`attributed` opens a scope that
  attributes to a *sink* :class:`IOStats` the I/Os **the current thread
  only** charges on this instance until the ``with`` block exits.  Each
  charge is counted once: besides the totals, :meth:`count` adds it to the
  calling thread's own running tally of this instance, and a scope records
  that tally on entry and adds the difference to its sink on exit — one
  merge per scope exit, however many charges it saw, and no sink is
  touched while a backend charges.  Because tallies are thread-local,
  concurrent requests on one backend each see exactly their own I/Os —
  which is what keeps the paper's per-query bounds checkable per request
  while other sessions hammer the same disk.  :meth:`measure` and every
  :class:`~repro.engine.result.QueryResult` count through it, so a scoped
  measurement and ``result.ios`` are per thread too.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class IOStats:
    """Running I/O counters for a :class:`~repro.io.disk.SimulatedDisk`.

    Attributes
    ----------
    reads:
        Number of block reads served from disk (cache misses included,
        cache hits excluded).
    writes:
        Number of block writes that reached the disk.
    allocations:
        Number of blocks ever allocated.
    frees:
        Number of blocks freed.
    cache_hits:
        Number of reads absorbed by a buffer pool and therefore *not*
        counted as I/Os.
    fsyncs:
        Number of ``fsync`` barriers issued (WAL group commits, sidecar
        checkpoints).  Durability work, not block transfer: excluded from
        :attr:`total` so the paper's I/O bounds are unaffected, but
        counted so group-commit amortization is measurable.
    """

    reads: int = 0
    writes: int = 0
    allocations: int = 0
    frees: int = 0
    cache_hits: int = 0
    fsyncs: int = 0
    #: guards every read-modify-write (``count``/``merge``/``reset``)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )
    #: this instance's per-thread running tallies and open scopes (see
    #: :meth:`attributed`); made by the first scope, so a sink never has one
    _local: Optional[threading.local] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------ #
    # mutation (the only thread-safe write paths)
    # ------------------------------------------------------------------ #
    def count(
        self,
        reads: int = 0,
        writes: int = 0,
        allocations: int = 0,
        frees: int = 0,
        cache_hits: int = 0,
        fsyncs: int = 0,
    ) -> None:
        """Add to the counters under the lock, and to this thread's tally.

        This is what the storage backends call on every block operation.
        A bare ``stats.reads += 1`` is a read-modify-write that loses
        updates under concurrency; ``count`` does not.  It never calls
        into a sink: the scopes open on this thread read the tally.
        """
        with self._lock:
            self.reads += reads
            self.writes += writes
            self.allocations += allocations
            self.frees += frees
            self.cache_hits += cache_hits
            self.fsyncs += fsyncs
        local = self._local
        if local is not None:
            tally = getattr(local, "tally", None)
            if tally is not None:
                tally[0] += reads
                tally[1] += writes
                tally[2] += allocations
                tally[3] += frees
                tally[4] += cache_hits
                tally[5] += fsyncs

    def merge(self, other: "IOStats") -> None:
        """Fold another counter set into this one (thread-safe)."""
        self.count(
            reads=other.reads,
            writes=other.writes,
            allocations=other.allocations,
            frees=other.frees,
            cache_hits=other.cache_hits,
            fsyncs=other.fsyncs,
        )

    def reset(self) -> None:
        """Zero all counters."""
        with self._lock:
            self.reads = 0
            self.writes = 0
            self.allocations = 0
            self.frees = 0
            self.cache_hits = 0
            self.fsyncs = 0

    # ------------------------------------------------------------------ #
    # per-thread attribution
    # ------------------------------------------------------------------ #
    def attributed(self, sink: "IOStats") -> "_Attribution":
        """Attribute this thread's counts to ``sink`` for the scope's duration.

        Attribution is **thread-local**: other threads' I/Os on the same
        backend are never attributed to ``sink``, so concurrent sessions can
        each measure their own requests on one shared disk.  Scopes nest —
        an inner sink and an outer sink both receive the inner scope's
        counts, and scopes may exit in any order.  The returned scope may be
        entered any number of times (a lazy result re-enters its one scope
        around every resumption); each exit adds what its thread charged
        since the matching entry to ``sink``, in one :meth:`count`.
        """
        return _Attribution(self, sink)

    def _thread_local(self) -> threading.local:
        """The per-thread state, made once under the lock."""
        local = self._local
        if local is None:
            with self._lock:
                local = self._local
                if local is None:
                    local = self._local = threading.local()
        return local

    def measure(self) -> "_Attribution":
        """``with stats.measure() as m``: this thread's I/Os inside the scope,
        in a fresh :class:`Measurement` sink (``m.ios``/``m.reads``/``m.writes``)
        — what every backend's ``measure()`` returns."""
        return self.attributed(Measurement())

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    @property
    def total(self) -> int:
        """Total I/Os (reads + writes)."""
        return self.reads + self.writes

    def snapshot(self) -> "IOStats":
        """Return a consistent copy of the current counters."""
        with self._lock:
            return IOStats(
                reads=self.reads,
                writes=self.writes,
                allocations=self.allocations,
                frees=self.frees,
                cache_hits=self.cache_hits,
                fsyncs=self.fsyncs,
            )

    def diff(self, earlier: "IOStats") -> "IOStats":
        """Return the counter increase since ``earlier`` was snapshotted."""
        return IOStats(
            reads=self.reads - earlier.reads,
            writes=self.writes - earlier.writes,
            allocations=self.allocations - earlier.allocations,
            frees=self.frees - earlier.frees,
            cache_hits=self.cache_hits - earlier.cache_hits,
            fsyncs=self.fsyncs - earlier.fsyncs,
        )

    def as_dict(self) -> dict:
        """The counters as plain data (what the wire protocol ships)."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "allocations": self.allocations,
            "frees": self.frees,
            "cache_hits": self.cache_hits,
            "fsyncs": self.fsyncs,
            "total": self.total,
        }

    # locks and thread-local registries are process state, not counter
    # state: copies and serialized states carry the numbers only
    def __getstate__(self) -> dict:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "allocations": self.allocations,
            "frees": self.frees,
            "cache_hits": self.cache_hits,
            "fsyncs": self.fsyncs,
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__dict__.setdefault("fsyncs", 0)  # states from older layouts
        self.__dict__["_lock"] = threading.Lock()
        self.__dict__["_local"] = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IOStats(reads={self.reads}, writes={self.writes}, "
            f"total={self.total}, hits={self.cache_hits}, "
            f"alloc={self.allocations}, free={self.frees})"
        )


class _Attribution:
    """One sink's scope on the entering thread (see ``attributed``).

    Entry appends ``(sink, tally at entry)`` to the thread's open scopes;
    exit removes its entry by identity — ``list.remove`` compares by
    ``==``, and two sinks with equal counter values would unregister the
    wrong one — and adds the tally's growth since entry to the sink.  A
    thread keeps a tally only while it has a scope open, so a charge
    outside every scope adds to the totals alone.
    """

    __slots__ = ("_stats", "_sink")

    def __init__(self, stats: IOStats, sink: IOStats) -> None:
        self._stats = stats
        self._sink = sink

    def __enter__(self) -> IOStats:
        stats = self._stats
        local = stats._local or stats._thread_local()
        tally = getattr(local, "tally", None)
        if tally is None:
            # the thread's first open scope: charges are tallied from now on
            tally = local.tally = [0, 0, 0, 0, 0, 0]
            if getattr(local, "sinks", None) is None:
                local.sinks = []
        local.sinks.append((self._sink, tally[:]))
        return self._sink

    def __exit__(self, *exc: object) -> None:
        local, sink = self._stats._local, self._sink
        sinks = getattr(local, "sinks", ())
        for i in range(len(sinks) - 1, -1, -1):
            if sinks[i][0] is sink:
                start = sinks.pop(i)[1]
                tally = local.tally
                if not sinks:
                    local.tally = None  # no scope left: stop tallying
                if tally != start:
                    sink.count(
                        reads=tally[0] - start[0],
                        writes=tally[1] - start[1],
                        allocations=tally[2] - start[2],
                        frees=tally[3] - start[3],
                        cache_hits=tally[4] - start[4],
                        fsyncs=tally[5] - start[5],
                    )
                return


class Measurement(IOStats):
    """A scoped I/O measurement: the sink :meth:`IOStats.measure` fills."""

    @property
    def ios(self) -> int:
        """I/Os performed inside the measured scope."""
        return self.total
