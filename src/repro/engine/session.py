"""The concurrency kernel: ``RWLock`` + per-caller ``EngineSession`` handles.

An :class:`~repro.engine.core.Engine` is single-caller by construction —
its indexes mutate shared block structures, planners mutate their plan
caches, and the paper's bounds are stated per operation.  The serving
subsystem multiplexes it with two small pieces:

* :class:`RWLock` — a readers-writer lock with **writer preference**, the
  latch the engine instantiates per index name.  Many readers hold it
  together (queries drain in parallel); the committing writer takes it
  exclusively for the structural change, and a waiting writer blocks
  *new* readers so it cannot starve.

* :class:`EngineSession` — one caller's handle on a shared engine.  Reads
  run as **MVCC snapshot turns**: the session pins the engine's current
  epoch (:meth:`~repro.engine.core.Engine.read_turn`), shares only the
  target index's structural latch — never an engine-wide lock — and drains
  its result, which holds the versions the pinned epoch sees.  A
  writer committing on *another* index therefore never delays the read at
  all, and a writer on the *same* index delays it only for the structural
  change, not for the WAL fsync.  Writes go straight through the engine's
  commit kernel (:meth:`~repro.engine.core.Engine._commit`): logged,
  group-fsynced, published in epoch order.  Per-request I/O is attributed
  through the backend's thread-local sink mechanism
  (:meth:`repro.io.counters.IOStats.attributed`; a read's one sink is its
  result's own counters, a write opens one for the turn) — concurrent sessions on
  one disk each measure exactly their own block accesses, which keeps the
  paper's per-query bounds checkable per request — and folded into the
  session's cumulative :attr:`~EngineSession.stats`.

Consistency model (what the server documents to clients): readers never
observe a half-applied write; a query's answer is the brute-force oracle
of the record set at the pinned epoch — a prefix of the committed write
history (commits publish in order) — for every index kind but ``key``,
whose bare B+-tree is consistent per latch turn only.  A session that
writes sees its own write in every later read (the ack happens after
publication).  There are no multi-request transactions — each request is
one atomic turn.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from functools import partial
from typing import Any, Callable, Iterator, List, Optional

from repro.analysis import lockdep
from repro.engine.result import RecordBatches
from repro.io.counters import IOStats
from repro.obs import tracer as obs_tracer
from repro.obs.slowlog import SLOWLOG

#: process-wide session id source (sessions of all engines share it)
_SESSION_IDS = itertools.count(1)

#: names for anonymous RWLocks (tests construct them bare)
_RWLOCK_IDS = itertools.count(1)


class RWLock:
    """A readers-writer lock with writer preference.

    Any number of readers share the lock while no writer is active *and*
    no writer is waiting — a queued writer blocks new readers, so write
    turns come around even under a heavy read load.

    Non-reentrant by design: a thread holding the write lock must not
    re-acquire either side, and a reader must not call :meth:`read` again.

    When a :mod:`repro.analysis.lockdep` witness is enabled, every grant
    and release is reported under this lock's ``name`` at rank *latch* —
    the engine names its per-index latches ``latch:<index>``
    (``no_block=True``: holding one across a durability barrier is a
    violation).  The disabled path costs one module-global load per
    acquisition.
    """

    def __init__(self, name: Optional[str] = None, *, no_block: bool = False) -> None:
        #: the condition's lock, taken bare on the reader side's fast path
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._readers = 0
        self._writer = False
        self._waiting_writers = 0
        self.name = name if name is not None else f"rwlock-{next(_RWLOCK_IDS)}"
        self.no_block = no_block

    def _witness_acquired(self) -> None:
        witness = lockdep.ACTIVE
        if witness is not None:
            witness.acquired(self.name, lockdep.RANK_LATCH, no_block=self.no_block)

    def _witness_released(self) -> None:
        witness = lockdep.ACTIVE
        if witness is not None:
            witness.released(self.name)

    # -- the reader side ------------------------------------------------- #
    def acquire_read(self) -> None:
        with self._lock:
            while self._writer or self._waiting_writers:
                self._cond.wait()
            self._readers += 1
        if lockdep.ACTIVE is not None:
            self._witness_acquired()

    def release_read(self) -> None:
        with self._lock:
            self._readers -= 1
            # only a writer waits for the readers to drain
            if self._readers <= 0 and self._waiting_writers:
                self._cond.notify_all()
        if lockdep.ACTIVE is not None:
            self._witness_released()

    @contextmanager
    def read(self) -> Iterator[None]:
        """``with lock.read(): ...`` — shared access."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    # -- the writer side ------------------------------------------------- #
    def acquire_write(self) -> None:
        with self._cond:
            self._waiting_writers += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
                self._writer = True
            finally:
                self._waiting_writers -= 1
        self._witness_acquired()

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()
        self._witness_released()

    @contextmanager
    def write(self) -> Iterator[None]:
        """``with lock.write(): ...`` — exclusive access."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RWLock(readers={self._readers}, writer={self._writer}, "
            f"waiting={self._waiting_writers})"
        )


class SessionResult:
    """One request's drained answer plus its private accounting.

    The serving layer drains results inside the lock's critical section
    (laziness ends at the session boundary — a lazy stream held across
    requests would read blocks mid-write-turn), so what crosses the
    boundary is plain data: the answer, the I/Os this request performed
    (attributed per-thread, unpolluted by concurrent sessions), and the
    paper's predicted bound at the observed output size.

    ``records`` is a list of records or a
    :class:`~repro.engine.result.RecordBatches` — a read's answer in the
    batches it was read in, page rows unbuilt — kept as :attr:`hits`;
    :attr:`records` builds the list on first use.
    """

    def __init__(
        self,
        records: Any,
        stats: IOStats,
        bound: Optional[float] = None,
        plan: Optional[Any] = None,
        from_cache: Optional[bool] = None,
    ) -> None:
        self.hits = records if isinstance(records, RecordBatches) else RecordBatches([records])
        self.stats = stats
        self.bound = bound
        self.plan = plan
        self.from_cache = from_cache

    @property
    def records(self) -> List[Any]:
        return self.hits.records()

    @property
    def ios(self) -> int:
        return self.stats.total

    def __iter__(self) -> Iterator[Any]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.hits)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SessionResult({len(self)} records, ios={self.ios}, bound={self.bound})"


class EngineSession:
    """One caller's thread-safe handle on a shared :class:`Engine`.

    Reads (:meth:`query`, :meth:`run`, :meth:`explain`) are snapshot
    turns: pin the current MVCC epoch, share the one index's latch, drain
    the versions the pinned epoch sees.  The write surface (:meth:`insert`,
    :meth:`delete`, :meth:`bulk_load`, :meth:`create`,
    :meth:`drop_index`) delegates to the engine's commit kernel — each
    call is one committed, WAL-durable write turn, acknowledged only after
    its log record is fsynced and its epoch published.
    :meth:`delete_matching` holds the engine's write mutex across the
    victim query and the per-victim commits, so no other writer can run
    between what it read and what it deletes.

    Each request's I/Os land in a fresh sink (returned on the
    :class:`SessionResult` — for a read, the result's own counters) and
    accumulate in :attr:`stats`; the paper's
    bounds therefore stay checkable per request even while other sessions
    drain queries on the same backend.  A session object itself is *not*
    shared between threads — one session per client connection.
    """

    def __init__(self, engine: Any) -> None:
        self.engine = engine
        self.session_id = next(_SESSION_IDS)
        #: cumulative I/O attributed to this session's requests
        self.stats = IOStats()
        #: requests served (reads + writes), for the stats surface
        self.requests = 0

    # ------------------------------------------------------------------ #
    # lock-scoped execution
    # ------------------------------------------------------------------ #
    @contextmanager
    def _attributed(self) -> Iterator[IOStats]:
        sink = IOStats()
        with self.engine.io_stats().attributed(sink):
            yield sink
        self.stats.merge(sink)
        self.requests += 1

    def _write(self, fn: Callable[[], Any], *, op: str = "write") -> SessionResult:
        # no session-side lock: the engine's commit kernel serializes,
        # logs, fsyncs and publishes the turn before returning
        with self._root_span(op=op) as root:
            with self._attributed() as sink:
                out = fn()
        records = out if isinstance(out, list) else ([] if out is None else [out])
        return self._finish_request(root, SessionResult(records, sink))

    def _root_span(self, **attrs: Any) -> Any:
        """The request's root span (a shared no-op while tracing is off)."""
        return obs_tracer.span(
            "session.request", stats=self.engine.disk.stats,
            session=self.session_id, **attrs,
        )

    def _finish_request(self, root: Any, result: SessionResult) -> SessionResult:
        """Annotate a finished request's root span; feed the slow-query log.

        The root's ``residual`` is the paper check in trace form: actual
        attributed I/Os minus the predicted bound (``None`` for writes and
        unbounded plans) — the same quantity the BOUND_SLACK tests gate.
        """
        if isinstance(root, obs_tracer.Span):
            residual = (
                result.stats.total - result.bound
                if result.bound is not None else None
            )
            root.annotate(
                ios=result.stats.total, bound=result.bound, residual=residual
            )
            if SLOWLOG.enabled():
                plan = result.plan
                SLOWLOG.consider(
                    root, plan=None if plan is None else str(plan)
                )
        return result

    # ------------------------------------------------------------------ #
    # the read surface (snapshot turns)
    # ------------------------------------------------------------------ #
    def query(self, name: str, q: Any) -> SessionResult:
        """Answer ``q`` on the named index: one pinned-epoch snapshot turn.

        The lazy result is drained while sharing only this index's latch,
        inside the pin — the answer is the oracle of that epoch's record
        set even while writers commit concurrently on this or any other
        index.
        """
        return self._read("query", name, lambda: self.engine.query(name, q))

    def _read(self, op: str, name: str, issue: Callable[[], Any]) -> SessionResult:
        """Drain ``issue()`` inside a read turn under ``plan.execute``.

        The result's own counters are the request's (no second sink is
        opened — each one is another locked add per page); they are handed
        to the :class:`SessionResult` and folded into :attr:`stats`.
        When tracing is on and the backend decodes pages (``FileDisk``),
        the span also says how many pages this request decoded and how
        many record objects it built from them — the codec's share of the
        request, without a profiler.
        """
        with self._root_span(op=op, index=name) as root:
            with self.engine.read_turn(name):
                result = issue()
                with obs_tracer.span(
                    "plan.execute", stats=self.engine.disk.stats, index=name
                ) as sp:
                    tally = getattr(self.engine.backend, "decoded", None) if obs_tracer.ACTIVE else None
                    if tally is not None:
                        pages, built = tally.pages, tally.records
                    records = result.batches()
                    if tally is not None:
                        sp.annotate(
                            pages_decoded=tally.pages - pages,
                            records_materialised=tally.records - built,
                        )
        self.stats.merge(result.stats)
        self.requests += 1
        return self._finish_request(
            root, SessionResult(records, result.stats, bound=result.bound, plan=result.plan)
        )

    def run(self, prepared: Any, **params: Any) -> SessionResult:
        """Execute a :class:`~repro.engine.prepared.PreparedQuery` handle.

        Handles are leased per session/connection and must not be shared
        across threads (their cached-template bookkeeping is unguarded);
        the planner they delegate to is internally locked, so re-planning
        after an invalidation is safe under the shared latch.
        """
        out = self._read("run", prepared.name, partial(prepared.run, **params))
        out.from_cache = prepared.last_from_cache
        return out

    def prepare(self, name: str, q: Any) -> Any:
        """Plan once under a shared read turn; returns the prepared handle."""
        with self.engine.read_turn(name):
            return self.engine.prepare(name, q)

    def explain(self, name: str, q: Any) -> Any:
        """The plan :meth:`query` would run (pure, but planner-locked)."""
        with self.engine.read_turn(name):
            return self.engine.explain(name, q)

    # ------------------------------------------------------------------ #
    # the write surface (exclusive turns)
    # ------------------------------------------------------------------ #
    def insert(self, name: str, *item: Any) -> SessionResult:
        return self._write(lambda: self.engine.insert(name, *item), op="insert")

    def delete(self, name: str, *item: Any) -> SessionResult:
        return self._write(
            lambda: [bool(self.engine.delete(name, *item))], op="delete"
        )

    def bulk_load(self, name: str, items: List[Any]) -> SessionResult:
        return self._write(
            lambda: [self.engine.bulk_load(name, items)], op="bulk_load"
        )

    def create(self, name: str, kind: str, records: Any = (), **params: Any) -> SessionResult:
        def do() -> None:
            self.engine.create(name, kind, list(records), **params)

        return self._write(do, op="create")

    def create_collection(self, name: str, records: Any = (), **kw: Any) -> SessionResult:
        return self.create(name, "collection", records, **kw)

    def drop_index(self, name: str) -> SessionResult:
        return self._write(lambda: self.engine.drop_index(name), op="drop")

    def delete_matching(self, name: str, q: Any, limit: Optional[int] = None) -> SessionResult:
        """Delete every record matching ``q``: one atomic multi-commit turn.

        Holds the engine's (reentrant) write mutex across the victim query
        and the per-victim delete commits, so no other writer can run
        between what was read and what is deleted — the victims cannot go
        stale.  Concurrent readers keep streaming their pinned snapshots
        throughout; each delete publishes as its own epoch.
        """
        with self._root_span(op="delete_matching", index=name) as root:
            with self._attributed() as sink:
                with self.engine.write_turn():
                    victims = self.engine.query(name, q).all()
                    if limit is not None:
                        victims = victims[:limit]
                    removed = [
                        v for v in victims if self.engine.delete(name, v)
                    ]
        return self._finish_request(root, SessionResult(removed, sink))

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def io_snapshot(self) -> IOStats:
        """This session's cumulative attributed I/O (a consistent copy)."""
        return self.stats.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EngineSession(id={self.session_id}, requests={self.requests}, "
            f"ios={self.stats.total})"
        )
