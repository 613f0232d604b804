"""The :class:`Engine` — one facade over every index and storage backend.

An engine owns a storage backend (any :class:`~repro.io.StorageBackend`:
the in-memory :class:`~repro.io.SimulatedDisk`, the file-backed
:class:`~repro.io.FileDisk`, or either wrapped in a
:class:`~repro.io.BufferManager`) and a namespace of indexes built on it.
An index kind is defined in exactly one place, the :data:`KINDS` table
(``kind -> (build, read)``), and built by :meth:`Engine.create`; the typed
``create_*`` constructors are thin calls to it, and the engine looks an
index (and its one planner) up by name — it never asks what it is.  All
kinds share the uniform :class:`~repro.engine.protocols.Index` surface, so
application code never touches the concrete structures:

>>> from repro import Engine, Interval, Stab
>>> eng = Engine(block_size=16)
>>> _ = eng.create_interval_index("temporal", [Interval(1, 5), Interval(3, 9)])
>>> result = eng.query("temporal", Stab(4))      # lazy: no I/O yet
>>> sorted((iv.low, iv.high) for iv in result)   # streaming starts here
[(1, 5), (3, 9)]
>>> result.ios > 0 and result.bound is not None
True
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from types import MappingProxyType
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sized, Tuple,
)

from repro import interval as _interval
from repro.analysis import lockdep
from repro.btree import BPlusTree
from repro.classes import hierarchy as _hierarchy
from repro.classes.hierarchy import ClassHierarchy, ClassObject
from repro.constraints.index import GeneralizedOneDimensionalIndex
from repro.constraints.relation import GeneralizedRelation
from repro.core.class_indexer import ClassIndexer
from repro.core.interval_manager import ExternalIntervalManager
from repro.durability import EpochManager, WriteAheadLog
from repro.durability.mvcc import Pin
from repro.durability.recovery import replay_wal
from repro.engine.collection import Collection
from repro.engine.planner import Plan, QueryPlanner
from repro.rebuilding import RebuildingIndex
from repro.engine.result import QueryResult
from repro.engine.session import EngineSession, RWLock
from repro.errors import DuplicateError, UnknownIndexError
from repro.interval import Interval
from repro.io import BufferManager, FileDisk, SimulatedDisk
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs_tracer
from repro.metablock import geometry as _geometry
from repro.metablock.geometry import PlanarPoint
from repro.pst import ExternalPST
from repro.values import check_value

DEFAULT_BLOCK_SIZE = 16

#: the write-ahead log lives next to the page file: ``<path>.wal``
WAL_SUFFIX = ".wal"


def _build_constraint(disk: Any, name: str, records: Any, p: Dict[str, Any]) -> Any:
    # create_constraint_index hands over the caller's own relation object;
    # a restore or a WAL replay hands over its tuples
    if not isinstance(records, GeneralizedRelation):
        records = GeneralizedRelation(p["variables"], records, name=p["relation_name"])
    return GeneralizedOneDimensionalIndex(
        disk, records, p["attribute"], dynamic=p["dynamic"]
    )


def _domain_pairs(pairs: Iterable[Any]) -> List[Any]:
    """The ``key`` kind's ``(key, value)`` pairs, each checked into the value
    domain — the one kind whose input is not records that checked
    themselves when they were built."""
    pairs = list(pairs)
    for key, value in pairs:
        check_value(key, "a key", finite=False)
        check_value(value, "a value")
    return pairs


#: The one place an index kind is defined: ``kind -> (build, read)``.
#: ``build(disk, name, records, params)`` constructs the index over its
#: logical records — ``params`` are the constructor's keyword arguments,
#: exactly as the catalog entry records them (JSON values: a class
#: hierarchy is its ordered ``[class, parent]`` pairs); ``read(index)`` hands the
#: records back — what a checkpoint writes and the WAL's ``create`` op
#: logs, so ``build(..., read(index), params)`` restores every kind.
KINDS: Dict[str, Tuple[Callable[..., Any], Callable[[Any], List[Any]]]] = {
    "interval": (
        lambda disk, name, records, p: ExternalIntervalManager(disk, records, **p),
        lambda index: index.intervals(),
    ),
    "collection": (
        lambda disk, name, records, p: Collection.for_intervals(
            disk, records, name=name, **p
        ),
        lambda index: index.records(),
    ),
    "key": (
        lambda disk, name, records, p: BPlusTree.bulk_load(disk, _domain_pairs(records), name=name),
        lambda index: list(index.iter_pairs()),
    ),
    "point": (
        lambda disk, name, records, p: RebuildingIndex(
            disk, lambda items: ExternalPST(disk, items), records
        ),
        lambda index: index.items(),
    ),
    "class": (
        lambda disk, name, records, p: ClassIndexer(
            disk, objects=records, **{**p, "hierarchy": ClassHierarchy.from_edges(p["hierarchy"])}
        ),
        lambda index: index.objects(),
    ),
    "constraint": (_build_constraint, lambda index: list(index.relation.tuples)),
}


def read_catalog(
    read: Callable[[int], Any], meta: Mapping[str, Any]
) -> Iterator[Tuple[Dict[str, Any], Iterator[Any]]]:
    """The catalog :meth:`Engine.checkpoint` wrote, as ``(entry, records)``.

    ``read`` is any block reader — the engine's disk in :meth:`Engine.open`,
    a read-only page reader in ``repro catalog`` — and ``meta`` the backend's
    ``meta`` store.  ``entry`` carries ``name``, ``kind``, ``params``, chain
    ``head`` and record ``count``; ``records`` walks the chain lazily, so a
    listing that never touches it reads the root block only.
    """

    def chain(head: Optional[int]) -> Iterator[Any]:
        while head is not None:
            block = read(head)
            yield from block.records()
            head = block.header["next"]

    root_id = meta.get("catalog_root")
    if root_id is not None:
        for entry in read(root_id).header["entries"]:
            yield entry, chain(entry["head"])


def _record_uid(record: Any) -> Optional[int]:
    """The integer uid a catalog record carries, if any.

    'key'-kind entries restore ``(key, value)`` pairs; the value is the
    uid-bearing record there.
    """
    if isinstance(record, tuple) and len(record) == 2:
        record = record[1]
    uid = getattr(record, "uid", None)
    return uid if isinstance(uid, int) else None


def _highest_uid(records: Iterable[Any]) -> int:
    """The highest uid among ``records`` (``-1`` when none carries one)."""
    highest = -1
    for record in records:
        uid = _record_uid(record)
        if uid is not None and uid > highest:
            highest = uid
    return highest


def advance_uid_floor(horizon: int) -> None:
    """Advance the process-wide uid counters past ``horizon``.

    Catalog restores use this through :func:`_advance_uid_counters`; a
    cluster router uses it directly, seeding its minting counter past the
    highest uid any shard reports (``uid_horizon`` in the server's
    ``stats``), so a restarted router can never re-mint a resident uid.
    """
    if horizon < 0:
        return
    for module, attr in (
        (_interval, "_INTERVAL_UIDS"),
        (_hierarchy, "_OBJECT_UIDS"),
        (_geometry, "_POINT_UIDS"),
    ):
        counter = getattr(module, attr)
        current = next(counter)  # consumes one value; restart above both
        setattr(module, attr, itertools.count(max(current, horizon + 1)))


def _advance_uid_counters(records: Iterable[Any]) -> None:
    """Move the process-wide uid counters past every restored record's uid.

    Record uids are process-unique by construction; after a catalog restore
    the already-assigned uids re-enter this process, so the counters must
    skip past them or a freshly constructed record could collide with a
    restored one (breaking duplicate detection and union deduplication).
    """
    advance_uid_floor(_highest_uid(records))


class ReadTurn:
    """One snapshot read turn (what :meth:`Engine.read_turn` returns).

    A plain context object: entering pins the current epoch, shares the
    index's structural latch (its wait observed in the
    ``engine.read_latch_wait_ms`` histogram) and opens the
    ``engine.read_turn`` span; leaving undoes the three in reverse.
    """

    __slots__ = ("_engine", "_name", "_pin", "_latch", "_span")

    def __init__(self, engine: "Engine", name: str) -> None:
        self._engine = engine
        self._name = name

    def __enter__(self) -> int:
        engine = self._engine
        pin = self._pin = Pin(engine._epochs)
        epoch = pin.__enter__()
        try:
            wait0 = time.perf_counter()
            latch = self._latch = engine._read_latch(self._name)
            try:
                obs_metrics.REGISTRY.histogram("engine.read_latch_wait_ms").observe(
                    (time.perf_counter() - wait0) * 1e3
                )
                span = self._span = obs_tracer.span(
                    "engine.read_turn", stats=engine.disk.stats, index=self._name, epoch=epoch
                )
                span.__enter__()
            except BaseException:
                latch.release_read()
                raise
        except BaseException:
            pin.__exit__(None, None, None)
            raise
        return epoch

    def __exit__(self, *exc: Any) -> None:
        try:
            self._span.__exit__(*exc)
        finally:
            try:
                self._latch.release_read()
            finally:
                self._pin.__exit__(None, None, None)


class Engine:
    """A database engine over the paper's I/O-efficient index structures.

    Parameters
    ----------
    backend:
        Any :class:`~repro.io.StorageBackend`.  Defaults to a fresh
        :class:`~repro.io.SimulatedDisk` of ``block_size`` records per page.
    block_size:
        Page capacity used when constructing the default backend.  Ignored
        when an explicit ``backend`` is supplied.
    buffer_pages:
        When given, wrap the backend in an LRU
        :class:`~repro.io.BufferManager` of that many resident pages
        (the paper's ``O(B^2)`` words of main memory correspond to
        ``buffer_pages=B``).
    """

    def __init__(
        self,
        backend: Any = None,
        *,
        block_size: int = DEFAULT_BLOCK_SIZE,
        buffer_pages: Optional[int] = None,
    ) -> None:
        self.backend = backend if backend is not None else SimulatedDisk(block_size)
        self.disk = (
            BufferManager(self.backend, buffer_pages) if buffer_pages else self.backend
        )
        self._indexes: Dict[str, Any] = {}
        #: the global MVCC epoch clock: committed writes advance it,
        #: reader sessions pin it (see :mod:`repro.durability.mvcc`)
        self._epochs = EpochManager()
        #: serializes committed write turns engine-wide (reentrant: a
        #: write turn may issue nested commits, e.g. delete-by-query)
        self._write_mutex = lockdep.WitnessedMutex("engine.write_mutex")
        #: per-index structural latches: readers share one while draining,
        #: the committing writer takes it exclusively while applying — so a
        #: write to index A never blocks readers of B.  One lives exactly as
        #: long as its index (:meth:`_commit` keeps the two in step)
        self._latches: Dict[str, RWLock] = {}
        #: the attached :class:`~repro.durability.WriteAheadLog`, or
        #: ``None`` (in-memory engines run without one by default)
        self.wal: Optional[WriteAheadLog] = None
        #: per-index catalog entry (``name``, ``kind``, construction
        #: ``params``): what :meth:`create` takes, the WAL's ``create`` op
        #: logs and :meth:`checkpoint` serializes through the backend
        self._catalog: Dict[str, Dict[str, Any]] = {}
        #: the one long-lived (plan-caching) planner of every index, from
        #: :meth:`create` to :meth:`drop_index` — constructing a planner per
        #: query would re-enumerate candidates every call and throw the plan
        #: cache away with it
        self._planners: Dict[str, QueryPlanner] = {}
        #: the highest uid that ever entered an index (:meth:`uid_horizon`)
        self._uid_horizon = -1

    # ------------------------------------------------------------------ #
    # the commit kernel (every mutation is one committed write turn)
    # ------------------------------------------------------------------ #
    def _read_latch(self, name: str) -> RWLock:
        """Share (and return) the latch of index ``name``; an unknown name
        raises, and a latch whose index was dropped while we waited is let go."""
        while True:
            latch = self._latches.get(name)
            if latch is None:
                raise UnknownIndexError(f"no index named {name!r}; have {sorted(self._indexes)}")
            latch.acquire_read()
            if self._latches.get(name) is latch:
                return latch
            latch.release_read()

    def _commit(
        self,
        name: str,
        fn: Callable[[], Any],
        op: Any = None,
        entering: Iterable[Any] = (),
    ) -> Any:
        """One committed write turn: apply → log → fsync → publish → GC.

        Inside the engine-wide write mutex the commit allocates its epoch,
        applies ``fn`` under the target index's exclusive latch (readers of
        *other* indexes are untouched; readers of this one wait only for
        the structural change, never for the fsync), and appends the WAL
        record — so log order equals epoch order.  The durability barrier
        (:meth:`~repro.durability.WriteAheadLog.sync_to`) runs *outside*
        the mutex: concurrent committers overlap here and group-commit one
        fsync.  Publication is ordered; the caller is only answered — the
        write acknowledged — after its epoch is both durable and visible.

        ``op`` is the WAL operation tuple (or a zero-argument callable
        producing it, evaluated after a successful apply; ``None`` skips
        logging).  A failed apply publishes an empty epoch so the epoch
        chain never stalls, and logs nothing.  ``entering`` are the records
        the turn adds to an index; :meth:`uid_horizon` is raised over them.
        """
        lsn = None
        epoch: Optional[int] = None
        highest = _highest_uid(entering)  # O(batch): before the mutex, not under it
        wait0 = time.perf_counter()
        try:
            with self._write_mutex:
                obs_metrics.REGISTRY.histogram("engine.write_mutex_wait_ms").observe(
                    (time.perf_counter() - wait0) * 1e3
                )
                epoch = self._epochs.begin()
                self._uid_horizon = max(self._uid_horizon, highest)
                # no_block: a latch holder must never wait on the platter —
                # that is the commit kernel's core promise, and the lockdep
                # witness enforces it at runtime
                latch = self._latches.get(name) or RWLock(f"latch:{name}", no_block=True)
                latch.acquire_write()
                self._epochs.set_write_epoch(epoch)
                try:
                    with obs_tracer.span(
                        "commit.apply", stats=self.io_stats(), index=name, epoch=epoch
                    ):
                        out = fn()
                finally:
                    self._epochs.clear_write_epoch()
                    # the turn may have created or dropped the index: its
                    # latch comes and goes with it
                    if name in self._indexes:
                        self._latches.setdefault(name, latch)
                    else:
                        self._latches.pop(name, None)
                    latch.release_write()
                if self.wal is not None and op is not None:
                    logged = op() if callable(op) else op
                    if logged is not None:
                        with obs_tracer.span(
                            "wal.append", stats=self.io_stats(), index=name
                        ):
                            lsn = self.wal.append(epoch, logged)
            if lsn is not None:
                with obs_tracer.span("wal.sync", stats=self.io_stats(), lsn=lsn):
                    self.wal.sync_to(lsn)
        finally:
            if epoch is not None:
                with obs_tracer.span("epoch.publish", epoch=epoch):
                    self._epochs.publish(epoch)
        # version GC: physically reclaim versions no pinned reader can
        # see — with no readers pinned this purges the commit's own
        # before returning, so single-caller deletes stay physically
        # immediate
        self._gc_versions(name)
        return out

    def _gc_versions(self, name: str) -> None:
        """Reclaim one index's versions below the GC horizon, under its
        exclusive latch inside the (reentrant) write mutex.  Every kind
        but ``key`` (a bare B+-tree, which keeps no versions) has ``purge``."""
        with self._write_mutex:
            purge = getattr(self._indexes.get(name), "purge", None)
            if purge is not None:
                latch = self._latches[name]
                latch.acquire_write()
                try:
                    purge(self._epochs.safe_epoch())
                finally:
                    latch.release_write()

    def read_turn(self, name: str) -> "ReadTurn":
        """One snapshot read turn: pin the current epoch, share the latch.

        ``with engine.read_turn(name) as epoch`` gives the pinned epoch.
        The caller drains its result inside the scope, and every kind but
        ``key`` (a bare B+-tree, consistent per latch turn only) streams
        the versions that epoch sees — the oracle of the pinned epoch even
        while writers commit concurrently.
        """
        return ReadTurn(self, name)

    @contextmanager
    def write_turn(self) -> Iterator[None]:
        """Hold the engine write mutex across several commits (reentrant).

        What :meth:`~repro.engine.session.EngineSession.delete_matching`
        uses: the victim query and the per-victim deletes run with no
        other writer in between.
        """
        with self._write_mutex:
            yield

    @property
    def epochs(self) -> EpochManager:
        """The engine's MVCC epoch clock."""
        return self._epochs

    # ------------------------------------------------------------------ #
    # index creation
    # ------------------------------------------------------------------ #
    def create(
        self, name: str, kind: str, records: Iterable[Any] = (), **params: Any
    ) -> Any:
        """Build an index of ``kind`` (a key of :data:`KINDS`) under ``name``.

        The one constructor behind every ``create_*`` method, the catalog
        restore of :meth:`open` and the replay of a WAL ``create`` op;
        ``params`` are the kind's construction parameters as the catalog
        entry records them.  A duplicate name is rejected *before* any
        block is allocated.  One committed write turn, whose WAL record
        mirrors the checkpoint format (entry + logical records) — which
        makes WAL-only recovery (a crash before the first checkpoint) work.
        """
        if kind not in KINDS:
            raise ValueError(f"unknown index kind {kind!r}; know {sorted(KINDS)}")
        build, read = KINDS[kind]
        if isinstance(params.get("hierarchy"), ClassHierarchy):
            # the catalog root is a JSON page header: the pairs, in the
            # order that fixes the labels, stand for the hierarchy
            params = {**params, "hierarchy": params["hierarchy"].edges()}
        # the WAL's create op and the catalog root hold them: refuse what the
        # root could not store before either sees it
        check_value(params, "index parameters", finite=False)
        entry = {"name": name, "kind": kind, "params": params}
        if not isinstance(records, Sized):
            # read twice (the build, the uid horizon): drain a one-shot
            # iterable once, before any lock is taken
            records = list(records)

        def do() -> Any:
            if name in self._indexes:
                raise DuplicateError(f"an index named {name!r} already exists")
            index = build(self.disk, name, records, params)
            self._indexes[name] = index
            self._catalog[name] = entry
            # a collection brings its own multi-accessor planner
            self._planners[name] = getattr(index, "planner", None) or QueryPlanner.for_index(
                name, index, disk=self.disk
            )
            return index

        return self._commit(
            name, do, lambda: ("create", entry, read(self._indexes[name])), records
        )

    def create_interval_index(
        self, name: str, intervals: Iterable[Interval] = (), *, dynamic: bool = True
    ) -> ExternalIntervalManager:
        """Stabbing/intersection index (Proposition 2.2 + Section 3)."""
        return self.create(name, "interval", intervals, dynamic=dynamic)

    def create_class_index(
        self,
        name: str,
        hierarchy: ClassHierarchy,
        objects: Iterable[ClassObject] = (),
        *,
        method: str = "simple",
    ) -> ClassIndexer:
        """Full-extent class index (Theorems 2.6 / 4.7 or a baseline)."""
        return self.create(name, "class", objects, method=method, hierarchy=hierarchy)

    def create_constraint_index(
        self,
        name: str,
        relation: GeneralizedRelation,
        attribute: str,
        *,
        dynamic: bool = True,
    ) -> GeneralizedOneDimensionalIndex:
        """Generalized 1-D index over a constraint relation (Section 2.1)."""
        return self.create(
            name, "constraint", relation, attribute=attribute, dynamic=dynamic,
            variables=list(relation.variables), relation_name=relation.name,
        )

    def create_point_index(
        self, name: str, points: Iterable[PlanarPoint] = ()
    ) -> RebuildingIndex:
        """Blocked priority search tree for 3-sided queries (Lemma 4.1).

        The PST itself is static; it is served through the
        :class:`~repro.rebuilding.RebuildingIndex` adapter, which
        adds the full :class:`~repro.engine.protocols.MutableIndex` write
        surface (side-log inserts, tombstone deletes, bulk loads) via
        threshold-triggered global rebuilds — exactly the wholesale
        reconstruction Lemma 4.4 prescribes, with the I/Os charged.
        """
        return self.create(name, "point", points)

    def create_key_index(self, name: str, pairs: Iterable[Tuple[Any, Any]] = ()) -> BPlusTree:
        """Plain external B+-tree over ``(key, value)`` pairs (Section 1.4)."""
        return self.create(name, "key", pairs)

    def create_collection(
        self,
        name: str,
        intervals: Iterable[Interval] = (),
        *,
        dynamic: bool = True,
    ) -> Collection:
        """Multi-index interval :class:`~repro.engine.collection.Collection`.

        Owns an interval manager (its left-endpoint B+-tree serves the low
        side) *plus* a B+-tree over high endpoints, kept in sync by the write
        path (``insert``/``delete``/``update``/``bulk_load``/``batch``); queries go
        through the cost-aware :class:`~repro.engine.planner.QueryPlanner` (see ``explain``).
        """
        return self.create(name, "collection", intervals, dynamic=dynamic)

    def drop_index(self, name: str) -> None:
        """Forget an index and free its blocks (every kind can ``destroy``).

        The name becomes immediately reusable by the ``create_*``
        constructors (and disappears from the persisted catalog at the
        next :meth:`checkpoint`).  Unknown names raise the same
        descriptive :class:`KeyError` as :meth:`index`.
        """

        def do() -> None:
            index = self.index(name)
            del self._indexes[name]
            del self._catalog[name]
            # prepared queries still holding this planner must re-plan
            # (and fail loudly against the destroyed index) rather than
            # serve a cached strategy over freed blocks
            self._planners.pop(name).invalidate()
            index.destroy()

        self._commit(name, do, op=("drop", name))

    # ------------------------------------------------------------------ #
    # namespace
    # ------------------------------------------------------------------ #
    def index(self, name: str) -> Any:
        try:
            return self._indexes[name]
        except KeyError as exc:
            raise UnknownIndexError(
                f"no index named {name!r}; have {sorted(self._indexes)}"
            ) from exc

    def __getitem__(self, name: str) -> Any:
        return self.index(name)

    def __contains__(self, name: str) -> bool:
        return name in self._indexes

    def names(self) -> List[str]:
        return sorted(self._indexes)

    @property
    def indexes(self) -> Mapping[str, Any]:
        """Read-only live view of the index namespace (name -> index)."""
        return MappingProxyType(self._indexes)

    # ------------------------------------------------------------------ #
    # the query/update surface
    # ------------------------------------------------------------------ #
    def insert(self, name: str, *item: Any) -> None:
        """Insert a record into the named index.

        B+-tree indexes take ``engine.insert(name, key, value)``; every
        other index takes the single record object.  Inserting a record
        whose uid the index already holds raises a descriptive
        :class:`ValueError` instead of silently double-indexing it.

        Like every engine mutation, this is one committed write turn:
        applied under the index's latch, WAL-logged and fsynced (when a
        log is attached), and published as one MVCC epoch before the call
        returns — the returning call *is* the acknowledgement.
        """
        def do() -> None:
            index = self.index(name)
            if isinstance(index, BPlusTree):
                _domain_pairs([item])
            index.insert(*item)

        self._commit(name, do, op=("insert", name, item), entering=item[-1:])

    def delete(self, name: str, *item: Any) -> bool:
        """Delete a record from the named index; ``True`` when present.

        B+-tree indexes take ``engine.delete(name, key[, value])``; every
        other index takes the single record object (matched by uid, and a
        constraint tuple, which has none, by value).
        """
        outcome: List[bool] = []

        def do() -> bool:
            removed = bool(self.index(name).delete(*item))
            outcome.append(removed)
            return removed

        # a miss mutates nothing: log (and fsync) only actual removals
        return self._commit(
            name,
            do,
            op=lambda: ("delete", name, item) if outcome[0] else None,
        )

    def update(self, name: str, old: Any, new: Any) -> None:
        """Replace ``old`` with ``new`` in the named index.

        Collections do this natively (batch-aware); for every other index
        it is a delete + insert, raising :class:`KeyError` when ``old``
        is absent so a lost update never turns into a silent insert, and
        restoring ``old`` when the insert side fails.  B+-tree indexes
        take ``(key, value)`` pairs for both arguments, mirroring the
        :meth:`insert`/:meth:`delete` calling convention.
        """

        def do() -> None:
            index = self.index(name)
            native = getattr(index, "update", None)
            if callable(native):
                native(old, new)
                return

            def spread(item: Any) -> Tuple[Any, ...]:
                # B+-trees address records as (key, value); everything else
                # takes the single record object
                if isinstance(index, BPlusTree) and isinstance(item, tuple):
                    return tuple(item)
                return (item,)

            if isinstance(index, BPlusTree):
                _domain_pairs([new])
            if not index.delete(*spread(old)):
                raise KeyError(f"cannot update {name!r}: record not present")
            try:
                index.insert(*spread(new))
            except BaseException:
                # restore through the bulk path: it works even where single
                # inserts are what just failed (static structures)
                restore = getattr(index, "bulk_load", None)
                if callable(restore):
                    restore([old])
                else:
                    index.insert(*spread(old))
                raise

        self._commit(name, do, op=("update", name, old, new), entering=[new])

    def bulk_load(self, name: str, items: Iterable[Any]) -> int:
        """Load a batch into the named index in one reorganisation.

        Routed to the index's native ``bulk_load`` (bottom-up B+-tree
        builds, global rebuilds) — every kind of :data:`KINDS` has one, so
        there is no per-record fallback; returns the number of records
        added.
        """
        batch = list(items)

        def do() -> int:
            index = self.index(name)
            if isinstance(index, BPlusTree):
                _domain_pairs(batch)
            try:
                return int(index.bulk_load(batch))
            finally:
                # a bulk reorganisation changes costs wholesale: cached plan
                # strategies over this index must be re-costed
                self._planners[name].invalidate()

        return self._commit(name, do, op=lambda: ("bulk", name, batch), entering=batch)

    def planner(self, name: str) -> QueryPlanner:
        """The named index's long-lived (plan-caching) query planner.

        Collections answer with their own multi-accessor planner; every
        other index gets the engine-held single-index planner :meth:`query`
        and :meth:`prepare` use.  Raises the usual :class:`KeyError` for
        unknown names.
        """
        self.index(name)  # the descriptive error for an unknown name
        return self._planners[name]

    def query(self, name: str, q: Any) -> QueryResult:
        """Answer one query descriptor lazily (no I/O until iteration).

        Every index and every query shape takes one route, through the
        index's :class:`~repro.engine.planner.QueryPlanner`: a descriptor
        the index supports whole is a pure pushdown streamed straight off
        the structure; composed algebra nodes
        (``And``/``Or``/``Not``/``Limit``/``OrderBy``) are planned —
        :class:`~repro.engine.collection.Collection` indexes across all
        their physical structures, every other index over its single
        accessor (pushdown of the cheapest supported part, residual
        ``matches`` post-filter for the rest); a shape nothing serves
        raises the planner's :class:`TypeError`.  Planners are long-lived,
        so repeated queries of the same shape hit the signature-keyed plan
        cache instead of re-enumerating candidates (see :meth:`prepare`).
        """
        return self.planner(name).query(q)

    def explain(self, name: str, q: Any) -> Plan:
        """The :class:`~repro.engine.planner.Plan` that :meth:`query` would
        execute for ``q`` on the named index — structured, pure, no I/O.

        Executed results carry the identical plan as ``result.plan``.
        """
        return self.planner(name).plan(q)

    def prepare(self, name: str, q: Any) -> "PreparedQuery":
        """Plan ``q`` against the named index once; re-run it cheaply.

        ``q`` may contain :class:`~repro.engine.queries.Param` placeholders
        in scalar operand positions (``Stab(Param("x"))``); the returned
        :class:`~repro.engine.prepared.PreparedQuery` binds them per call:

        >>> stab = engine.prepare("temporal", Stab(Param("x")))   # doctest: +SKIP
        >>> stab.run(x=42.0).all()                                # doctest: +SKIP

        ``run``/``plan`` skip candidate enumeration entirely while the plan
        cache generation holds, and transparently re-plan after any
        invalidating write event (attach/detach, bulk loads, threshold
        rebuilds) — see :mod:`repro.engine.prepared`.
        """
        from repro.engine.prepared import PreparedQuery

        return PreparedQuery(
            name, q, self.planner(name), engine=self, index=self.index(name)
        )

    def session(self) -> EngineSession:
        """A thread-safe :class:`~repro.engine.session.EngineSession` handle.

        Queries drain as pinned-epoch snapshot turns sharing one index
        latch, writes go through the commit kernel, and each request's
        I/O is attributed to the issuing session (see the consistency
        model in :mod:`repro.engine.session`).  Open one
        session per thread or client connection — the session object
        itself is not shared between threads.
        """
        return EngineSession(self)

    def query_many(self, queries: Iterable[Tuple[str, Any]]) -> List[QueryResult]:
        """Batch API: build one lazy result per ``(index_name, descriptor)``.

        Results are independent streams over the shared backend; each
        carries its own per-query I/O count, so a throughput workload can
        drain them in any order (or partially) and still report faithful
        per-query costs.
        """
        return [self.query(name, q) for name, q in queries]

    # ------------------------------------------------------------------ #
    # accounting / lifecycle
    # ------------------------------------------------------------------ #
    @property
    def block_size(self) -> int:
        return self.disk.block_size

    def io_stats(self):
        """Live I/O counters of the backend."""
        return self.disk.stats

    def plan_cache_info(self) -> Dict[str, Any]:
        """Aggregated plan-cache counters across every live planner.

        Collections answer with their own planner's cache, plain indexes
        with the engine-held one; ``per_index`` lists every index from its
        creation on, queried or not.  ``hit_ratio`` is ``None`` until the
        first plan lookup, so exporters can tell "no traffic" from "0% hits".
        """
        per_index = {n: p.cache_info() for n, p in sorted(self._planners.items())}
        entries, hits, misses = (
            sum(info[key] for info in per_index.values())
            for key in ("entries", "hits", "misses")
        )
        lookups = hits + misses
        return {
            "entries": entries,
            "hits": hits,
            "misses": misses,
            "hit_ratio": round(hits / lookups, 6) if lookups else None,
            "per_index": per_index,
        }

    def measure(self):
        """Scoped I/O measurement over the whole engine (see ``SimulatedDisk.measure``)."""
        return self.disk.measure()

    def block_count(self) -> int:
        """Blocks used by all indexes together (the space bound)."""
        return sum(ix.block_count() for ix in self._indexes.values())

    def flush(self) -> None:
        """Write back any buffered dirty pages."""
        flush = getattr(self.disk, "flush", None)
        if callable(flush):
            flush()

    # ------------------------------------------------------------------ #
    # the persistent catalog
    # ------------------------------------------------------------------ #
    def catalog(self) -> List[Dict[str, Any]]:
        """The catalog as structured data (what :meth:`checkpoint` persists).

        One entry per index: name, kind, construction parameters, and the
        current live record count.
        """
        out = []
        for name, entry in sorted(self._catalog.items()):
            index = self._indexes[name]
            count = getattr(index, "live_count", None)
            if count is None:
                count = len(index) if hasattr(index, "__len__") else None
            params = {k: v for k, v in entry["params"].items() if k != "hierarchy"}
            out.append({**entry, "params": params, "records": count})
        return out

    def uid_horizon(self) -> int:
        """A floor at or above every resident record uid (``-1`` when none).

        Served to clients through the ``stats`` command so a cluster
        router can seed its uid-minting counter past every shard's
        resident records on open (see :func:`advance_uid_floor`).  It is a
        running maximum raised where records enter (the write turns of
        :meth:`create`, :meth:`insert`, :meth:`update`, :meth:`bulk_load`):
        no per-record work here, and it may stay high after deletes — its
        one consumer needs a floor above every resident uid, not the maximum.
        """
        return self._uid_horizon

    def checkpoint(self) -> int:
        """Serialize the catalog through the storage backend; returns the root id.

        For every index the live logical records are written to a chain of
        data blocks (``O(n/B)`` writes) and an entry — name, kind,
        construction parameters, chain head — is recorded in a root
        catalog block whose id goes into the backend's ``meta`` store.
        :meth:`open` reverses the process.  Superseded catalog blocks from
        a previous checkpoint are freed first, so repeated checkpoints do
        not leak space.

        With a WAL attached the checkpoint is also the log's horizon: the
        commit stream is quiesced, the catalog is stamped with the
        ``durable_epoch`` it covers and made durable (the backend's
        ``sync`` fsyncs pages and sidecar), and only *then* is the log
        truncated — a crash anywhere in between replays a tail the
        ``durable_epoch`` filter recognises as already applied.
        """
        meta = getattr(self.backend, "meta", None)
        if meta is None:
            raise TypeError(
                f"backend {type(self.backend).__name__} has no meta store; "
                "cannot persist a catalog"
            )
        with self._write_mutex:
            # wait for in-flight commits to publish: the checkpoint must
            # cover a prefix of the epoch order, not race its tail
            self._epochs.quiesce()
            for name in sorted(self._indexes):
                self._gc_versions(name)
            for bid in meta.get("catalog_blocks", ()):
                self.disk.free(bid)
            blocks: List[int] = []
            entries: List[Dict[str, Any]] = []
            B = self.block_size
            for name, entry in sorted(self._catalog.items()):
                read = KINDS[entry["kind"]][1]
                records = read(self._indexes[name])
                head = None
                for start in reversed(range(0, len(records), B)):
                    chunk = records[start : start + B]
                    block = self.disk.allocate(
                        records=chunk, header={"next": head}
                    )
                    head = block.block_id
                    blocks.append(block.block_id)
                entries.append({**entry, "head": head, "count": len(records)})
            root = self.disk.allocate(
                records=[], header={"entries": entries, "format": 1}
            )
            blocks.append(root.block_id)
            meta["catalog_root"] = root.block_id
            meta["catalog_blocks"] = blocks
            meta["durable_epoch"] = self._epochs.current
            self.flush()
            sync = getattr(self.backend, "sync", None)
            if callable(sync):
                # the checkpoint is the one place a durability barrier runs
                # under the write mutex: commits are quiesced, every latch
                # was released above, and the truncate that follows *must*
                # happen-after this sync — the barrier belongs inside
                # lint: allow(blocking-under-mutex)
                sync()
            if self.wal is not None:
                self.wal.truncate()
        return root.block_id

    @classmethod
    def open(
        cls,
        path: str,
        *,
        buffer_pages: Optional[int] = None,
        wal: bool = True,
    ) -> "Engine":
        """Reopen an engine from a page file written by a prior process.

        Reads the catalog chain back (``O(n/B)`` I/Os) and restores every
        index through its bulk constructor — a global rebuild, *not* a
        replay of per-record inserts — so queries answer with the same
        results and within the same I/O bounds as the original engine.
        The dead blocks of the previous incarnation are freed, the restored
        state is checkpointed, and only then is the page file compacted
        (keeping the space bound at ``O(n/B)``) — the process can be killed
        at any point of a restart and the next ``open`` still finds a
        (pages, sidecar) pair that agree.

        With ``wal=True`` (the default) recovery then replays the
        write-ahead log at ``path + ".wal"``: every commit acknowledged
        after the restored checkpoint — including after a crash that never
        reached :meth:`close` — is re-applied, the log is re-attached for
        the new incarnation's writes, and a fresh checkpoint truncates it.
        ``wal=False`` opts out (checkpoint-only durability, the pre-WAL
        behaviour).
        """
        backend = FileDisk.open(path)
        engine = cls(backend, buffer_pages=buffer_pages)
        durable_epoch = int(backend.meta.get("durable_epoch", 0))
        # with a catalog to restore, everything that predates the restore —
        # the consumed catalog chain and the previous incarnation's
        # structure blocks — is dead afterwards
        stale = backend.block_ids() if "catalog_root" in backend.meta else []
        for entry, chain in read_catalog(engine.disk.read, backend.meta):
            records = list(chain)
            _advance_uid_counters(records)
            engine.create(entry["name"], entry["kind"], records, **entry["params"])
        # the restore itself ran commits and advanced the clock; realign to
        # the epoch the checkpoint covers so WAL-tail filtering is exact
        engine._epochs.advance_to(durable_epoch)
        replayed = 0
        if wal:
            replayed = engine.attach_wal(
                path + WAL_SUFFIX, durable_epoch=durable_epoch, checkpoint=False,
            )
        if not stale and replayed == 0:
            # nothing restored, nothing replayed: keep the fast no-op open
            return engine
        if stale:
            for bid in stale:
                engine.disk.free(bid)
            backend.meta.pop("catalog_root", None)
            backend.meta["catalog_blocks"] = []
        # checkpoint first: a process that exits between here and close()
        # must find a sidecar + catalog that describe the new incarnation.
        # Until that sidecar is replaced the old one still names only pages
        # this open never overwrote (the file is append-only); compaction
        # afterwards is pure space reclaim
        engine.checkpoint()
        if stale:
            backend.compact()
        return engine

    @classmethod
    def open_or_create(
        cls,
        path: str,
        *,
        block_size: int = 16,
        buffer_pages: Optional[int] = None,
        wal: bool = True,
    ) -> "Engine":
        """:meth:`open` the database at ``path``, or start a fresh one there.

        A fresh database gets its write-ahead log from the first commit on
        (unless ``wal=False``), so even a crash before the first explicit
        checkpoint loses nothing; ``block_size`` only applies to a fresh
        page file — a reopened one keeps the ``B`` it was written with.
        """
        if FileDisk.exists(path):
            return cls.open(path, buffer_pages=buffer_pages, wal=wal)
        engine = cls(FileDisk(path, block_size=block_size), buffer_pages=buffer_pages)
        if wal:
            engine.attach_wal()
        return engine

    def attach_wal(
        self,
        path: Optional[str] = None,
        *,
        checkpoint: bool = True,
        fsync: bool = True,
        durable_epoch: Optional[int] = None,
    ) -> int:
        """Open (or create) a write-ahead log and attach it to this engine.

        From the attach onwards every committed mutation appends a
        checksummed record and is acknowledged only after the record is
        fsync-durable (see :meth:`_commit`).  If the log already holds a
        tail — the engine's last incarnation crashed — the tail past
        ``durable_epoch`` (defaulting to the current epoch) is always
        re-applied *before* attaching.  On a persistent backend
        ``checkpoint=True`` then writes a checkpoint and truncates the log
        — both to fold in any replayed state and to establish the log's
        baseline (sidecar + ``durable_epoch``) for a fresh database, so a
        crash at *any* later point finds a reopenable checkpoint to replay
        against.  Returns the number of replayed records.
        """
        if self.wal is not None:
            raise RuntimeError("engine already has a WAL attached")
        if path is None:
            file_path = getattr(self.backend, "path", None)
            if file_path is None:
                raise TypeError(
                    "backend has no path; pass an explicit WAL path"
                )
            path = str(file_path) + WAL_SUFFIX
        wal = WriteAheadLog(path, stats=self.io_stats(), fsync=fsync)
        try:
            baseline = self._epochs.current if durable_epoch is None else durable_epoch
            replayed = replay_wal(self, wal, baseline)
        except Exception:
            wal.close()
            raise
        self.wal = wal
        if checkpoint and getattr(self.backend, "persistent", False):
            self.checkpoint()
        return replayed

    def close(self) -> None:
        """Checkpoint persistent backends, flush buffers and close them.

        On a named :class:`~repro.io.FileDisk`, the catalog is serialized
        first — even when empty, so a dropped index stays dropped instead
        of being resurrected by a stale catalog root — and ``Engine.open``
        in a later process restores exactly the surviving indexes;
        in-memory and temporary backends skip the checkpoint.
        ``with Engine(...) as engine: ...`` calls this automatically.
        """
        # a second close() must stay a no-op, not checkpoint a closed disk
        if getattr(self.backend, "closed", False):
            return
        if getattr(self.backend, "persistent", False):
            self.checkpoint()
        self.flush()
        close = getattr(self.backend, "close", None)
        if callable(close):
            close()
        if self.wal is not None:
            self.wal.close()
            self.wal = None

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = type(self.backend).__name__
        return (
            f"Engine(backend={kind}, B={self.block_size}, "
            f"indexes={self.names()})"
        )
