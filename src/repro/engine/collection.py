"""Multi-index ``Collection``: several physical structures, one record set.

The paper gives one provably-good structure per query shape; a real
workload composes shapes.  A :class:`Collection` owns *several* physical
indexes over one logical set of records — the canonical interval
collection (:meth:`Collection.for_intervals`) keeps

* an :class:`~repro.core.ExternalIntervalManager` (stabbing /
  intersection, Theorem 3.2/3.7): the metablock tree and, beside it,
  Proposition 2.2's B+-tree over **low** endpoints, which only the manager
  writes and the ``low-endpoints`` accessor reads, and
* a B+-tree over **high** endpoints,

three structures on the same storage backend, kept in sync by one write
fan-out: the manager's global-rebuilding core
(:class:`~repro.rebuilding.RebuildingIndex`) holds the live records and
their versions and writes both endpoint trees beside its metablock tree.
The collection keeps no record of its own; its lifecycle-complete write
path — :meth:`Collection.insert`, :meth:`Collection.delete`,
:meth:`Collection.update`, :meth:`Collection.bulk_load`, and the deferred,
grouped :class:`WriteBatch` (``with coll.batch(): ...``) — goes through
the manager, and a reader pinned at an epoch reads that epoch's versions
through every physical index.  Queries
go through a :class:`~repro.engine.planner.QueryPlanner` that picks the
cheapest physical index per shape: ``Stab``/``Range`` run on the interval
manager, ``EndpointRange`` on the matching endpoint tree, conjunctions
push the cheapest conjunct down and post-filter the rest, disjunctions
union deduplicated subplans, and anything else (e.g. a bare ``Not``)
falls back to a full scan of the low-endpoint tree filtered through the
query's ``matches`` oracle.

A ``Collection`` itself satisfies the
:class:`~repro.engine.protocols.Index` protocol, so it registers in the
:class:`~repro.engine.Engine` namespace like any other index
(``engine.create_collection(...)``) and answers ``engine.query`` /
``engine.explain`` calls.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.complexity import log_b
from repro.engine.planner import Accessor, Plan, QueryPlanner
from repro.engine.protocols import Bound
from repro.engine.queries import EndpointRange, Range, Stab
from repro.engine.result import QueryResult
from repro.errors import DuplicateError
from repro.records import fresh_record_keys, record_key


class WriteBatch:
    """A size-bounded buffer of deferred writes over one :class:`Collection`.

    While a batch is active (``with coll.batch() as b``), ``insert`` /
    ``delete`` / ``update`` calls on the collection enqueue instead of
    touching the physical indexes.  :meth:`flush` — called automatically
    when ``max_size`` operations are buffered and once more on ``with``
    exit — applies the queue *in order*, grouping maximal runs of inserts
    into one ``bulk_load`` per run so every member index takes them in a
    single reorganisation instead of one tree-descent per record.

    Validation happens at enqueue time against the staged state (live uids
    plus the queued operations), so a duplicate insert or an unknown delete
    fails fast, before anything is applied.
    """

    def __init__(self, collection: "Collection", max_size: int = 1024) -> None:
        if max_size < 1:
            raise ValueError(f"batch max_size must be positive, not {max_size}")
        self.collection = collection
        self.max_size = max_size
        self._ops: List[Tuple[str, Any]] = []
        #: uids as they will stand after the queue is applied
        self._staged_uids = set(collection.manager.uids)

    # -- enqueue ---------------------------------------------------------- #
    def insert(self, record: Any) -> None:
        key = record_key(record)
        if key in self._staged_uids:
            raise DuplicateError(
                f"record uid {key!r} is already indexed (or staged); "
                "inserting the same object twice would silently double-index it"
            )
        self._staged_uids.add(key)
        self._ops.append(("insert", record))
        self._maybe_flush()

    def delete(self, record: Any) -> bool:
        key = record_key(record)
        if key not in self._staged_uids:
            return False
        self._staged_uids.discard(key)
        self._ops.append(("delete", record))
        self._maybe_flush()
        return True

    def _maybe_flush(self) -> None:
        if len(self._ops) >= self.max_size:
            self.flush()

    # -- apply ------------------------------------------------------------ #
    def flush(self) -> None:
        """Apply every queued operation in order (inserts grouped per run).

        A single-record insert run falls back to the bulk path when the
        collection only accepts reconstruction (static structures), so
        batched writes behave the same regardless of run length.  If an
        apply fails anyway, the unapplied tail is re-queued rather than
        silently dropped.
        """
        ops, self._ops = self._ops, []
        applied = 0
        try:
            i, n = 0, len(ops)
            while i < n:
                op, record = ops[i]
                if op == "insert":
                    run = [record]
                    while i + len(run) < n and ops[i + len(run)][0] == "insert":
                        run.append(ops[i + len(run)][1])
                    if len(run) == 1:
                        try:
                            self.collection._apply_insert(record)
                        except NotImplementedError:
                            self.collection._apply_bulk(run)
                    else:
                        self.collection._apply_bulk(run)
                    i += len(run)
                else:
                    self.collection._apply_delete(record)
                    i += 1
                applied = i
        except BaseException:
            self._ops = ops[applied:] + self._ops
            raise

    def __len__(self) -> int:
        return len(self._ops)

    def __enter__(self) -> "WriteBatch":
        return self

    def __exit__(self, exc_type: Any, *exc: Any) -> None:
        self.collection._batch = None
        if exc_type is None:
            self.flush()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WriteBatch(pending={len(self._ops)}, max_size={self.max_size})"


class Collection:
    """Several physical indexes over one logical record set.

    Build one with :meth:`for_intervals` (the canonical configuration).
    Every write goes through the record store, the collection's
    :class:`~repro.core.ExternalIntervalManager`: its global-rebuilding
    core holds the live records and their versions, and writes every tree
    kept beside it.  :meth:`attach` adds a read path; the live records are
    the brute-force :meth:`oracle` substrate — the planner's answers are
    always checkable against ``[r for r in records if q.matches(r)]``.
    """

    #: capability flags of the :class:`~repro.engine.protocols.MutableIndex`
    #: tier (the record store does the actual work)
    supports_deletes = True
    supports_bulk_load = True

    def __init__(self, manager: Any, *, name: str = "collection") -> None:
        #: the record store: every write goes through it
        self.manager = manager
        self.disk = manager.disk
        self.name = name
        self._accessors: List[Accessor] = []
        self._planner = QueryPlanner(self._accessors, disk=self.disk)
        self._batch: Optional[WriteBatch] = None

    # ------------------------------------------------------------------ #
    # assembly
    # ------------------------------------------------------------------ #
    def attach(
        self,
        name: str,
        index: Any,
        *,
        translate: Callable[[Any], Optional[Any]],
        run: Callable[[Any], Iterable[Any]],
        scan: Optional[Callable[[], Iterable[Any]]] = None,
        scan_bound: Optional[Callable[[], Bound]] = None,
        blocks: Optional[Callable[[Any], Iterable[Any]]] = None,
    ) -> Any:
        """Attach one read path over a physical index.

        ``translate`` maps a logical query node to this index's query (or
        ``None``); ``run`` streams logical records for a translated query;
        ``scan``/``scan_bound`` advertise the full-scan fallback;
        ``blocks`` streams ``run``'s records a batch per block read.
        Earlier-attached indexes win cost ties (among plans of equal
        generation — the planner's cache keeps a tie resolved until the
        next invalidation).

        Attaching changes the planner's candidate set, so the plan cache
        is invalidated: prepared queries re-plan on their next run.
        """
        self._planner.invalidate()
        self._accessors.append(
            Accessor(
                name=name,
                index=index,
                translate=translate,
                run=run,
                scan=scan,
                scan_bound=scan_bound,
                rewrite=getattr(index, "bind", None),
                blocks=blocks,
            )
        )
        return index

    def detach(self, name: str) -> Any:
        """Detach one physical index by name (the inverse of :meth:`attach`).

        The index leaves the planner's candidate set only: the record
        store keeps writing every structure, so no other read path ever
        answers from a tree nobody updates.  Returns the detached index;
        its blocks are *not* freed.  The plan cache is invalidated, so
        cached strategies referencing it re-plan.
        """
        for i, acc in enumerate(self._accessors):
            if acc.name == name:
                self._planner.invalidate()
                del self._accessors[i]
                return acc.index
        raise KeyError(
            f"no physical index named {name!r}; have {self.physical}"
        )

    @property
    def planner(self) -> QueryPlanner:
        """The collection's (long-lived, plan-caching) query planner."""
        return self._planner

    @classmethod
    def for_intervals(
        cls,
        disk: Any,
        intervals: Iterable[Any] = (),
        *,
        name: str = "intervals",
        dynamic: bool = True,
    ) -> "Collection":
        """The canonical interval collection (manager + endpoint B+-trees):
        the manager's core writes and rebuilds the high-endpoint tree just
        as it does its own left-endpoint tree."""
        from repro.btree import BPlusTree
        from repro.core.interval_manager import ExternalIntervalManager

        items = list(intervals)
        manager = ExternalIntervalManager(disk, items, dynamic=dynamic)
        coll = cls(manager, name=name)
        coll.attach(
            "interval-manager",
            manager,
            translate=lambda q: q if isinstance(q, (Stab, Range)) else None,
            run=manager.stream,
            blocks=manager.stream_blocks,
        )
        # the manager's core keeps both endpoint trees: every read of one
        # sees the reader's versions, as the manager's own reads do
        core = manager._core
        high = BPlusTree.bulk_load(disk, ((iv.high, iv) for iv in items), name="high-endpoints")
        core.beside(high, lambda iv: iv.high)

        def endpoints(side: str, tree: Any, **scan: Any) -> None:
            def translate(q: Any) -> Optional[Any]:
                if isinstance(q, EndpointRange) and q.side == side:
                    return Range(
                        q.low,
                        q.high,
                        min_inclusive=q.min_inclusive,
                        max_inclusive=q.max_inclusive,
                    )
                return None

            def blocks(pq: Any) -> Iterator[Any]:
                return core.live_blocks(tree.stream_blocks(pq, values=True), beside=True)

            coll.attach(
                f"{side}-endpoints",
                tree,
                translate=translate,
                run=lambda pq: chain.from_iterable(blocks(pq)),
                blocks=blocks,
                **scan,
            )

        # Proposition 2.2's own left-endpoint tree: the manager builds it and
        # keeps it current, this accessor only reads it
        low = manager.endpoints
        endpoints(
            "low",
            low,
            # only one scan provider is needed; the low tree volunteers
            scan=lambda: core.live((iv for _, iv in low.iter_pairs()), beside=True),
            # priced arithmetically (leaves are at least half full, so a
            # full scan reads <= 2n/B leaf blocks plus the root path) —
            # walking the tree to count blocks here would itself cost
            # O(n/B) per plan() call
            scan_bound=lambda: Bound.of(
                "log_B n + 2n/B (full scan)",
                lambda t: log_b(max(low.size, 2), low.branching)
                + 2.0 * max(low.size, 1) / low.branching,
            ),
        )
        endpoints("high", high)
        return coll

    # ------------------------------------------------------------------ #
    # the write surface (MutableIndex tier)
    # ------------------------------------------------------------------ #
    def insert(self, record: Any) -> None:
        """Insert one logical record into every physical index.

        Duplicate record uids raise a descriptive :class:`ValueError`
        instead of silently double-indexing.  Inside an active
        :meth:`batch`, the write is deferred to the batch buffer.
        """
        if self._batch is not None:
            self._batch.insert(record)
            return
        self._apply_insert(record)

    def delete(self, record: Any) -> bool:
        """Delete one logical record (matched by uid) from every physical
        index; ``True`` when it was present.  Deferred inside :meth:`batch`."""
        if self._batch is not None:
            return self._batch.delete(record)
        return self._apply_delete(record)

    def update(self, old: Any, new: Any) -> None:
        """Replace ``old`` with ``new`` (a delete + insert, batch-aware).

        Raises :class:`KeyError` when ``old`` is not in the collection (so
        a lost update never turns into a silent insert) and
        :class:`ValueError` — *before* anything is deleted — when ``new``
        would collide with a third record.  If the insert side still fails
        (e.g. a static collection that only accepts bulk reconstruction),
        ``old`` is restored through the bulk path, so a failed update
        never loses the record.
        """
        staged = self._batch._staged_uids if self._batch is not None else self.manager.uids
        old_key, new_key = record_key(old), record_key(new)
        if old_key not in staged:
            raise KeyError(f"cannot update: no record with uid {old_key!r}")
        if new_key != old_key and new_key in staged:
            raise DuplicateError(
                f"cannot update: record uid {new_key!r} is already indexed"
            )
        if self._batch is not None:
            self._batch.delete(old)
            self._batch.insert(new)
            return
        self._apply_delete(old)
        try:
            self._apply_insert(new)
        except BaseException:
            self._apply_bulk([old])
            raise

    def bulk_load(self, records: Iterable[Any]) -> int:
        """Load a batch of records in one reorganisation per member index.

        The stabbing structure and both endpoint trees are rebuilt over
        the stored versions and the batch.  Duplicate uids — within the
        batch or against the live set — raise before any index is touched.
        """
        batch = list(records)
        if not batch:
            return 0
        if self._batch is not None:
            # stay batch-aware: validate the WHOLE batch against the staged
            # state first (so a duplicate raises before anything is queued),
            # then enqueue so flush applies everything in enqueue order
            fresh_record_keys(batch, self._batch._staged_uids)
            for record in batch:
                self._batch.insert(record)
            return len(batch)
        self._apply_bulk(batch)
        return len(batch)

    def batch(self, max_size: int = 1024) -> WriteBatch:
        """Open a :class:`WriteBatch`: ``with coll.batch() as b: ...``.

        Writes issued through the collection while the batch is active are
        buffered (up to ``max_size`` operations, then auto-flushed) and
        applied grouped on exit — runs of inserts become one
        :meth:`bulk_load` across all member indexes.
        """
        if self._batch is not None:
            raise RuntimeError("a WriteBatch is already active on this collection")
        self._batch = WriteBatch(self, max_size=max_size)
        return self._batch

    # -- the unbuffered appliers (WriteBatch.flush calls these) ---------- #
    def _apply_insert(self, record: Any) -> None:
        # a static manager raises before any state changes
        self.manager.insert(record)

    def _apply_delete(self, record: Any) -> bool:
        return self.manager.delete(record)

    def _apply_bulk(self, batch: List[Any]) -> None:
        # one reorganisation per member index changes costs wholesale —
        # drop cached plan strategies so the next query re-costs candidates
        self._planner.invalidate()
        self.manager.bulk_load(batch)

    def purge(self, safe_epoch: int) -> None:
        self.manager.purge(safe_epoch)

    # ------------------------------------------------------------------ #
    # the uniform Index surface
    # ------------------------------------------------------------------ #

    def query(self, q: Any) -> QueryResult:
        """Plan ``q``, execute the cheapest plan, return the lazy result.

        The executed plan rides along as ``result.plan`` and is identical
        to what :meth:`plan` / ``Engine.explain`` report for the same query.
        """
        return self._planner.query(q)

    def stream(self, q: Any) -> Iterator[Any]:
        """The lazy hit iterator of :meth:`query` (a collection's stream is
        its planner's: there is no single structure to dispatch to)."""
        return iter(self.query(q))

    def plan(self, q: Any) -> Plan:
        """The plan :meth:`query` would execute (pure; no I/O)."""
        return self._planner.plan(q)

    explain = plan

    def supports(self, q: Any) -> bool:
        """Whether some plan serves ``q`` (the scan fallback makes this broad)."""
        try:
            self._planner.plan(q)
        except TypeError:
            return False
        return True

    def cost(self, q: Any) -> Bound:
        """The predicted bound of the plan :meth:`query` would choose."""
        return self._planner.plan(q).bound

    def oracle(self, q: Any) -> List[Any]:
        """Brute-force answer over the in-memory records (the test oracle).

        ``Limit`` is honoured as a cap, ``OrderBy`` as a sort, mirroring
        the planner's modifier semantics.
        """
        from repro.engine.queries import Limit, OrderBy

        base, modifiers = QueryPlanner._peel(q)
        out = [r for r in self.manager.intervals() if base.matches(r)]
        for m in modifiers:
            if isinstance(m, OrderBy):
                out.sort(key=m.key_fn(), reverse=m.reverse)
            elif isinstance(m, Limit):
                out = out[: m.n]
        return out

    def block_count(self) -> int:
        """Blocks used by all physical indexes together: the record store's."""
        return int(self.manager.block_count())

    @property
    def live_count(self) -> int:
        """Number of live (non-deleted) records — what the cost bounds use."""
        return int(self.manager.live_count)

    def destroy(self) -> None:
        """Free every block of every physical index (``Engine.drop_index``)."""
        self._planner.invalidate()
        self.manager.destroy()

    def io_stats(self):
        """Live I/O counters of the shared backing store."""
        return self.disk.stats

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def physical(self) -> List[str]:
        """Names of the attached physical indexes, in attachment order."""
        return [acc.name for acc in self._accessors]

    def records(self) -> List[Any]:
        return self.manager.intervals()

    def __len__(self) -> int:
        return self.live_count

    def __iter__(self) -> Iterator[Any]:
        return iter(self.records())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Collection({self.name!r}, n={len(self)}, "
            f"physical={self.physical})"
        )
