"""External dynamic interval management (Proposition 2.2 + Section 3).

Given a collection of intervals on secondary storage, support:

* **stabbing queries** — report every interval containing a query point;
* **interval-intersection queries** — report every interval intersecting a
  query interval;
* **insertions** of new intervals (the paper's structures are semi-dynamic).

Following the proof of Proposition 2.2 (Fig. 3), an intersection query
``[x1, x2]`` splits into

* intervals whose *left endpoint* lies in ``(x1, x2]`` (types 1 and 2) —
  answered by a B+-tree over left endpoints, and
* intervals that contain ``x1`` (types 3 and 4) — a stabbing query, i.e. a
  diagonal corner query at ``(x1, x1)`` over the points ``(low, high)``,
  answered by the metablock tree of Section 3.

Both substructures use ``O(n/B)`` blocks; queries cost
``O(log_B n + t/B)`` I/Os and inserts ``O(log_B n + (log_B n)^2/B)``
amortized I/Os (Theorems 3.2/3.7), so the whole manager inherits those
bounds.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Iterable, Iterator, List

from repro.algebra import Range, Stab
from repro.analysis.complexity import Bound, metablock_query_bound
from repro.btree import BPlusTree
from repro.interval import Interval
from repro.metablock.geometry import PlanarPoint
from repro.metablock.dynamic_tree import AugmentedMetablockTree
from repro.metablock.static_tree import StaticMetablockTree
from repro.rebuilding import RebuildingIndex


def _point(iv: Interval) -> PlanarPoint:
    """Proposition 2.2's reduction: the interval as the planar point (low, high)."""
    return PlanarPoint(iv.low, iv.high, payload=iv)

class ExternalIntervalManager:
    """I/O-efficient interval index (stabbing + intersection + insert).

    Parameters
    ----------
    disk:
        The simulated disk whose ``block_size`` is the page size ``B``.
    intervals:
        Initial intervals, bulk-loaded into the static organisation.
    dynamic:
        When ``True`` (default) the stabbing structure is the augmented
        (semi-dynamic) metablock tree and :meth:`insert` is available; when
        ``False`` the static metablock tree is used and the manager is
        read-only — this is the configuration Theorem 3.2 analyses.
    """

    #: capability flags of the :class:`~repro.engine.protocols.MutableIndex`
    #: tier — the global-rebuilding core writes both structures: deletes
    #: tombstone the stabbing one and reach the left-endpoint B+-tree when
    #: :meth:`purge` retires the version; a bulk load rebuilds both
    supports_deletes = True
    supports_bulk_load = True

    def __init__(self, disk, intervals: Iterable[Interval] = (), dynamic: bool = True) -> None:
        self.disk = disk
        self.dynamic = dynamic
        items = list(intervals)
        tree = AugmentedMetablockTree if dynamic else StaticMetablockTree
        #: the stabbing structure under global rebuilding: it holds the live
        #: records, their versions and the rebuild ``generation``; the tree
        #: inserts natively (Theorem 3.7) and deletes by tombstone
        self._core = RebuildingIndex(
            disk,
            lambda ivs: tree(disk, [_point(iv) for iv in ivs]),
            items,
            insert=lambda stabbing, iv: stabbing.insert(_point(iv)),
        )
        low = BPlusTree.bulk_load(disk, ((iv.low, iv) for iv in items), name="left-endpoints")
        #: Proposition 2.2's left-endpoint tree, rebuilt with the core's structure
        self._endpoints = self._core.beside(low, lambda iv: iv.low)

    @property
    def generation(self) -> int:
        """The core's rebuild counter — the planner's plan-cache key."""
        return self._core.generation

    @property
    def _stabbing(self) -> Any:
        """The current stabbing metablock tree (replaced by every rebuild)."""
        return self._core.inner

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def insert(self, interval: Interval) -> None:
        """Insert a new interval (semi-dynamic; ``dynamic=True`` only)."""
        if not self.dynamic:
            raise NotImplementedError(
                "this manager was built static (Theorem 3.2); build it with "
                "dynamic=True for insertions (Theorem 3.7)"
            )
        self._core.insert(interval)

    def delete(self, interval: Interval) -> bool:
        """Delete one interval (matched by uid); ``True`` when it was present.

        The paper leaves metablock-tree deletions open (Section 5); the
        manager closes the gap with the standard dynamization trick: the
        record is removed from the left-endpoint B+-tree natively
        (``O(log_B n)`` I/Os) and tombstoned out of the stabbing
        structure's answers, which the core globally rebuilds from the live
        records once tombstones reach ``REBUILD_FRACTION`` of the live set —
        all rebuild I/Os are charged to the disk counters, so the amortized
        delete cost stays ``O(log_B n)`` I/Os.  Inside an engine commit
        both wait for :meth:`purge`: a pinned reader still sees the record.
        """
        return self._core.delete(interval)

    def purge(self, safe_epoch: int) -> None:
        self._core.purge(safe_epoch)

    def bulk_load(self, intervals: Iterable[Interval]) -> int:
        """Load a batch of intervals in one global reorganisation.

        Both substructures are rebuilt from the core's stored versions and
        the batch — the metablock tree through its static bulk
        construction, the endpoint B+-tree through a bottom-up packed
        build — costing ``O(((n + m)/B) log_B(n + m))`` I/Os total instead
        of ``O(m (log_B n + (log_B n)^2/B))`` for ``m`` repeated inserts.
        Pending tombstones are swept for free along the way.  Works on
        static managers too: reconstruction, not insertion, is how the
        paper's static structures take batch updates.

        The metablock replacement is built *before* anything old is freed
        or any bookkeeping changes, so a failing batch (e.g. records whose
        endpoints do not compare with the resident ones) raises with the
        manager intact; :attr:`endpoints` stays the same tree object.
        """
        return self._core.bulk_load(intervals)

    def destroy(self) -> None:
        """Free every block of both substructures (``Engine.drop_index``)."""
        self._core.destroy()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def stabbing_query(self, x: Any) -> List[Interval]:
        """All intervals containing ``x`` (``O(log_B n + t/B)`` I/Os)."""
        return list(self.iter_stabbing(x))

    def intersection_query(self, low: Any, high: Any) -> List[Interval]:
        """All intervals intersecting ``[low, high]`` (``O(log_B n + t/B)`` I/Os)."""
        return list(self.iter_intersection(low, high))

    def iter_stabbing(self, x: Any) -> Iterator[Interval]:
        """Stream the intervals containing ``x`` (the blocks, flattened)."""
        return chain.from_iterable(self.iter_stabbing_blocks(x))

    def iter_stabbing_blocks(self, x: Any) -> Iterator[Any]:
        """The intervals containing ``x``, one batch per block read (a list,
        or a :class:`~repro.io.disk.Batch` of a page's rows).

        Lazy like the metablock tree's block stream it wraps.  Each batch
        holds the versions the reader's epoch sees (tombstoned ones, not
        yet swept by a global rebuild, never); the filter is free of I/O,
        and absent while no stored version needs one.
        """
        core = self._core
        return core.live_blocks(core.inner.iter_diagonal_blocks(x, payloads=True))

    def iter_intersection(self, low: Any, high: Any) -> Iterator[Interval]:
        """Stream the intervals intersecting ``[low, high]`` (blocks, flattened)."""
        return chain.from_iterable(self.iter_intersection_blocks(low, high))

    def iter_intersection_blocks(self, low: Any, high: Any) -> Iterator[Any]:
        """The intervals intersecting ``[low, high]``, a batch per block read."""
        if high < low:
            return
        # types 3 and 4: intervals that contain the left end of the query
        yield from self.iter_stabbing_blocks(low)
        # types 1 and 2: intervals whose left endpoint starts strictly inside
        # the query — the open lower bound replaces the old `key > low`
        # post-filter (same block reads; boundary records are now skipped
        # inside the B+-tree scan instead of discarded by the caller)
        yield from self._core.live_blocks(
            self._endpoints.iter_range_blocks(low, high, min_inclusive=False, values=True),
            beside=True,
        )

    # ------------------------------------------------------------------ #
    # uniform Index surface (see repro.engine.protocols.Index)
    # ------------------------------------------------------------------ #
    def stream(self, q: Any) -> Iterator[Interval]:
        """The plain lazy hit iterator for a supported descriptor.

        * :class:`~repro.engine.queries.Stab` -> stabbing query at ``q.x``;
        * :class:`~repro.engine.queries.Range` -> intersection query with
          ``[q.low, q.high]``.
        """
        return chain.from_iterable(self.stream_blocks(q))

    def stream_blocks(self, q: Any) -> Iterator[Any]:
        """:meth:`stream` a batch per block read — what a served read
        carries to its reply unbuilt."""
        if isinstance(q, Stab):
            return self.iter_stabbing_blocks(q.x)
        return self.iter_intersection_blocks(q.low, q.high)

    def query(self, q: Any) -> "Any":
        """Answer an engine query descriptor with a lazy ``QueryResult``
        over :meth:`stream` (``TypeError`` for an unsupported shape)."""
        from repro.engine.result import QueryResult

        return QueryResult.of(self, q)

    def supports(self, q: Any) -> bool:
        """Stabbing (:class:`Stab`) and intersection (:class:`Range`) shapes."""
        return isinstance(q, (Stab, Range))

    def cost(self, q: Any) -> "Any":
        """Theorem 3.2/3.7: ``O(log_B n + t/B)`` I/Os per query."""
        n, b = max(len(self), 2), self.disk.block_size
        return Bound.of("log_B n + t/B", lambda t: metablock_query_bound(n, b, t))

    def io_stats(self):
        """Live I/O counters of the backing store."""
        return self.disk.stats

    # ------------------------------------------------------------------ #
    # accounting / introspection
    # ------------------------------------------------------------------ #
    def block_count(self) -> int:
        """Total blocks used by the substructures (``O(n/B)``)."""
        return self._core.block_count()

    @property
    def endpoints(self) -> BPlusTree:
        """Proposition 2.2's left-endpoint B+-tree, for reading: one object
        for the manager's lifetime, kept current by every write here."""
        return self._endpoints

    def intervals(self) -> List[Interval]:
        return self._core.items()

    @property
    def uids(self) -> Any:
        """The live intervals' identity keys (a view)."""
        return self._core.uids

    @property
    def live_count(self) -> int:
        """Number of live (non-deleted) records — what the cost bounds use."""
        return self._core.live_count

    def __len__(self) -> int:
        return self._core.live_count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "dynamic" if self.dynamic else "static"
        return f"ExternalIntervalManager(n={len(self)}, {mode}, B={self.disk.block_size})"
