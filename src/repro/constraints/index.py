"""The generalized one-dimensional index of Section 2.1.

For convex CQLs, every generalized tuple projects on the indexed attribute
as one interval — its *generalized key*.  The index stores those keys in an
:class:`~repro.core.ExternalIntervalManager` and answers one-dimensional
range searches over the generalized database:

* ``range_query(a1, a2)`` returns a generalized relation representing all
  database points whose attribute lies in ``[a1, a2]``; it is computed by
  conjoining the constraint ``a1 <= x <= a2`` to exactly those tuples whose
  generalized key intersects ``[a1, a2]`` (instead of to every tuple, which
  is the trivial-but-inefficient solution the paper dismisses);
* ``insert`` / tuples are added by computing their projection and inserting
  one interval (Proposition 2.2 reduces the rest to the metablock tree).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List

from repro.analysis.complexity import metablock_query_bound
from repro.constraints.relation import GeneralizedRelation
from repro.constraints.terms import Constraint, GeneralizedTuple, Variable
from repro.core.interval_manager import ExternalIntervalManager
from repro.interval import Interval


class GeneralizedOneDimensionalIndex:
    """Index a generalized relation on one of its variables."""

    #: capability flags of the :class:`~repro.engine.protocols.MutableIndex`
    #: tier — both delegate to the interval manager's native machinery
    supports_deletes = True
    supports_bulk_load = True

    def __init__(
        self,
        disk,
        relation: GeneralizedRelation,
        attribute: str,
        dynamic: bool = True,
    ) -> None:
        if attribute not in relation.variables:
            raise ValueError(f"attribute {attribute!r} is not in the relation schema")
        self.disk = disk
        self.attribute = attribute
        self.relation = relation
        intervals = [self._generalized_key(gt) for gt in relation.tuples]
        #: generalized key per indexed tuple (tuples carry no uid of their
        #: own, so identity keys the mapping; the relation holds the tuples
        #: alive for exactly as long as they are indexed)
        self._keys: Dict[int, Interval] = {
            id(gt): iv for gt, iv in zip(relation.tuples, intervals)
        }
        self.manager = ExternalIntervalManager(disk, intervals, dynamic=dynamic)

    @property
    def generation(self) -> int:
        """The inner manager's rebuild counter, surfaced for the planner's
        plan-cache key: threshold rebuilds must invalidate cached plans
        over this index, not just over the manager directly."""
        return self.manager.generation

    # ------------------------------------------------------------------ #
    # keys
    # ------------------------------------------------------------------ #
    def _generalized_key(self, gt: GeneralizedTuple) -> Interval:
        low, high = gt.projection(self.attribute)
        return Interval(low, high, payload=gt)

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def insert(self, gt: GeneralizedTuple) -> None:
        """Add a generalized tuple to the relation and the index."""
        if id(gt) in self._keys:
            raise ValueError(
                f"tuple {gt!s} is already indexed; inserting the same object "
                "twice would silently double-index it"
            )
        iv = self._generalized_key(gt)
        # index first, book-keep after: a failed insert (e.g. a static
        # manager) must not leak the tuple into the relation, which the
        # persistent catalog would then serialize as if it were indexed
        self.manager.insert(iv)
        self.relation.add(gt)
        self._keys[id(gt)] = iv

    def delete(self, gt: GeneralizedTuple) -> bool:
        """Remove one tuple from the relation and the index; ``True`` when
        present (matched by object identity, like :meth:`insert` indexed it)."""
        iv = self._keys.pop(id(gt), None)
        if iv is None:
            return False
        self.relation.discard(gt)
        return self.manager.delete(iv)

    def purge(self, safe_epoch: int) -> None:
        self.manager.purge(safe_epoch)

    def bulk_load(self, gts: Iterable[GeneralizedTuple]) -> int:
        """Absorb a batch of tuples through the manager's global rebuild."""
        new = [gt for gt in gts]
        ids = [id(gt) for gt in new]
        if len(set(ids)) != len(ids) or any(i in self._keys for i in ids):
            raise ValueError(
                "bulk_load batch repeats a tuple or contains already-indexed "
                "tuples; indexing the same object twice would make one copy "
                "undeletable"
            )
        intervals = [self._generalized_key(gt) for gt in new]
        self.manager.bulk_load(intervals)  # validates/rebuilds before mutation
        for gt, iv in zip(new, intervals):
            self.relation.add(gt)
            self._keys[id(gt)] = iv
        return len(new)

    def destroy(self) -> None:
        """Free every block of the underlying manager (``Engine.drop_index``)."""
        self.manager.destroy()
        self._keys = {}

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def candidate_tuples(self, low: Any, high: Any) -> List[GeneralizedTuple]:
        """Tuples whose generalized key intersects ``[low, high]``."""
        return list(self.iter_candidates(low, high))

    def iter_candidates(self, low: Any, high: Any) -> Iterator[GeneralizedTuple]:
        """Stream the tuples whose generalized key intersects ``[low, high]``."""
        for iv in self.manager.iter_intersection(low, high):
            yield iv.payload

    def stabbing_tuples(self, value: Any) -> List[GeneralizedTuple]:
        """Tuples whose generalized key contains ``value``."""
        return [iv.payload for iv in self.manager.stabbing_query(value)]

    def iter_restricted(
        self, low: Any, high: Any, prune: bool = True
    ) -> Iterator[GeneralizedTuple]:
        """Stream candidate tuples conjoined with ``low <= attribute <= high``."""
        x = Variable(self.attribute)
        extra = (Constraint(x, ">=", low), Constraint(x, "<=", high))
        for gt in self.iter_candidates(low, high):
            candidate = gt.conjoin(*extra)
            if not prune or candidate.is_satisfiable():
                yield candidate

    def range_query(self, low: Any, high: Any, prune: bool = True) -> GeneralizedRelation:
        """The generalized relation restricted to ``low <= attribute <= high``."""
        return GeneralizedRelation(
            self.relation.variables,
            list(self.iter_restricted(low, high, prune=prune)),
            name=f"{self.relation.name}:range",
        )

    # ------------------------------------------------------------------ #
    # uniform Index surface (see repro.engine.protocols.Index)
    # ------------------------------------------------------------------ #
    def stream(self, q: Any) -> Iterator[GeneralizedTuple]:
        """The plain lazy hit iterator for a supported descriptor.

        * :class:`~repro.engine.queries.Range` -> the restricted (conjoined
          and satisfiability-pruned) generalized tuples;
        * :class:`~repro.engine.queries.Stab` -> tuples whose generalized
          key contains ``q.x``.
        """
        from repro.engine.queries import Stab

        if isinstance(q, Stab):
            return (iv.payload for iv in self.manager.iter_stabbing(q.x))
        return self.iter_restricted(q.low, q.high)

    def query(self, q: Any) -> "Any":
        """Answer an engine query descriptor with a lazy ``QueryResult``
        over :meth:`stream` (``TypeError`` for an unsupported shape)."""
        from repro.engine.result import QueryResult

        return QueryResult.of(self, q)

    def supports(self, q: Any) -> bool:
        """Point (:class:`Stab`) and range (:class:`Range`) restrictions."""
        from repro.engine.queries import Range, Stab

        return isinstance(q, (Stab, Range))

    def cost(self, q: Any) -> "Any":
        """Section 2.1 via Theorem 3.2: ``O(log_B n + t/B)`` I/Os."""
        from repro.engine.protocols import Bound

        n, b = max(len(self), 2), self.disk.block_size
        return Bound.of("log_B n + t/B", lambda t: metablock_query_bound(n, b, t))

    def io_stats(self):
        """Live I/O counters of the backing store."""
        return self.disk.stats

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def block_count(self) -> int:
        return self.manager.block_count()

    @property
    def live_count(self) -> int:
        """Number of live (non-deleted) tuples — what the cost bounds use."""
        return self.manager.live_count

    def __len__(self) -> int:
        return len(self.manager)
