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

from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.algebra import Range, Stab
from repro.analysis.complexity import Bound, metablock_query_bound
from repro.constraints.relation import GeneralizedRelation
from repro.constraints.terms import Constraint, GeneralizedTuple, Variable
from repro.core.interval_manager import ExternalIntervalManager
from repro.errors import DuplicateError
from repro.interval import Interval
from repro.values import identical


class GeneralizedOneDimensionalIndex:
    """Index a generalized relation on one of its variables.  A tuple has
    no uid: it is identified by its value (``GeneralizedTuple.__eq__``), so
    a copy decoded from a page or the WAL names the tuple that was written."""

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
        #: generalized key per indexed tuple, and per tuple deleted since the
        #: manager's rebuild ``_retired_at`` (``_retired``, see :meth:`_new_keys`)
        self._keys: Dict[GeneralizedTuple, Interval] = {}
        self._retired: Dict[GeneralizedTuple, Interval] = {}
        self._retired_at = 0
        intervals = self._new_keys(relation.tuples)
        self.manager = ExternalIntervalManager(disk, intervals, dynamic=dynamic)
        self._keys = dict(zip(relation.tuples, intervals))

    @property
    def generation(self) -> int:
        """The inner manager's rebuild counter, surfaced for the planner's
        plan-cache key: threshold rebuilds must invalidate cached plans
        over this index, not just over the manager directly."""
        return self.manager.generation

    # ------------------------------------------------------------------ #
    # keys
    # ------------------------------------------------------------------ #
    def _generalized_key(self, gt: GeneralizedTuple, old: Optional[Interval] = None) -> Interval:
        if old is not None and identical(old.payload, gt):
            return old
        low, high = gt.projection(self.attribute)
        return Interval(low, high, payload=gt)

    def _retired_keys(self) -> Dict[GeneralizedTuple, Interval]:
        """:attr:`_retired`, dropped once the manager's rebuild swept it."""
        if self._retired and self._retired_at != self.manager.generation:
            self._retired = {}
        return self._retired

    def _new_keys(self, gts: List[GeneralizedTuple]) -> List[Interval]:
        """The intervals to index new tuples ``gts`` under.  A tuple deleted
        since the manager's last rebuild takes its interval back, uid and
        all, when it is that very value type for type, so the core revives
        its dead version instead of storing a second row."""
        if len(set(gts)) != len(gts) or any(gt in self._keys for gt in gts):
            raise DuplicateError("the batch repeats a tuple or holds an indexed one (tuples are values)")
        retired = self._retired_keys()
        return [self._generalized_key(gt, retired.pop(gt, None)) for gt in gts]

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def insert(self, gt: GeneralizedTuple) -> None:
        """Add a generalized tuple to the relation and the index."""
        (iv,) = self._new_keys([gt])
        # index first, book-keep after: a failed insert (e.g. a static
        # manager) must not leak the tuple into the relation, which the
        # persistent catalog would then serialize as if it were indexed
        self.manager.insert(iv)
        self.relation.add(iv.payload)
        self._keys[gt] = iv

    def delete(self, gt: GeneralizedTuple) -> bool:
        """Remove one tuple from the relation and the index; ``True`` when
        present (matched by value, like :meth:`insert` indexed it)."""
        iv = self._keys.pop(gt, None)
        if iv is None:
            return False
        self.relation.discard(iv.payload)
        self.manager.delete(iv)
        self._retired_keys()[gt] = iv
        self._retired_at = self.manager.generation
        return True

    def purge(self, safe_epoch: int) -> None:
        self.manager.purge(safe_epoch)

    def bulk_load(self, gts: Iterable[GeneralizedTuple]) -> int:
        """Load a batch of tuples through the manager's global rebuild."""
        new = list(gts)
        intervals = self._new_keys(new)
        self.manager.bulk_load(intervals)  # validates/rebuilds before mutation
        for gt, iv in zip(new, intervals):
            self.relation.add(iv.payload)
            self._keys[gt] = iv
        return len(new)

    def destroy(self) -> None:
        """Free every block of the underlying manager (``Engine.drop_index``)."""
        self.manager.destroy()
        self._keys, self._retired = {}, {}

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
        return isinstance(q, (Stab, Range))

    def cost(self, q: Any) -> "Any":
        """Section 2.1 via Theorem 3.2: ``O(log_B n + t/B)`` I/Os."""
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
