"""A single entry point over the class-indexing schemes.

The paper develops several ways to index the full extents of a class
hierarchy; :class:`ClassIndexer` exposes them behind one constructor so the
examples and benchmarks can switch scheme by name:

========================  =====================================================
``method``                structure
========================  =====================================================
``"simple"``              Theorem 2.6 range tree of B+-trees (the default)
``"combined"``            Theorem 4.7 rake-and-contract + 3-sided structures
``"single"``              one B+-tree over all objects, filtered at query time
``"full-extent"``         one B+-tree per class full extent
``"extent"``              one B+-tree per class extent
========================  =====================================================
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Iterable, Iterator, List

from repro.algebra import And, ClassRange, Limit, Not, Or, OrderBy
from repro.analysis.complexity import (
    Bound,
    btree_query_bound,
    combined_class_query_bound,
    simple_class_query_bound,
)
from repro.classes.baselines import (
    ExtentPerClassIndex,
    FullExtentPerClassIndex,
    SingleCollectionIndex,
)
from repro.classes.combined_index import CombinedClassIndex
from repro.classes.hierarchy import ClassHierarchy, ClassObject
from repro.classes.simple_index import SimpleClassIndex
from repro.rebuilding import RebuildingIndex

_METHODS = {
    "simple": SimpleClassIndex,
    "combined": CombinedClassIndex,
    "single": SingleCollectionIndex,
    "full-extent": FullExtentPerClassIndex,
    "extent": ExtentPerClassIndex,
}


class ClassIndexer:
    """Facade over the class-indexing schemes of Sections 2.2 and 4."""

    #: capability flags of the :class:`~repro.engine.protocols.MutableIndex`
    #: tier — the scheme sits in the global-rebuilding core: schemes built
    #: from B+-tree collections delete natively, the ``combined`` scheme
    #: (whose path pieces are semi-dynamic 3-sided structures) through the
    #: core's tombstones + global rebuilds
    supports_deletes = True
    supports_bulk_load = True

    def __init__(
        self,
        disk,
        hierarchy: ClassHierarchy,
        objects: Iterable[ClassObject] = (),
        method: str = "simple",
    ) -> None:
        if method not in _METHODS:
            raise ValueError(f"unknown method {method!r}; choose one of {sorted(_METHODS)}")
        self.disk = disk
        self.method = method
        self.hierarchy = hierarchy
        scheme = _METHODS[method]
        self._core = RebuildingIndex(
            disk,
            lambda objs: scheme(disk, hierarchy, objs),
            objects,
            insert=scheme.insert,
            delete=getattr(scheme, "delete", None),
        )

    @property
    def generation(self) -> int:
        """The core's rebuild counter — the planner's plan-cache key."""
        return self._core.generation

    @staticmethod
    def methods() -> List[str]:
        """The available scheme names."""
        return sorted(_METHODS)

    def insert(self, obj: ClassObject) -> None:
        """Insert an object into its class."""
        self._core.insert(obj)

    def delete(self, obj: ClassObject) -> bool:
        """Delete one object (matched by uid); ``True`` when it was present.

        Schemes whose collections are B+-trees remove the record in place
        (``O(copies · log_B n)`` I/Os); the ``combined`` scheme tombstones
        the stored version and rebuilds globally once ``REBUILD_FRACTION``
        of the live set is dead — rebuild I/Os are charged to the counters.
        """
        return self._core.delete(obj)

    def purge(self, safe_epoch: int) -> None:
        self._core.purge(safe_epoch)

    def bulk_load(self, objects: Iterable[ClassObject]) -> int:
        """Load a batch of objects in one global reorganisation.

        Every scheme's constructor *is* its bulk build (packed B+-trees /
        static 3-sided structures), so a batch of ``m`` costs one
        ``O(((n + m)/B) · copies)`` rebuild instead of ``m`` tree inserts.
        The replacement scheme is built *before* the old one is destroyed,
        so a failing batch (e.g. an unknown class name) raises with the
        indexer intact.
        """
        return self._core.bulk_load(objects)

    def destroy(self) -> None:
        """Free every block of the underlying scheme (``Engine.drop_index``)."""
        self._core.destroy()

    def query(self, query_or_class: Any, low: Any = None, high: Any = None) -> Any:
        """Attribute range query over the full extent of a class.

        Two calling conventions:

        * ``query(class_name, low, high)`` — the original eager API,
          returning a ``List[ClassObject]``;
        * ``query(ClassRange(class_name, low, high))`` — the uniform
          :class:`~repro.engine.protocols.Index` API, returning a lazy
          :class:`~repro.engine.result.QueryResult`.
        """
        from repro.engine.result import QueryResult

        if not isinstance(query_or_class, str):
            # a served ClassRange, else TypeError: any other descriptor (Stab,
            # ...) would fall into the legacy path and die on a confusing KeyError
            return QueryResult.of(self, query_or_class)
        # route through iter_query so the eager path sees the same
        # tombstone filtering as the lazy one
        return list(self.iter_query(query_or_class, low, high))

    def stream(self, q: Any) -> Iterator[ClassObject]:
        """The plain lazy hit iterator for a supported ``ClassRange``."""
        return self.iter_query(q.class_name, q.low, q.high)

    def iter_query(self, class_name: str, low: Any, high: Any) -> Iterator[ClassObject]:
        """Stream the answer to a full-extent attribute range query.

        The stream holds the versions the reader's epoch sees (tombstoned
        ones, not yet swept by a global rebuild, never); the filter is free
        of I/O.
        """
        core = self._core
        return core.live(core.inner.iter_query(class_name, low, high))

    def _bound_fn(self):
        """The paper's predicted query bound for the active scheme."""
        n = max(len(self), 2)
        b = self.disk.block_size
        c = max(len(self.hierarchy), 2)
        if self.method == "simple":
            return lambda t: simple_class_query_bound(n, b, c, t)
        if self.method == "combined":
            return lambda t: combined_class_query_bound(n, b, t)
        # the baselines have no better guarantee than a B+-tree probe per
        # touched collection; report the single-probe bound as the floor
        return lambda t: btree_query_bound(n, b, t)

    def supports(self, q: Any) -> bool:
        """Full-extent attribute ranges (:class:`ClassRange`) over known classes."""
        return isinstance(q, ClassRange) and q.class_name in self.hierarchy

    def cost(self, q: Any) -> Any:
        """The active scheme's query bound (Theorem 2.6 / 4.7 or the baseline)."""
        formula = {
            "simple": "log2 c * log_B n + t/B",
            "combined": "log_B n + log2 B + t/B",
        }.get(self.method, "log_B n + t/B")
        return Bound.of(formula, self._bound_fn())

    def bind(self, q: Any) -> Any:
        """Attach this indexer's hierarchy to ``ClassRange`` oracle nodes.

        The planner rewrites residual predicates through this hook so their
        ``matches`` oracles test full-extent membership (descendants) rather
        than exact class equality.
        """
        if isinstance(q, ClassRange) and q.hierarchy is None:
            return replace(q, hierarchy=self.hierarchy)
        if isinstance(q, (And, Or)):
            return type(q)(*(self.bind(p) for p in q.parts))
        if isinstance(q, Not):
            return Not(self.bind(q.part))
        if isinstance(q, Limit):
            return Limit(self.bind(q.part), q.n)
        if isinstance(q, OrderBy):
            return OrderBy(self.bind(q.part), q.key, reverse=q.reverse)
        return q

    def io_stats(self):
        """Live I/O counters of the backing store."""
        return self.disk.stats

    def block_count(self) -> int:
        """Disk blocks used by the underlying structures."""
        return self._core.block_count()

    @property
    def backend(self):
        """The underlying index object (for scheme-specific introspection)."""
        return self._core.inner

    @property
    def live_count(self) -> int:
        """Number of live (non-deleted) records — what the cost bounds use."""
        return self._core.live_count

    def objects(self) -> List[ClassObject]:
        """The live objects (the engine catalog serializes these)."""
        return self._core.items()

    def __len__(self) -> int:
        """The physical structures' size (dead versions and copies included)."""
        return len(self._core.inner)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ClassIndexer(method={self.method!r}, classes={len(self.hierarchy)}, n={len(self)})"
