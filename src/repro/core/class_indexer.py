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

from typing import Any, Iterable, Iterator, List

from repro.analysis.complexity import (
    btree_query_bound,
    combined_class_query_bound,
    rebuild_due,
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
from repro.errors import DuplicateError
from repro.records import fresh_record_keys

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
    #: tier — schemes built from B+-tree collections delete natively; the
    #: ``combined`` scheme (whose path pieces are semi-dynamic 3-sided
    #: structures) deletes through uid tombstones + global rebuilds
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
        objs = list(objects)
        fresh_record_keys(objs, context="the initial objects")
        self._objects = {o.uid: o for o in objs}
        self._tombstones: set = set()
        #: bumped on every global reorganisation (threshold rebuilds, bulk
        #: loads) — the query planner folds it into its plan-cache key, so
        #: cached strategies over this indexer re-plan after a rebuild
        self.generation = 0
        self._index = _METHODS[method](disk, hierarchy, objs)

    @staticmethod
    def methods() -> List[str]:
        """The available scheme names."""
        return sorted(_METHODS)

    def insert(self, obj: ClassObject) -> None:
        """Insert an object into its class."""
        if obj.uid in self._objects:
            raise DuplicateError(
                f"record uid {obj.uid} is already indexed ({obj!r}); "
                "records carry a process-unique uid, so inserting the same "
                "object twice would silently double-index it"
            )
        if obj.uid in self._tombstones:
            # re-inserting a record deleted earlier, while its stale copy
            # still sits in the physical index: sweep it out first, or the
            # tombstone would hide the fresh copy (and dropping just the
            # tombstone would surface the stale duplicate)
            self._rebuild()
        self._index.insert(obj)
        self._objects[obj.uid] = obj

    def delete(self, obj: ClassObject) -> bool:
        """Delete one object (matched by uid); ``True`` when it was present.

        Schemes whose collections are B+-trees remove the record in place
        (``O(copies · log_B n)`` I/Os); the ``combined`` scheme tombstones
        the uid and rebuilds globally once ``REBUILD_FRACTION`` of the
        live set is dead — rebuild I/Os are charged to the counters.
        """
        stored = self._objects.pop(obj.uid, None)
        if stored is None:
            return False
        native = getattr(self._index, "delete", None)
        if callable(native):
            native(stored)
            return True
        self._tombstones.add(stored.uid)
        if rebuild_due(len(self._tombstones), len(self._objects), self.disk.block_size):
            self._rebuild()
        return True

    def bulk_load(self, objects: Iterable[ClassObject]) -> int:
        """Absorb a batch of objects in one global reorganisation.

        Every scheme's constructor *is* its bulk build (packed B+-trees /
        static 3-sided structures), so a batch of ``m`` costs one
        ``O(((n + m)/B) · copies)`` rebuild instead of ``m`` tree inserts.
        The replacement scheme is built *before* the old one is destroyed,
        so a failing batch (e.g. an unknown class name) raises with the
        indexer intact.
        """
        new = list(objects)
        fresh_record_keys(new, self._objects)
        merged = list(self._objects.values()) + new
        replacement = _METHODS[self.method](self.disk, self.hierarchy, merged)
        self._index.destroy()
        self._index = replacement
        self._tombstones = set()
        self.generation += 1
        for o in new:
            self._objects[o.uid] = o
        return len(new)

    def _rebuild(self) -> None:
        """Globally rebuild the active scheme from the live objects."""
        self._index.destroy()
        self._index = _METHODS[self.method](
            self.disk, self.hierarchy, list(self._objects.values())
        )
        self._tombstones = set()
        self.generation += 1

    def destroy(self) -> None:
        """Free every block of the underlying scheme (``Engine.drop_index``)."""
        self._index.destroy()
        self._objects = {}
        self._tombstones = set()

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

        Tombstoned records (deleted but not yet swept by a global rebuild)
        are filtered out of the stream; the filter is free of I/O.
        """
        if not self._tombstones:
            return self._index.iter_query(class_name, low, high)
        tombstones = self._tombstones
        return (
            obj
            for obj in self._index.iter_query(class_name, low, high)
            if obj.uid not in tombstones
        )

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
        from repro.engine.queries import ClassRange

        return isinstance(q, ClassRange) and q.class_name in self.hierarchy

    def cost(self, q: Any) -> Any:
        """The active scheme's query bound (Theorem 2.6 / 4.7 or the baseline)."""
        from repro.engine.protocols import Bound

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
        from dataclasses import replace

        from repro.engine.queries import And, ClassRange, Limit, Not, Or, OrderBy

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
        return self._index.block_count()

    @property
    def backend(self):
        """The underlying index object (for scheme-specific introspection)."""
        return self._index

    @property
    def live_count(self) -> int:
        """Number of live (non-deleted) records — what the cost bounds use."""
        return len(self._objects)

    def objects(self) -> List[ClassObject]:
        """The live objects (the engine catalog serializes these)."""
        return list(self._objects.values())

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ClassIndexer(method={self.method!r}, classes={len(self.hierarchy)}, n={len(self)})"
