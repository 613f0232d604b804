"""The ``Index`` protocol and the ``Bound`` capability surface.

The paper's structures solve different problems (stabbing, 3-sided search,
class extents) but, as database components, they all reduce to the same
surface: put a record in, stream records matching a query descriptor out,
account for space and I/O, and *advertise* which query shapes they serve at
which predicted cost.  The protocol is structural
(:func:`typing.runtime_checkable`), so the concrete classes —
:class:`~repro.core.ExternalIntervalManager`,
:class:`~repro.core.ClassIndexer`,
:class:`~repro.constraints.GeneralizedOneDimensionalIndex`,
:class:`~repro.pst.ExternalPST`, :class:`~repro.btree.BPlusTree`, and
the multi-index
:class:`~repro.engine.collection.Collection` — need no common base class;
they simply all implement these seven methods (the metablock trees
beneath them advertise ``supports``/``cost`` only).

``supports``/``cost``/``stream`` are what the
:class:`~repro.engine.planner.QueryPlanner` consumes: per candidate
(index, sub-query) pair it asks the index whether it can serve the shape
and what the paper predicts it will pay, then runs the cheapest plan's
plain ``stream`` inside the one result it builds.  ``query`` is the same
three put together for a direct caller (``QueryResult.of``); the planner
never calls it.

:class:`MutableIndex` layers the capability-tiered *write* surface on top:
``delete``/``bulk_load`` plus the ``supports_deletes``/``supports_bulk_load``
flags — implemented natively by B+-trees and supplied to every other
structure by the global-rebuilding core,
:class:`~repro.rebuilding.RebuildingIndex`.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Protocol, runtime_checkable

from repro.analysis.complexity import Bound  # re-exported: the cost surface
from repro.io.counters import IOStats


@runtime_checkable
class Index(Protocol):
    """Uniform surface of an I/O-efficient index.

    ``query`` takes a descriptor from :mod:`repro.engine.queries` (or one of
    the geometric query dataclasses) and returns a lazy
    :class:`~repro.engine.result.QueryResult`; no I/O happens until the
    result is iterated.  ``stream`` is the plain lazy iterator beneath it —
    its dispatch on the descriptor's type is the structure's one list of
    served shapes — and what the planner runs.  ``insert`` may raise :class:`NotImplementedError`
    on structures the paper analyses as static (callers can probe with
    ``getattr(index, 'dynamic', True)``).

    ``supports``/``cost`` form the capability surface the
    :class:`~repro.engine.planner.QueryPlanner` plans against: ``supports``
    must be total (``False`` for unknown descriptors, never an exception)
    and ``cost`` and ``stream`` may assume ``supports(q)`` is true.
    """

    def insert(self, item: Any) -> None:
        """Add one record to the index."""
        ...

    def query(self, q: Any) -> Any:
        """Answer a query descriptor with a lazy ``QueryResult``."""
        ...

    def stream(self, q: Any) -> Iterator[Any]:
        """The plain lazy hit iterator for a supported descriptor."""
        ...

    def supports(self, q: Any) -> bool:
        """Whether this index can serve the query shape directly."""
        ...

    def cost(self, q: Any) -> Bound:
        """The paper's predicted I/O bound for serving ``q`` here."""
        ...

    def block_count(self) -> int:
        """Disk blocks used by the structure (the space bound)."""
        ...

    def io_stats(self) -> IOStats:
        """Live I/O counters of the structure's storage backend."""
        ...


@runtime_checkable
class MutableIndex(Index, Protocol):
    """The capability-tiered *write* surface layered on :class:`Index`.

    The paper presents its structures with full maintenance semantics —
    inserts *and* deletes within the I/O bounds, plus efficient bulk
    construction.  ``MutableIndex`` is that lifecycle-complete tier:

    * ``delete(item)`` removes one record (matched by its stable ``uid``
      where the record carries one) and returns whether it was present;
    * ``bulk_load(items)`` loads a batch in one reorganisation — packed
      bottom-up builds for B+-trees, a global rebuild for the
      tombstone-bearing structures — and returns the number of records
      added;
    * the ``supports_deletes`` / ``supports_bulk_load`` flags advertise
      the tier, so callers (the :class:`~repro.engine.collection.Collection`
      write path, the CLI, the catalog restore) can probe capabilities
      without ``try``/``except`` around every call.

    Structures the paper analyses as static or semi-dynamic
    (:class:`~repro.pst.ExternalPST`, the static and augmented metablock
    trees, the ``combined`` class scheme) do not implement it natively:
    the interval manager, the class indexer and the ``point`` kind wrap
    them in :class:`~repro.rebuilding.RebuildingIndex`, which uses the
    structure's own ``insert`` / ``delete`` where it has one and supplies
    the rest — a side log, tombstones, threshold-triggered global rebuilds
    — with every rebuild I/O charged to the counters.
    """

    supports_deletes: bool
    supports_bulk_load: bool

    def delete(self, item: Any) -> bool:
        """Remove one record; ``True`` when it was present."""
        ...

    def bulk_load(self, items: Iterable[Any]) -> int:
        """Load a batch of records in one reorganisation; returns the count."""
        ...


def supports_deletes(index: Any) -> bool:
    """Whether ``index`` advertises the delete capability tier."""
    return bool(getattr(index, "supports_deletes", False))


def supports_bulk_load(index: Any) -> bool:
    """Whether ``index`` advertises the bulk-load capability tier."""
    return bool(getattr(index, "supports_bulk_load", False))
