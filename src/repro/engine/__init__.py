"""``repro.engine`` — the public entry point of the reproduction.

The subsystem turns the paper's individual data structures into one
coherent database surface:

* :class:`~repro.engine.core.Engine` — owns a storage backend plus named
  indexes (``create_interval_index``, ``create_collection``, ...), with a
  ``query_many`` batch API, ``explain`` for plan inspection, and
  ``prepare`` for :class:`~repro.engine.prepared.PreparedQuery` handles
  (:class:`~repro.engine.queries.Param` placeholders bound per ``run``,
  plans served from the signature-keyed plan cache);
* :class:`~repro.engine.protocols.Index` — the protocol every index
  implements (``insert`` / ``query`` / ``supports`` / ``cost`` /
  ``block_count`` / ``io_stats``), with :class:`~repro.engine.protocols.
  Bound` as the predicted-cost currency, and its write tier
  :class:`~repro.engine.protocols.MutableIndex` (``delete`` /
  ``bulk_load`` / capability flags), served to the structures the paper
  leaves static by the global-rebuilding core
  :class:`~repro.rebuilding.RebuildingIndex`;
* the **query algebra** of :mod:`repro.engine.queries` — leaves
  (:class:`Stab`, :class:`Range`, :class:`EndpointRange`,
  :class:`ClassRange`, the geometric shapes) composed with ``&``/``|``/
  ``~`` (:class:`And`/:class:`Or`/:class:`Not`) and the
  :class:`Limit`/:class:`OrderBy` modifiers, every node carrying a
  brute-force ``matches`` oracle;
* :class:`~repro.engine.collection.Collection` — several physical indexes
  over one logical record set, planned across by the
  :class:`~repro.engine.planner.QueryPlanner`, whose chosen
  :class:`~repro.engine.planner.Plan` is what ``Engine.explain`` returns;
* :class:`~repro.engine.result.QueryResult` — the lazy, I/O-accounted
  iterable every query returns (``result.ios``, ``result.bound``,
  ``result.plan``), with ``limit()``/``pages()`` cursors.

Storage backends live in :mod:`repro.io` and are selected via
``Engine(backend=...)`` — the same workload runs unchanged on the
in-memory :class:`~repro.io.SimulatedDisk` and the file-backed
:class:`~repro.io.FileDisk`.
"""

from repro.engine.queries import (
    And,
    ClassRange,
    DiagonalCornerQuery,
    EndpointRange,
    Limit,
    Not,
    Or,
    OrderBy,
    Param,
    Range,
    Stab,
    ThreeSidedQuery,
    TwoSidedQuery,
    bind_params,
    query_from_dict,
    unbound_params,
)
from repro.engine.result import QueryResult, ResultConsumedError
from repro.engine.session import (
    EngineSession,
    RWLock,
    SessionResult,
)
from repro.engine.protocols import (
    Bound,
    Index,
    MutableIndex,
    supports_bulk_load,
    supports_deletes,
)
from repro.engine.planner import (
    BOUND_SLACK,
    BOUND_SLACK_PAGES,
    PLAN_CACHE_SIZE,
    Accessor,
    Plan,
    PlanTemplate,
    QueryPlanner,
)
from repro.engine.prepared import PreparedQuery
from repro.rebuilding import RebuildingIndex
from repro.engine.collection import Collection, WriteBatch
from repro.engine.core import DEFAULT_BLOCK_SIZE, Engine

__all__ = [
    "Accessor",
    "And",
    "BOUND_SLACK",
    "BOUND_SLACK_PAGES",
    "Bound",
    "ClassRange",
    "Collection",
    "DEFAULT_BLOCK_SIZE",
    "DiagonalCornerQuery",
    "EndpointRange",
    "Engine",
    "EngineSession",
    "Index",
    "Limit",
    "MutableIndex",
    "Not",
    "Or",
    "OrderBy",
    "PLAN_CACHE_SIZE",
    "Param",
    "Plan",
    "PlanTemplate",
    "PreparedQuery",
    "QueryPlanner",
    "QueryResult",
    "RWLock",
    "Range",
    "RebuildingIndex",
    "ResultConsumedError",
    "SessionResult",
    "Stab",
    "ThreeSidedQuery",
    "TwoSidedQuery",
    "WriteBatch",
    "bind_params",
    "query_from_dict",
    "supports_bulk_load",
    "supports_deletes",
    "unbound_params",
]
