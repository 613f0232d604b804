"""repro — I/O-efficient indexing for data models with constraints and classes.

A from-scratch reproduction of

    P. Kanellakis, S. Ramaswamy, D. E. Vengroff, J. S. Vitter.
    "Indexing for Data Models with Constraints and Classes",
    PODS 1993 / JCSS 52(3):589-612, 1996.

The package implements the paper's data structures (the metablock tree and
its semi-dynamic and 3-sided variants, blocked priority search trees, the
class-indexing schemes of Theorems 2.6 and 4.7), the substrates they rely on
(pluggable storage backends with exact I/O accounting, external B+-trees)
and the constraint data model of Section 2.1, plus the seeded workload generators that the benchmarks
(``benchmarks/``, outside the package) draw on to regenerate an empirical
evaluation of every bound the paper proves.

The public entry point is the :class:`Engine`: it owns a storage backend
(the in-memory :class:`SimulatedDisk` or the file-backed :class:`FileDisk`)
and a namespace of indexes sharing the uniform :class:`~repro.engine.Index`
surface.  Queries return lazy :class:`QueryResult` streams that carry their
own I/O counts next to the paper's predicted bound.

Quickstart
----------
>>> from repro import Engine, Interval, Stab
>>> engine = Engine(block_size=16)
>>> _ = engine.create_interval_index("temporal", [Interval(1, 5), Interval(3, 9)])
>>> result = engine.query("temporal", Stab(4))   # lazy: no I/O yet
>>> sorted((iv.low, iv.high) for iv in result)   # streams block by block
[(1, 5), (3, 9)]
>>> result.ios > 0 and result.bound is not None  # measured vs. Theorem 3.2
True

The pre-engine constructors (``ExternalIntervalManager(disk, ...)``,
``ClassIndexer(disk, ...)``, ...) remain importable and unchanged.
"""

from repro.interval import Interval
from repro.io import (
    BufferManager,
    FileDisk,
    IOStats,
    SimulatedDisk,
    StorageBackend,
)
from repro.btree import BPlusTree
from repro.core import ClassIndexer, ExternalIntervalManager
from repro.classes import ClassHierarchy, ClassObject, CombinedClassIndex, SimpleClassIndex
from repro.constraints import (
    Constraint,
    GeneralizedOneDimensionalIndex,
    GeneralizedRelation,
    GeneralizedTuple,
    var,
)
from repro.engine import (
    And,
    Bound,
    ClassRange,
    Collection,
    EndpointRange,
    Engine,
    EngineSession,
    Index,
    Limit,
    Not,
    Or,
    OrderBy,
    Param,
    Plan,
    PreparedQuery,
    QueryPlanner,
    QueryResult,
    Range,
    ResultConsumedError,
    RWLock,
    SessionResult,
    Stab,
    bind_params,
    query_from_dict,
    unbound_params,
)
from repro.metablock import (
    AugmentedMetablockTree,
    DiagonalCornerQuery,
    PlanarPoint,
    StaticMetablockTree,
    ThreeSidedMetablockTree,
    ThreeSidedQuery,
)
from repro.pst import ExternalPST

__version__ = "1.2.0"

__all__ = [
    "And",
    "AugmentedMetablockTree",
    "BPlusTree",
    "Bound",
    "BufferManager",
    "ClassHierarchy",
    "ClassIndexer",
    "ClassObject",
    "ClassRange",
    "Collection",
    "CombinedClassIndex",
    "Constraint",
    "DiagonalCornerQuery",
    "EndpointRange",
    "Engine",
    "EngineSession",
    "ExternalIntervalManager",
    "ExternalPST",
    "FileDisk",
    "GeneralizedOneDimensionalIndex",
    "GeneralizedRelation",
    "GeneralizedTuple",
    "IOStats",
    "Index",
    "Interval",
    "Limit",
    "Not",
    "Or",
    "OrderBy",
    "Plan",
    "Param",
    "PlanarPoint",
    "PreparedQuery",
    "QueryPlanner",
    "QueryResult",
    "RWLock",
    "Range",
    "ResultConsumedError",
    "SessionResult",
    "SimpleClassIndex",
    "SimulatedDisk",
    "Stab",
    "StaticMetablockTree",
    "StorageBackend",
    "ThreeSidedMetablockTree",
    "ThreeSidedQuery",
    "bind_params",
    "query_from_dict",
    "unbound_params",
    "var",
    "__version__",
]
