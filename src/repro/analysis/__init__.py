"""Analysis helpers: cost-model predictions, the tessellation lower bound,
and the concurrency toolchain (static lint + runtime lockdep witness)."""

from typing import Any

from repro.analysis import lockdep
from repro.analysis.complexity import (
    btree_query_bound,
    log_b,
    metablock_insert_bound,
    metablock_query_bound,
    simple_class_query_bound,
    three_sided_query_bound,
    bound_ratio,
)
from repro.analysis.lockdep import (
    BlockingUnderLockError,
    LockdepWitness,
    LockOrderError,
    watching,
)
from repro.analysis.tessellation import GridTessellation, row_query_cost_ratio

#: the linter's names, imported on first use (PEP 562): the engine imports
#: this package for ``lockdep`` alone, and need not load the linter with it
_LAZY = {
    "Linter": "lint",
    "lint_paths": "lint",
    "render_report": "lint",
    "write_json_report": "lint",
    "Finding": "lintrules",
    "Rule": "lintrules",
    "register": "lintrules",
    "rule_catalog": "lintrules",
}


def __getattr__(name: str) -> Any:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)

__all__ = [
    "BlockingUnderLockError",
    "Finding",
    "GridTessellation",
    "Linter",
    "LockOrderError",
    "LockdepWitness",
    "Rule",
    "bound_ratio",
    "btree_query_bound",
    "lint_paths",
    "lockdep",
    "log_b",
    "metablock_insert_bound",
    "metablock_query_bound",
    "register",
    "render_report",
    "rule_catalog",
    "row_query_cost_ratio",
    "simple_class_query_bound",
    "three_sided_query_bound",
    "watching",
    "write_json_report",
]
