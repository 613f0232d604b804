"""The composable query algebra understood by ``Index.query`` and the planner.

Leaves are small frozen dataclasses naming one query shape from the paper.
The nodes live in :mod:`repro.algebra` (a dependency-free module the
structures import too) and are re-exported here, beside what the engine
adds: :class:`Param` binding for prepared queries and the wire form.
Every node — leaf, combinator or modifier — carries a brute-force
``matches(record)`` predicate as the correctness oracle, so any composed
query can be checked against a plain list of records.  Geometric shapes
(:class:`DiagonalCornerQuery`, :class:`ThreeSidedQuery`, ...) are
re-exported from :mod:`repro.metablock.geometry` and participate in the
same algebra.

Composing queries::

    q = Stab(42.0) & EndpointRange("low", 10, 20)     # conjunction
    q = Stab(3.0) | Stab(9.0)                         # union
    q = Range(0, 50) & ~Stab(25.0)                    # negation (residual)
    q = Range(0, 50).order_by("low").limit(10)        # modifiers

===========================  ================================================
descriptor                   answered by
===========================  ================================================
:class:`Stab`                interval indexes (stabbing), B+-trees (exact
                             key), constraint indexes (point restriction)
:class:`Range`               interval indexes (intersection), B+-trees (key
                             range, with per-bound inclusivity), constraint
                             indexes
:class:`EndpointRange`       endpoint B+-trees inside a
                             :class:`~repro.engine.collection.Collection`
:class:`ClassRange`          class indexes (attribute range over a full
                             extent)
``ThreeSidedQuery``          external PSTs and 3-sided metablock trees
``DiagonalCornerQuery``      metablock trees
:class:`And` / :class:`Or`   the :class:`~repro.engine.planner.QueryPlanner`
/ :class:`Not`               (index pushdown + residual post-filter / union
                             with dedup / scan fallback)
:class:`Limit` /             applied by the planner on top of any plan,
:class:`OrderBy`             preserving laziness where possible
===========================  ================================================

``matches(record)`` interprets the record by shape: objects with
``low``/``high`` attributes are treated as closed intervals,
:class:`~repro.metablock.geometry.PlanarPoint`-like objects (``x``/``y``)
as the interval ``[x, y]`` of the stabbing reduction, ``(key, value)``
pairs by their key, and anything else as a bare key.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Set, Tuple

from repro.algebra import (  # noqa: F401  (re-exported)
    COMPOSED,
    MODIFIERS,
    AlgebraicQuery,
    And,
    ClassRange,
    EndpointRange,
    Limit,
    Not,
    Or,
    OrderBy,
    Param,
    Range,
    Stab,
)
from repro.errors import ParameterError
from repro.metablock.geometry import (  # noqa: F401  (re-exported)
    DiagonalCornerQuery,
    ThreeSidedQuery,
    TwoSidedQuery,
)


# --------------------------------------------------------------------------- #
# parameters (prepared queries)
# --------------------------------------------------------------------------- #
#: a compiled binding: the query with its placeholders bound from a mapping
Binder = Callable[[Mapping[str, Any]], Any]


def compile_params(q: Any) -> Tuple[Optional[Binder], Set[str]]:
    """Compile ``q``'s :class:`Param` placeholders once: ``(binder, names)``.

    ``binder(params)`` rebuilds only the nodes on a path to a placeholder
    and leaves a placeholder with no binding in place; it is ``None`` when
    ``q`` has no placeholder, so binding an already-concrete query is
    allocation-free.  ``names`` are the placeholders' names.  A prepared
    query compiles its shape once and binds every run with the result.
    """
    names: Set[str] = set()
    return _compile(q, names), names


def _compile(q: Any, names: Set[str]) -> Optional[Binder]:
    if isinstance(q, Param):
        names.add(q.name)
        name = q.name
        return lambda params: params.get(name, q)
    if isinstance(q, (And, Or)):
        parts = q.parts
        binders = [_compile(p, names) for p in parts]
        if not any(binders):
            return None
        combine = type(q)
        steps = tuple(zip(parts, binders))
        return lambda params: combine(
            *[part if bind is None else bind(params) for part, bind in steps]
        )
    if is_dataclass(q) and isinstance(q, AlgebraicQuery):
        fixed: Dict[str, Any] = {}
        bound: Dict[str, Binder] = {}
        for f in fields(q):
            if not f.init:
                continue
            value = getattr(q, f.name)
            bind = _compile(value, names) if isinstance(value, (Param, AlgebraicQuery)) else None
            if bind is None:
                fixed[f.name] = value
            else:
                bound[f.name] = bind
        if not bound:
            return None
        node = type(q)
        return lambda params: node(**fixed, **{k: b(params) for k, b in bound.items()})
    return None


def bind_params(q: Any, params: Mapping[str, Any], *, partial: bool = False) -> Any:
    """Return ``q`` with every :class:`Param` replaced by its bound value.

    Strict by default: a :class:`Param` with no binding raises
    :class:`~repro.errors.ParameterError` (a ``KeyError``), as does a binding no parameter uses (catching typo'd
    keyword names).  ``partial=True`` relaxes both — unknown parameters stay
    in place and extras are ignored — which is what plan rebinding uses when
    a sub-expression only mentions a subset of the query's parameters.
    """
    if not partial:
        return bind_exactly(q, compile_params(q), params)
    binder = compile_params(q)[0]
    return q if binder is None else binder(params)


def bind_exactly(
    q: Any,
    compiled: Tuple[Optional[Binder], Set[str]],
    params: Mapping[str, Any],
    owner: str = "the query",
) -> Any:
    """``q`` bound by ``compiled``, its :func:`compile_params` — strictly:
    bindings that are not exactly its placeholders raise
    :class:`~repro.errors.ParameterError`, which names ``owner``."""
    binder, names = compiled
    if params.keys() != names:
        missing, extras = names - params.keys(), params.keys() - names
        detail = [f"missing {sorted(missing)} (unbound)"] if missing else []
        detail += [f"unknown {sorted(extras)}"] if extras else []
        raise ParameterError(f"{owner} takes parameters {sorted(names)}: " + ", ".join(detail))
    return q if binder is None else binder(params)


def unbound_params(q: Any) -> Set[str]:
    """The names of every :class:`Param` remaining in ``q``."""
    return compile_params(q)[1]


# --------------------------------------------------------------------------- #
# the wire form (serving protocol)
# --------------------------------------------------------------------------- #
def _node_registry() -> Dict[str, type]:
    """Every deserializable node type, keyed by the ``node`` tag."""
    from repro.metablock.geometry import RangeQuery

    types = (
        Stab, Range, EndpointRange, ClassRange,
        And, Or, Not, Limit, OrderBy, Param,
        DiagonalCornerQuery, TwoSidedQuery, ThreeSidedQuery, RangeQuery,
    )
    return {t.__name__: t for t in types}


def _deserialize_operand(value: Any) -> Any:
    if isinstance(value, dict) and "node" in value:
        return query_from_dict(value)
    if isinstance(value, list):
        return [_deserialize_operand(v) for v in value]
    return value


def query_from_dict(data: Mapping[str, Any]) -> Any:
    """Rebuild a query node from its :meth:`~repro.algebra.AlgebraicQuery.
    to_dict` wire form.

    The inverse of ``to_dict`` for every node in the algebra — leaves,
    combinators, modifiers, :class:`Param` placeholders and the geometric
    shapes — preserving ``signature()`` and ``matches`` semantics across
    the round-trip.  Unknown or malformed nodes raise a descriptive
    :class:`ValueError` (what the server turns into a structured
    ``BadRequest`` response).
    """
    if not isinstance(data, Mapping) or "node" not in data:
        raise ValueError(f"not a serialized query node: {data!r}")
    registry = _node_registry()
    name = data["node"]
    cls = registry.get(name)
    if cls is None:
        raise ValueError(
            f"unknown query node {name!r}; know {sorted(registry)}"
        )
    operands = {k: _deserialize_operand(v) for k, v in data.items() if k != "node"}
    try:
        if cls in (And, Or):
            return cls(*operands.get("parts", ()))
        return cls(**operands)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed {name} node {data!r}: {exc}") from exc
