"""The composable query algebra understood by ``Index.query`` and the planner.

Leaves are small frozen dataclasses naming one query shape from the paper.
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

from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Callable, Mapping, Optional, Set, Tuple, Union

from repro.algebra import AlgebraicQuery
from repro.errors import ParameterError
from repro.metablock.geometry import (  # noqa: F401  (re-exported)
    DiagonalCornerQuery,
    ThreeSidedQuery,
    TwoSidedQuery,
)


def _as_interval(record: Any) -> Optional[Tuple[Any, Any]]:
    """The closed interval a record denotes, or ``None`` for key records."""
    low = getattr(record, "low", None)
    high = getattr(record, "high", None)
    if low is not None and high is not None:
        return low, high
    x = getattr(record, "x", None)
    y = getattr(record, "y", None)
    if x is not None and y is not None:
        return x, y
    return None


def _as_key(record: Any) -> Any:
    """The scalar key a record denotes (``(key, value)`` pairs use the key)."""
    if isinstance(record, tuple) and len(record) == 2:
        return record[0]
    return record


# --------------------------------------------------------------------------- #
# parameters (prepared queries)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Param:
    """A named placeholder for a scalar operand in a prepared query.

    Use it wherever a literal would go — ``Stab(Param("x"))``,
    ``Range(Param("lo"), Param("hi"))`` — then bind concrete values with
    :func:`bind_params` (what ``PreparedQuery.run(**params)`` does).  A
    parameter never enters a query's :meth:`~repro.algebra.AlgebraicQuery.
    signature`, so the parameterised query shares its cached plan with
    every concrete instantiation.
    """

    name: str

    def to_dict(self) -> dict:
        """Wire form (placeholders survive serialization unbound)."""
        return {"node": "Param", "name": self.name}


def _walk_bind(q: Any, params: Mapping[str, Any], missing: Set[str], used: Set[str]) -> Any:
    """Substitute :class:`Param` placeholders throughout a query tree.

    Returns ``q`` itself (not a copy) when nothing inside it changed, so
    binding an already-concrete query is allocation-free.
    """
    if isinstance(q, Param):
        if q.name in params:
            used.add(q.name)
            return params[q.name]
        missing.add(q.name)
        return q
    if isinstance(q, (And, Or)):
        parts = tuple(_walk_bind(p, params, missing, used) for p in q.parts)
        return q if parts == q.parts else type(q)(*parts)
    if is_dataclass(q) and isinstance(q, AlgebraicQuery):
        changes = {}
        for f in fields(q):
            value = getattr(q, f.name)
            if isinstance(value, (Param, AlgebraicQuery)):
                bound = _walk_bind(value, params, missing, used)
                if bound is not value:
                    changes[f.name] = bound
        return replace(q, **changes) if changes else q
    return q


def bind_params(q: Any, params: Mapping[str, Any], *, partial: bool = False) -> Any:
    """Return ``q`` with every :class:`Param` replaced by its bound value.

    Strict by default: a :class:`Param` with no binding raises
    :class:`~repro.errors.ParameterError` (a ``KeyError``), as does a binding no parameter uses (catching typo'd
    keyword names).  ``partial=True`` relaxes both — unknown parameters stay
    in place and extras are ignored — which is what plan rebinding uses when
    a sub-expression only mentions a subset of the query's parameters.
    """
    missing: Set[str] = set()
    used: Set[str] = set()
    bound = _walk_bind(q, params, missing, used)
    if not partial:
        if missing:
            raise ParameterError(f"unbound query parameters: {sorted(missing)}")
        extras = set(params) - used
        if extras:
            raise ParameterError(f"unknown query parameters: {sorted(extras)}")
    return bound


def unbound_params(q: Any) -> Set[str]:
    """The names of every :class:`Param` remaining in ``q``."""
    missing: Set[str] = set()
    _walk_bind(q, {}, missing, set())
    return missing


# --------------------------------------------------------------------------- #
# leaves
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Stab(AlgebraicQuery):
    """All records containing / keyed exactly at ``x``."""

    x: Any

    def matches_interval(self, low: Any, high: Any) -> bool:
        return low <= self.x <= high

    def matches(self, record: Any) -> bool:
        bounds = _as_interval(record)
        if bounds is not None:
            return self.matches_interval(*bounds)
        return _as_key(record) == self.x


@dataclass(frozen=True)
class Range(AlgebraicQuery):
    """All records overlapping / keyed within ``[low, high]``.

    ``min_inclusive`` / ``max_inclusive`` control whether the endpoints
    belong to the range (B+-tree key semantics; interval intersection always
    treats the query as a closed interval).
    """

    low: Any
    high: Any
    min_inclusive: bool = True
    max_inclusive: bool = True

    def matches_key(self, key: Any) -> bool:
        if key < self.low or key > self.high:
            return False
        if key == self.low and not self.min_inclusive:
            return False
        if key == self.high and not self.max_inclusive:
            return False
        return True

    def matches(self, record: Any) -> bool:
        bounds = _as_interval(record)
        if bounds is not None:
            low, high = bounds
            return low <= self.high and self.low <= high
        return self.matches_key(_as_key(record))

    def signature(self) -> tuple:
        # endpoints are parameters; inclusivity is structural (it survives
        # into the translated B+-tree query, so keep shapes distinct)
        return ("Range", self.min_inclusive, self.max_inclusive)


@dataclass(frozen=True)
class EndpointRange(AlgebraicQuery):
    """Interval records whose ``side`` endpoint lies within ``[low, high]``.

    ``side`` is ``"low"`` or ``"high"``.  This is *not* the same as interval
    intersection: ``EndpointRange("low", a, b)`` asks for intervals that
    *start* inside ``[a, b]``.  Inside a
    :class:`~repro.engine.collection.Collection` it is served optimally by
    the B+-tree over that endpoint.
    """

    side: str
    low: Any
    high: Any
    min_inclusive: bool = True
    max_inclusive: bool = True

    def __post_init__(self) -> None:
        if self.side not in ("low", "high"):
            raise ValueError(f"side must be 'low' or 'high', not {self.side!r}")

    def endpoint(self, record: Any) -> Any:
        bounds = _as_interval(record)
        if bounds is None:
            return _as_key(record)
        return bounds[0] if self.side == "low" else bounds[1]

    def matches(self, record: Any) -> bool:
        v = self.endpoint(record)
        if v < self.low or v > self.high:
            return False
        if v == self.low and not self.min_inclusive:
            return False
        if v == self.high and not self.max_inclusive:
            return False
        return True

    def signature(self) -> tuple:
        # ``side`` picks which endpoint B+-tree can serve the query, so it
        # is part of the shape, not a parameter
        return ("EndpointRange", self.side, self.min_inclusive, self.max_inclusive)


@dataclass(frozen=True)
class ClassRange(AlgebraicQuery):
    """Attribute range ``[low, high]`` over the full extent of a class.

    The ``hierarchy`` field (optional, excluded from equality) lets the
    ``matches`` oracle test full-extent membership — without it only exact
    class membership is checked.  :meth:`repro.core.ClassIndexer.bind`
    attaches the indexer's hierarchy to residual predicates automatically.
    """

    class_name: str
    low: Any
    high: Any
    hierarchy: Any = field(default=None, compare=False, repr=False)

    def matches(self, record: Any) -> bool:
        key = getattr(record, "key", None)
        if key is None or key < self.low or key > self.high:
            return False
        cls = getattr(record, "class_name", None)
        if self.hierarchy is not None:
            return cls in self.hierarchy.descendants(self.class_name)
        return cls == self.class_name

    def signature(self) -> tuple:
        # the class names an extent (a different sub-structure per class in
        # some schemes); only the attribute endpoints are parameters
        return ("ClassRange", self.class_name)


# --------------------------------------------------------------------------- #
# combinators
# --------------------------------------------------------------------------- #
def _flatten(kind: type, parts: Tuple[Any, ...]) -> Tuple[Any, ...]:
    flat = []
    for p in parts:
        if isinstance(p, kind):
            flat.extend(p.parts)
        else:
            flat.append(p)
    return tuple(flat)


@dataclass(frozen=True, init=False)
class And(AlgebraicQuery):
    """Conjunction: records matching *every* part (nested ``And``s flatten)."""

    parts: Tuple[Any, ...]

    def __init__(self, *parts: Any) -> None:
        object.__setattr__(self, "parts", _flatten(And, parts))

    def matches(self, record: Any) -> bool:
        return all(p.matches(record) for p in self.parts)

    def signature(self) -> tuple:
        return ("And",) + tuple(p.signature() for p in self.parts)


@dataclass(frozen=True, init=False)
class Or(AlgebraicQuery):
    """Disjunction: records matching *any* part (nested ``Or``s flatten)."""

    parts: Tuple[Any, ...]

    def __init__(self, *parts: Any) -> None:
        object.__setattr__(self, "parts", _flatten(Or, parts))

    def matches(self, record: Any) -> bool:
        return any(p.matches(record) for p in self.parts)

    def signature(self) -> tuple:
        return ("Or",) + tuple(p.signature() for p in self.parts)


@dataclass(frozen=True)
class Not(AlgebraicQuery):
    """Complement: records *not* matching ``part``.

    Alone it forces a scan plan (only available on a
    :class:`~repro.engine.collection.Collection`); inside an :class:`And`
    it rides along as a free residual post-filter.
    """

    part: Any

    def matches(self, record: Any) -> bool:
        return not self.part.matches(record)

    def signature(self) -> tuple:
        return ("Not", self.part.signature())


# --------------------------------------------------------------------------- #
# modifiers
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Limit(AlgebraicQuery):
    """At most ``n`` records of ``part``'s answer (streaming; lazy)."""

    part: Any
    n: int

    def matches(self, record: Any) -> bool:
        # membership oracle of the underlying query; the cardinality cap is a
        # property of the stream, not of any single record
        return self.part.matches(record)

    def signature(self) -> tuple:
        # ``n`` is a parameter: the base plan is identical for any cap
        return ("Limit", self.part.signature())


@dataclass(frozen=True)
class OrderBy(AlgebraicQuery):
    """``part``'s answer sorted by ``key`` (attribute name or callable).

    Sorting materialises the stream; combined with :class:`Limit` on top the
    tail past the limit is never yielded, but the sort itself must see every
    record.  The sort is *stable* and runs **once** per executed result:
    records comparing equal under ``key`` keep the access path's emission
    order, and re-iterating an exhausted result replays the already-sorted
    cache instead of re-materialising the sort.
    """

    part: Any
    key: Optional[Union[str, Callable[[Any], Any]]] = None
    reverse: bool = False

    def matches(self, record: Any) -> bool:
        return self.part.matches(record)

    def signature(self) -> tuple:
        # the sort key only shapes the output order, never the access plan
        return ("OrderBy", self.part.signature())

    def key_fn(self) -> Callable[[Any], Any]:
        if self.key is None:
            return lambda record: record
        if callable(self.key):
            return self.key
        attr = self.key
        return lambda record: getattr(record, attr)


#: modifier node types the planner peels off the top of a query
MODIFIERS = (Limit, OrderBy)

#: node types that require planning (no single index answers them directly)
COMPOSED = (And, Or, Not, Limit, OrderBy)


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
