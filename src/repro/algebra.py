"""The composable query algebra: its nodes and their operators.

Every query descriptor in the engine — the leaves (:class:`Stab`,
:class:`Range`, :class:`EndpointRange`, :class:`ClassRange`), the
geometric shapes of :mod:`repro.metablock.geometry`, and the combinator
and modifier nodes themselves — mixes in :class:`AlgebraicQuery`, which
supplies

* the combinator operators ``&`` (:class:`And`), ``|`` (:class:`Or`) and
  ``~`` (:class:`Not`), and
* the modifier constructors :meth:`AlgebraicQuery.limit` and
  :meth:`AlgebraicQuery.order_by`.

The nodes live in this dependency-free module so that the structures
that dispatch on them (the interval manager, the class indexer, the
B+-tree), :mod:`repro.metablock.geometry` and :mod:`repro.engine.queries`
— which re-exports them beside the engine's parameter binding and wire
form — can all import them at module level without an import cycle.

Every node in the algebra also exposes a brute-force ``matches(record)``
oracle, so a composed query can always be evaluated against a plain list of
records — that is what keeps planner-chosen plans testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable, Optional, Tuple, Union


def _serialize_operand(value: Any) -> Any:
    """One field value as wire-safe data (scalars pass, nodes recurse)."""
    if isinstance(value, AlgebraicQuery):
        return value.to_dict()
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):  # Param and other non-algebra node dataclasses
        return to_dict()
    if isinstance(value, (tuple, list)):
        return [_serialize_operand(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ValueError(
        f"operand {value!r} of type {type(value).__name__} is not "
        "wire-serializable; use scalars, Param placeholders or query nodes"
    )


class AlgebraicQuery:
    """Mixin: ``&``/``|``/``~`` combinators plus ``limit``/``order_by``."""

    def __and__(self, other: "AlgebraicQuery") -> Any:
        return And(self, other)

    def __or__(self, other: "AlgebraicQuery") -> Any:
        return Or(self, other)

    def __invert__(self) -> Any:
        return Not(self)

    def limit(self, n: int) -> Any:
        """At most ``n`` records of this query's answer."""
        return Limit(self, n)

    def order_by(
        self,
        key: Optional[Union[str, Callable[[Any], Any]]] = None,
        *,
        reverse: bool = False,
    ) -> Any:
        """This query's answer sorted by ``key`` (attribute name or callable)."""
        return OrderBy(self, key, reverse=reverse)

    def matches(self, record: Any) -> bool:
        """Brute-force oracle: whether ``record`` belongs to the answer."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the matches oracle"
        )

    def to_dict(self) -> dict:
        """This query as plain, JSON-safe data — the wire form.

        Every node serializes to ``{"node": <class name>, <field>: <value>,
        ...}`` with sub-queries recursing and scalar operands passing
        through; :func:`repro.engine.queries.query_from_dict` reverses the
        mapping, and the round-trip preserves both :meth:`signature` and
        :meth:`matches` semantics (the serving protocol's contract).
        Fields excluded from equality (e.g. ``ClassRange.hierarchy``, a
        live object handle) are left out; operands that cannot cross a
        wire — notably callable ``OrderBy`` keys — raise a descriptive
        :class:`ValueError`.
        """
        if not is_dataclass(self):
            raise TypeError(
                f"{type(self).__name__} is not a dataclass node; override to_dict"
            )
        out: dict = {"node": type(self).__name__}
        for f in fields(self):
            if not f.compare:
                # non-identity fields (ClassRange.hierarchy) are process-local
                # context, re-bound on the receiving side — never wire data
                continue
            out[f.name] = _serialize_operand(getattr(self, f.name))
        return out

    def signature(self) -> tuple:
        """Structural cache key: the query's *shape*, scalar operands factored out.

        Two queries with equal signatures are served by the same plan
        strategy — same candidate indexes, same pushdown/residual split —
        differing only in parameter values (range endpoints, stab points).
        The :class:`~repro.engine.planner.QueryPlanner` keys its plan cache
        on this, so ``Stab(3.0)`` and ``Stab(7.0)`` share one cached plan.
        Nodes whose operands select *which* index can serve them (e.g.
        ``EndpointRange.side``) override this to fold those operands in.
        """
        return (type(self).__name__,)


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
# parameters
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Param:
    """A named placeholder for a scalar operand in a prepared query.

    Use it wherever a literal would go — ``Stab(Param("x"))``,
    ``Range(Param("lo"), Param("hi"))`` — then bind concrete values with
    :func:`~repro.engine.queries.bind_params` (what
    ``PreparedQuery.run(**params)`` does).  A parameter never enters a
    query's :meth:`AlgebraicQuery.signature`, so the parameterised query
    shares its cached plan with every concrete instantiation.
    """

    name: str

    def to_dict(self) -> dict:
        """Wire form (placeholders survive serialization unbound)."""
        return {"node": "Param", "name": self.name}


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
