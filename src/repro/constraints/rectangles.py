"""The rectangle-intersection workload of Example 2.1.

The paper motivates CQLs with a database of rectangles stored as generalized
tuples ``(z = name) AND (a <= x <= c) AND (b <= y <= d)`` over the ternary
relation ``R'(z, x, y)``: the pairs of intersecting rectangles are then
expressible without the case analysis that the classical relational
formulation needs.

This module provides the tuple constructor and a closed-form evaluation of
the intersection query using the generalized one-dimensional index on ``x``
(plus a satisfiability check on the conjunction over ``y``), which is what
experiment E10 measures against a full scan.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Tuple

from repro.constraints.relation import GeneralizedRelation
from repro.constraints.terms import Constraint, GeneralizedTuple, Variable


def rectangle_tuple(name: Any, a: float, b: float, c: float, d: float) -> GeneralizedTuple:
    """The generalized tuple for the rectangle with corners ``(a, b)`` and ``(c, d)``.

    Mirrors Example 2.1: ``(z = name) AND (a <= x <= c) AND (b <= y <= d)``.
    The ``z = name`` conjunct is carried as the tuple's ``name`` (a constant
    equality on a non-ordered column) so the ordered-theory machinery only
    sees ``x`` and ``y``.
    """
    if c < a or d < b:
        raise ValueError("rectangle corners are out of order")
    x, y = Variable("x"), Variable("y")
    return GeneralizedTuple(
        [
            Constraint(x, ">=", a),
            Constraint(x, "<=", c),
            Constraint(y, ">=", b),
            Constraint(y, "<=", d),
        ],
        name=name,
    )


def rectangle_relation(rectangles: Iterable[Tuple[Any, float, float, float, float]]) -> GeneralizedRelation:
    """Build the generalized relation R'(z, x, y) for a set of rectangles."""
    tuples = [rectangle_tuple(*rect) for rect in rectangles]
    return GeneralizedRelation(["x", "y"], tuples, name="rectangles")


def tuples_intersect(first: GeneralizedTuple, second: GeneralizedTuple) -> bool:
    """Whether two convex generalized tuples share a point (conjunction satisfiable)."""
    return GeneralizedTuple(first.constraints + second.constraints).is_satisfiable()


def intersecting_pairs(
    relation: GeneralizedRelation, index=None
) -> List[Tuple[Any, Any]]:
    """All pairs of distinct, intersecting rectangles (Example 2.1).

    When ``index`` (a :class:`~repro.constraints.index.
    GeneralizedOneDimensionalIndex` over ``x``) is provided, each rectangle
    only probes the tuples whose x-projection intersects its own — the
    indexed evaluation the paper advocates.  Without it, all pairs are
    checked (the naive evaluation used as a baseline).

    A rectangle is identified by its name (the ``z = name`` conjunct), not
    by object identity: a page store hands the index's candidates back as
    decoded copies.
    """
    pairs: List[Tuple[Any, Any]] = []
    seen = set()
    for gt in relation.tuples:
        if index is not None:
            low, high = gt.projection("x")
            candidates = index.candidate_tuples(low, high)
        else:
            candidates = relation.tuples
        for other in candidates:
            if other.name == gt.name:
                continue
            key = frozenset((gt.name, other.name))
            if key in seen:
                continue
            seen.add(key)
            if tuples_intersect(gt, other):
                pairs.append((gt.name, other.name))
    return pairs
