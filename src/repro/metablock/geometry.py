"""Planar points and the query taxonomy of Fig. 1.

The paper's Fig. 1 orders its query classes by generality:

    diagonal corner  ⊂  2-sided  ⊂  3-sided  ⊂  general 2-D range.

* A **diagonal corner query** anchored at ``(q, q)`` asks for all points with
  ``x <= q`` and ``y >= q`` (the quarter plane above and to the left of a
  corner on the line ``x = y``).  Stabbing queries on intervals map to these
  queries (Proposition 2.2).
* A **2-sided query** anchored at ``(a, b)`` asks for ``x <= a, y >= b``.
* A **3-sided query** asks for ``x1 <= x <= x2, y >= y0`` — one of the four
  sides of the rectangle is at infinity.  Class indexing over degenerate
  hierarchies maps to these (Lemma 4.3).

All structures in :mod:`repro.metablock` store :class:`PlanarPoint` records.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, List

from repro.algebra import AlgebraicQuery
from repro.values import check_value, domain_record

#: monotone source of record uids; every constructed point gets a fresh one
_POINT_UIDS = itertools.count()


@domain_record(b"P", ("x", "y", "payload", "uid"))
@dataclass(frozen=True, order=True)
class PlanarPoint:
    """A point ``(x, y)`` with an optional payload (not part of identity order).

    For interval management the point is ``(low, high)`` and therefore lies
    on or above the diagonal ``y = x``; the structures do not require that,
    except where a theorem explicitly assumes it (noted per class).

    Every point carries a ``uid``: a process-unique record identity that is
    preserved by (de)serialization.  Where a query may read one record from
    two organisations (a TD structure and the metablock the point lives
    in) it deduplicates by uid — object identity is not sufficient on
    storage backends that round-trip pages through a file.
    """

    x: Any
    y: Any
    payload: Any = field(default=None, compare=False)
    uid: int = field(
        default_factory=lambda: next(_POINT_UIDS), compare=False, repr=False
    )

    def __post_init__(self) -> None:
        check_value(self.x, "a coordinate", finite=False)
        check_value(self.y, "a coordinate", finite=False)
        check_value(self.payload)

    def as_tuple(self) -> tuple:
        return (self.x, self.y)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.x}, {self.y})"


@dataclass(frozen=True)
class DiagonalCornerQuery(AlgebraicQuery):
    """``x <= corner`` and ``y >= corner`` — corner anchored on ``x = y``."""

    corner: Any

    def matches(self, point: PlanarPoint) -> bool:
        return point.x <= self.corner and point.y >= self.corner

    def filter(self, points: Iterable[PlanarPoint]) -> List[PlanarPoint]:
        """Brute-force evaluation (the correctness oracle)."""
        return [p for p in points if self.matches(p)]


@dataclass(frozen=True)
class TwoSidedQuery(AlgebraicQuery):
    """``x <= x_max`` and ``y >= y_min`` (corner anywhere)."""

    x_max: Any
    y_min: Any

    def matches(self, point: PlanarPoint) -> bool:
        return point.x <= self.x_max and point.y >= self.y_min

    def filter(self, points: Iterable[PlanarPoint]) -> List[PlanarPoint]:
        return [p for p in points if self.matches(p)]


@dataclass(frozen=True)
class ThreeSidedQuery(AlgebraicQuery):
    """``x1 <= x <= x2`` and ``y >= y0``."""

    x1: Any
    x2: Any
    y0: Any

    def __post_init__(self) -> None:
        if self.x2 < self.x1:
            raise ValueError(f"three-sided query has empty x-range [{self.x1}, {self.x2}]")

    def matches(self, point: PlanarPoint) -> bool:
        return self.x1 <= point.x <= self.x2 and point.y >= self.y0

    def filter(self, points: Iterable[PlanarPoint]) -> List[PlanarPoint]:
        return [p for p in points if self.matches(p)]


@dataclass(frozen=True)
class RangeQuery(AlgebraicQuery):
    """A general two-dimensional range query ``x1<=x<=x2, y1<=y<=y2``."""

    x1: Any
    x2: Any
    y1: Any
    y2: Any

    def matches(self, point: PlanarPoint) -> bool:
        return self.x1 <= point.x <= self.x2 and self.y1 <= point.y <= self.y2

    def filter(self, points: Iterable[PlanarPoint]) -> List[PlanarPoint]:
        return [p for p in points if self.matches(p)]


@dataclass
class BoundingBox:
    """Axis-aligned minimum bounding rectangle of a point set."""

    min_x: Any
    max_x: Any
    min_y: Any
    max_y: Any

    @classmethod
    def of(cls, points: Iterable[PlanarPoint]) -> "BoundingBox":
        pts = list(points)
        if not pts:
            raise ValueError("bounding box of an empty point set")
        return cls(
            min_x=min(p.x for p in pts),
            max_x=max(p.x for p in pts),
            min_y=min(p.y for p in pts),
            max_y=max(p.y for p in pts),
        )

    def contains_x(self, x: Any) -> bool:
        return self.min_x <= x <= self.max_x

    def crosses_horizontal(self, y: Any) -> bool:
        """Whether the horizontal line at ``y`` crosses the box interior."""
        return self.min_y <= y <= self.max_y

    def entirely_above(self, y: Any) -> bool:
        return self.min_y >= y

    def entirely_below(self, y: Any) -> bool:
        return self.max_y < y

    def entirely_left_of(self, x: Any) -> bool:
        return self.max_x <= x

    def entirely_right_of(self, x: Any) -> bool:
        return self.min_x > x

