"""Closed-form I/O cost predictions for the paper's bounds.

The benchmarks and the bound checks compare every measured I/O count
against the corresponding bound evaluated by these helpers; the
reproduction claims the *shape*
(constant ``measured / bound`` ratios as ``n``, ``B``, ``c`` and ``t``
grow), not specific constants.  :class:`Bound` carries one of them with
its formula: what a structure's ``cost(q)`` returns and the planner
compares (re-exported as :class:`repro.engine.protocols.Bound`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence


def log_b(n: float, b: float) -> float:
    """``log_B n``, clamped below by 1 so ratios stay finite for tiny inputs."""
    if n <= 1 or b <= 1:
        return 1.0
    return max(1.0, math.log(n, b))


def log2(n: float) -> float:
    if n <= 1:
        return 1.0
    return max(1.0, math.log2(n))


def btree_query_bound(n: int, b: int, t: int = 0) -> float:
    """B+-tree range search: ``log_B n + t/B`` (Section 1.1)."""
    return log_b(n, b) + t / b


def metablock_query_bound(n: int, b: int, t: int = 0) -> float:
    """Metablock tree diagonal corner query: ``log_B n + t/B`` (Theorem 3.2)."""
    return log_b(n, b) + t / b


def metablock_insert_bound(n: int, b: int) -> float:
    """Amortized metablock insert: ``log_B n + (log_B n)^2 / B`` (Theorem 3.7)."""
    lb = log_b(n, b)
    return lb + (lb * lb) / b


def three_sided_query_bound(n: int, b: int, t: int = 0) -> float:
    """3-sided metablock variant: ``log_B n + log2 B + t/B`` (Lemma 4.4)."""
    return log_b(n, b) + log2(b) + t / b


def external_pst_query_bound(n: int, b: int, t: int = 0) -> float:
    """Blocked priority search tree: ``log2 n + t/B`` (Lemma 4.1)."""
    return log2(n) + t / b


def simple_class_query_bound(n: int, b: int, c: int, t: int = 0) -> float:
    """Theorem 2.6 query bound: ``log2 c · log_B n + t/B``."""
    return log2(c) * log_b(n, b) + t / b


def combined_class_query_bound(n: int, b: int, t: int = 0) -> float:
    """Theorem 4.7 query bound: ``log_B n + log2 B + t/B``."""
    return log_b(n, b) + log2(b) + t / b


def simple_class_space_bound(n: int, b: int, c: int) -> float:
    """Theorem 2.6 space bound in blocks: ``(n/B) · log2 c``."""
    return (n / b) * log2(c)


def linear_space_bound(n: int, b: int) -> float:
    """``n / B`` blocks (the optimal space bound)."""
    return max(1.0, n / b)


#: dead records a tombstoning structure tolerates, as a fraction of the live
REBUILD_FRACTION = 0.5


def rebuild_due(dead: int, live: int, block_size: int) -> bool:
    """The shared global-rebuilding trigger: rebuild once ``dead`` records
    (tombstones) exceed ``max(B, REBUILD_FRACTION * live)``.

    This is the classic dynamization constant: a rebuild costs
    ``O((n/B) log_B n)`` work amortized over the ``Θ(REBUILD_FRACTION · n)``
    deletes since the last one (``O(log_B n)`` I/Os each), and space stays
    within ``1 + REBUILD_FRACTION`` of optimal.  The ``B`` floor keeps tiny
    structures from rebuilding on every delete.  Its one caller is
    :class:`~repro.rebuilding.RebuildingIndex`, the global-rebuilding core
    every tombstoning index (interval manager, class indexer, point index)
    wraps, so there is one policy to gate.
    """
    return dead > max(block_size, REBUILD_FRACTION * max(live, 1))


def bound_ratio(measured: Sequence[float], predicted: Sequence[float]) -> float:
    """The largest measured/predicted ratio across a sweep.

    A reproduction of an ``O(f)`` claim succeeds when this ratio stays
    bounded (does not trend upward) as the sweep parameter grows.
    """
    ratios = [m / p for m, p in zip(measured, predicted) if p > 0]
    return max(ratios) if ratios else 0.0


def ratio_trend(measured: Sequence[float], predicted: Sequence[float]) -> float:
    """Last-to-first ratio of ``measured/predicted`` across a sweep.

    Values close to (or below) 1 indicate the measured cost grows no faster
    than the predicted bound; values much larger than 1 indicate the bound is
    being outgrown.
    """
    ratios = [m / p for m, p in zip(measured, predicted) if p > 0]
    if len(ratios) < 2 or ratios[0] == 0:
        return 1.0
    return ratios[-1] / ratios[0]


@dataclass(frozen=True)
class Bound:
    """A predicted I/O bound: a formula from the paper plus its evaluation.

    ``pages`` is the output-independent part of the bound (the formula at
    ``t = 0``, e.g. the ``log_B n`` search cost) — it is what the planner
    compares when choosing among candidate plans, since the output size is
    unknown before execution.  ``at(t)`` evaluates the full formula at
    output size ``t``; equality and hashing ignore it so plans built for the
    same query compare equal.
    """

    formula: str
    pages: float
    at: Optional[Callable[[int], float]] = field(default=None, compare=False, repr=False)

    def __call__(self, t: int = 0) -> float:
        """Predicted I/Os at output size ``t``."""
        if self.at is None:
            return self.pages
        return self.at(t)

    @classmethod
    def of(cls, formula: str, fn: Callable[[int], float]) -> "Bound":
        """Build a bound from a ``t -> pages`` function (``pages = fn(0)``)."""
        return cls(formula, fn(0), fn)

    def __add__(self, other: "Bound") -> "Bound":
        """Sum of two bounds (union plans execute both sides)."""
        if not isinstance(other, Bound):
            return NotImplemented
        left, right = self, other
        return Bound(
            f"{left.formula} + {right.formula}",
            left.pages + right.pages,
            at=lambda t: left(t) + right(t),
        )
