"""Naive interval index: an unordered list scanned on every query.

This is the "trivial, but inefficient, solution" of Section 2.1 — add the
query constraint to every tuple / scan the whole generalized relation.  It
is the correctness oracle the interval-manager and engine tests compare
against (it lived in ``repro.incore`` until PR 17; nothing in the package
used it).
"""

from __future__ import annotations

from typing import Any, Iterable, List

from repro.interval import Interval


class NaiveIntervalIndex:
    """A linear-scan interval collection.

    Query time is ``O(n)`` regardless of output size; insertion and deletion
    are ``O(1)`` / ``O(n)``.
    """

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._intervals: List[Interval] = list(intervals)

    # -- updates --------------------------------------------------------- #
    def insert(self, interval: Interval) -> None:
        self._intervals.append(interval)

    def delete(self, interval: Interval) -> bool:
        """Remove one occurrence of ``interval``; returns ``True`` if found."""
        try:
            self._intervals.remove(interval)
            return True
        except ValueError:
            return False

    # -- queries --------------------------------------------------------- #
    def stabbing_query(self, x: Any) -> List[Interval]:
        """All intervals containing the point ``x``."""
        return [iv for iv in self._intervals if iv.contains(x)]

    def intersection_query(self, low: Any, high: Any) -> List[Interval]:
        """All intervals intersecting ``[low, high]``."""
        return [iv for iv in self._intervals if iv.intersects_range(low, high)]

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self):
        return iter(self._intervals)
