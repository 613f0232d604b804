"""The interval record type shared by every interval-management structure.

Section 2.1 reduces indexing of convex constraint tuples to *dynamic
interval management*: each generalized tuple projects onto the indexed
attribute as one closed interval ``[low, high]``, which becomes that
tuple's *generalized key*.  :class:`Interval` is that key, optionally
carrying a payload (the tuple, the object identifier, ...).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.values import check_value, domain_record

#: monotone source of record uids; every constructed interval gets a fresh one
_INTERVAL_UIDS = itertools.count()


@domain_record(b"I", ("low", "high", "payload", "uid"))
@dataclass(frozen=True, order=True)
class Interval:
    """A closed interval ``[low, high]`` with an optional payload.

    The ordering (by ``low`` then ``high``) is the one used by the B+-tree
    component of the interval manager; the payload does not participate in
    comparisons.

    Every interval carries a ``uid``: a process-unique record identity that
    survives (de)serialization (the page codec stores it as a field).  The query
    planner's union plans deduplicate by it, so the *same* stored record
    reached through two physical indexes is reported once while two
    value-identical records stay two records.
    """

    low: Any
    high: Any
    payload: Any = field(default=None, compare=False)
    uid: int = field(
        default_factory=lambda: next(_INTERVAL_UIDS), compare=False, repr=False
    )

    def __post_init__(self) -> None:
        # a NaN endpoint fails here, before the order test could miss it
        check_value(self.low, "an endpoint", finite=False)
        check_value(self.high, "an endpoint", finite=False)
        check_value(self.payload)
        if not self.low <= self.high:
            raise ValueError(f"interval endpoints out of order: [{self.low}, {self.high}]")

    # ------------------------------------------------------------------ #
    # predicates
    # ------------------------------------------------------------------ #
    def contains(self, x: Any) -> bool:
        """Whether the point ``x`` stabs this interval."""
        return self.low <= x <= self.high

    def intersects(self, other: "Interval") -> bool:
        """Whether this interval shares at least one point with ``other``."""
        return self.low <= other.high and other.low <= self.high

    def intersects_range(self, low: Any, high: Any) -> bool:
        """Whether this interval shares at least one point with ``[low, high]``."""
        return self.low <= high and low <= self.high

    @property
    def length(self) -> Any:
        return self.high - self.low

    def as_point(self) -> tuple:
        """The point ``(low, high)`` used by the stabbing-to-corner reduction.

        Mapping an interval ``[y1, y2]`` to the planar point ``(y1, y2)``
        places it on or above the line ``y = x``; a stabbing query at ``q``
        becomes the diagonal-corner query anchored at ``(q, q)``
        (Proposition 2.2, Fig. 3).
        """
        return (self.low, self.high)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.payload is None:
            return f"[{self.low}, {self.high}]"
        return f"[{self.low}, {self.high}]@{self.payload!r}"


def fresh_interval_uid() -> int:
    """The next process-unique interval uid (what a new ``Interval`` gets)."""
    return next(_INTERVAL_UIDS)


def trusted_interval(
    low: Any, high: Any, payload: Any, uid: int, _new: Any = object.__new__
) -> Interval:
    """An :class:`Interval` built field by field, skipping ``__init__``.

    For decoders only — the page codec and the wire row decoder — whose
    input was already validated (a checksummed page written from validated
    records; a row whose endpoints were just checked): the frozen dataclass
    ``__init__`` costs four ``object.__setattr__`` calls and an
    endpoint-order check per record, which on a 200-record reply is most
    of the decode.
    """
    record = _new(Interval)
    fields = record.__dict__
    fields["low"] = low
    fields["high"] = high
    fields["payload"] = payload
    fields["uid"] = uid
    return record


def intervals_intersecting(intervals, low: Any, high: Any) -> list:
    """Brute-force reference: all intervals intersecting ``[low, high]``."""
    return [iv for iv in intervals if iv.intersects_range(low, high)]


def intervals_stabbed(intervals, x: Any) -> list:
    """Brute-force reference: all intervals containing the point ``x``."""
    return [iv for iv in intervals if iv.contains(x)]
