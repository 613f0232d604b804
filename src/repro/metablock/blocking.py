"""Horizontally and vertically oriented blockings (Fig. 9).

A metablock stores its ``O(B^2)`` points twice:

* a **vertically oriented** blocking — points sorted by x, packed into
  blocks of ``B`` left to right,
* a **horizontally oriented** blocking — points sorted by y (descending),
  packed into blocks of ``B`` top to bottom.

Each data point therefore appears in two blocks inside its metablock, which
doubles the constant but keeps the total space at ``O(n/B)`` blocks
(Section 3.1).  This module provides the two blockings plus the scan
primitives the query procedures use ("read blocks until the boundary of the
query is crossed, wasting at most one block").
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.io.disk import Block, BlockId
from repro.metablock.geometry import PlanarPoint


class Blocking:
    """A sequence of disk blocks holding a fixed ordering of points.

    Attributes
    ----------
    block_ids:
        The blocks, in scan order.
    bounds:
        Per block, the (first, last) ordering-key values it contains, kept
        as control information so scans know where to stop without an extra
        read (the paper keeps the same information in each metablock's
        constant-size control blocks).
    """

    def __init__(self, block_ids: List[BlockId], bounds: List[Tuple[Any, Any]]) -> None:
        self.block_ids = block_ids
        self.bounds = bounds

    def __len__(self) -> int:
        return len(self.block_ids)

    def free(self, disk) -> None:
        for bid in self.block_ids:
            disk.free(bid)
        self.block_ids = []
        self.bounds = []


def build_vertical(disk, points: Sequence[PlanarPoint]) -> Blocking:
    """Pack ``points`` into blocks of ``B`` by ascending x (Fig. 9a)."""
    ordered = sorted(points, key=lambda p: (p.x, p.y))
    return _pack(disk, ordered, key=lambda p: p.x)


def build_horizontal(disk, points: Sequence[PlanarPoint]) -> Blocking:
    """Pack ``points`` into blocks of ``B`` by descending y (Fig. 9b)."""
    ordered = sorted(points, key=lambda p: (-_as_sortable(p.y), p.x))
    return _pack(disk, ordered, key=lambda p: p.y)


def _as_sortable(value: Any) -> Any:
    return value


def _pack(disk, ordered: List[PlanarPoint], key) -> Blocking:
    B = disk.block_size
    block_ids: List[BlockId] = []
    bounds: List[Tuple[Any, Any]] = []
    for start in range(0, len(ordered), B):
        chunk = ordered[start : start + B]
        block = disk.allocate(records=list(chunk))
        block_ids.append(block.block_id)
        bounds.append((key(chunk[0]), key(chunk[-1])))
    return Blocking(block_ids, bounds)


class Hits:
    """What one query has reported so far, and in which form it wants hits.

    A point may sit in several organisations a query reads (a metablock's
    blockings, its update block, an ancestor's TD structure); ``seen``
    holds the uids already handed up, so each scan drops repeats a block at
    a time.  With ``payloads`` the scans hand up what the points carry
    instead of the points — a stabbing query wants the intervals, and on a
    page store the points then never get built.
    """

    __slots__ = ("seen", "payloads")

    def __init__(self, payloads: bool = False) -> None:
        self.seen: set = set()
        self.payloads = payloads

    def fresh(self, points: Iterable[PlanarPoint]) -> List[Any]:
        """The not-yet-reported of ``points`` (now reported), in hit form."""
        seen = self.seen
        out: List[Any] = []
        if self.payloads:
            for p in points:
                if p.uid not in seen:
                    seen.add(p.uid)
                    out.append(p.payload)
        else:
            for p in points:
                if p.uid not in seen:
                    seen.add(p.uid)
                    out.append(p)
        return out


def select(
    block: Block,
    hits: Optional[Hits] = None,
    x_max: Any = None,
    y_min: Any = None,
    x_gt: Any = None,
) -> List[Any]:
    """The points of ``block`` with ``x_gt < x <= x_max`` and ``y >= y_min``.

    A side left ``None`` is unconstrained (``x_gt`` needs the other two).
    On a block that still holds its page's columns the test runs over the
    packed coordinate columns and only the rows that pass — and, with
    ``hits``, were not reported before — are materialised.
    """
    columns = block.columns
    xs, ys = getattr(columns, "xs", None), getattr(columns, "ys", None)
    if type(xs) is not tuple or type(ys) is not tuple:
        # an in-memory block, or coordinates no packed column could hold
        records = block.records
        if x_gt is not None:
            found = [p for p in records if x_gt < p.x <= x_max and p.y >= y_min]
        elif x_max is None:
            found = records if y_min is None else [p for p in records if p.y >= y_min]
        elif y_min is None:
            found = [p for p in records if p.x <= x_max]
        else:
            found = [p for p in records if p.x <= x_max and p.y >= y_min]
        if hits is not None:
            return hits.fresh(found)
        # never the block's own list: that one stays the block's to mutate
        return list(found) if found is records else found
    rows: Sequence[int]
    if x_gt is not None:
        rows = [i for i, x in enumerate(xs) if x_gt < x <= x_max and ys[i] >= y_min]
    elif x_max is None:
        rows = range(len(ys)) if y_min is None else [i for i, y in enumerate(ys) if y >= y_min]
    elif y_min is None:
        rows = [i for i, x in enumerate(xs) if x <= x_max]
    else:
        rows = [i for i, x in enumerate(xs) if x <= x_max and ys[i] >= y_min]
    if hits is None:
        return block.take(columns, rows)
    seen, uids = hits.seen, columns.uids
    new = [i for i in rows if uids[i] not in seen]
    seen.update([uids[i] for i in new])
    return block.take(columns, new, payloads=hits.payloads)


def scan_vertical_upto(
    disk, blocking: Blocking, x_max: Any, y_min: Any = None, hits: Optional[Hits] = None
) -> Tuple[List[Any], int]:
    """Read vertical blocks left-to-right while they may contain ``x <= x_max``.

    Returns the matching points (those with ``y >= y_min`` too, when given)
    and the number of blocks read.  At most one block read contains no
    matching point (the one that crosses ``x_max``), which is the "at most
    one block that is not completely full" accounting of Theorem 3.2.  A
    block whose last x is inside the query matches whole on that side, so
    only the crossing block is tested value by value.
    """
    out: List[Any] = []
    reads = 0
    for bid, (first_x, last_x) in zip(blocking.block_ids, blocking.bounds):
        if first_x > x_max:
            break
        block = disk.read(bid)
        reads += 1
        out.extend(select(block, hits, None if last_x <= x_max else x_max, y_min))
    return out, reads


def scan_horizontal_downto(
    disk, blocking: Blocking, y_min: Any, x_max: Any = None, hits: Optional[Hits] = None
) -> Tuple[List[Any], int]:
    """Read horizontal blocks top-to-bottom while they may contain ``y >= y_min``
    (reporting, when ``x_max`` is given, only the points with ``x <= x_max``)."""
    out: List[Any] = []
    reads = 0
    for bid, (first_y, last_y) in zip(blocking.block_ids, blocking.bounds):
        if first_y < y_min:
            break
        block = disk.read(bid)
        reads += 1
        out.extend(select(block, hits, x_max, None if last_y >= y_min else y_min))
    return out, reads
