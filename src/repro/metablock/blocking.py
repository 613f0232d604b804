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

from typing import Any, List, Optional, Sequence, Tuple

from repro.io.disk import Batch, BlockId, Page, column_values
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
    ordered = sorted(points, key=lambda p: (-p.y, p.x))
    return _pack(disk, ordered, key=lambda p: p.y)


def _pack(disk, ordered: List[PlanarPoint], key) -> Blocking:
    B = disk.block_size
    block_ids: List[BlockId] = []
    bounds: List[Tuple[Any, Any]] = []
    for start in range(0, len(ordered), B):
        chunk = ordered[start : start + B]
        block = disk.allocate(records=chunk)
        block_ids.append(block.block_id)
        bounds.append((key(chunk[0]), key(chunk[-1])))
    return Blocking(block_ids, bounds)


class Hits:
    """What one query has reported so far, and in which form it wants hits.

    With ``track``, ``seen`` holds the uids already handed up and each scan
    drops repeats; without, it is ``None`` and nothing is remembered.  A
    query tracks only when it may read one point from two sources.  In the
    diagonal-corner walk only a TD structure can repeat a point: it copies
    points that also live in the metablocks below it.  No other pair of
    sources the walk reads can — a metablock is read through exactly one
    of its blockings or its corner structure (whose two stages are disjoint
    in x), a point lives in exactly one metablock's points or pending list,
    and TS(M) is read *instead of* the left siblings whose points it holds.
    The 3-sided walk keeps the same contract (see
    :mod:`~repro.metablock.three_sided`).
    With ``payloads`` the scans hand up what the points carry instead of
    the points — a stabbing query wants the intervals, and on a page store
    the points then never get built.
    """

    __slots__ = ("seen", "payloads")

    def __init__(self, payloads: bool = False, track: bool = True) -> None:
        self.seen: Optional[set] = set() if track else None
        self.payloads = payloads

    def fresh(self, points: Sequence[PlanarPoint]) -> List[Any]:
        """The not-yet-reported of ``points`` (now reported), in hit form,
        in a new list."""
        seen = self.seen
        if seen is not None:
            # ``set.add`` returns None: a uid passes once, the first time
            points = [p for p in points if not (p.uid in seen or seen.add(p.uid))]
        return [p.payload for p in points] if self.payloads else list(points)


def select(
    page: Page,
    hits: Optional[Hits] = None,
    x_max: Any = None,
    y_min: Any = None,
    x_gt: Any = None,
) -> Batch:
    """The points of ``page`` with ``x_gt < x <= x_max`` and ``y >= y_min``,
    as a :class:`~repro.io.disk.Batch` of the page's matching rows.

    A side left ``None`` is unconstrained (``x_gt`` needs the other two);
    with none the page matches whole and goes up with no per-row test.
    The test runs over the page's coordinate columns, and the rows that
    pass — and, with ``hits``, were not reported before — stay unbuilt
    until someone asks for records.
    """
    columns = page.columns
    xs, ys = column_values(columns.xs), column_values(columns.ys)
    rows: Optional[Sequence[int]]
    if x_gt is not None:
        rows = [i for i, x in enumerate(xs) if x_gt < x <= x_max and ys[i] >= y_min]
    elif x_max is None:
        rows = None if y_min is None else [i for i, y in enumerate(ys) if y >= y_min]
    elif y_min is None:
        rows = [i for i, x in enumerate(xs) if x <= x_max]
    else:
        rows = [i for i, x in enumerate(xs) if x <= x_max and ys[i] >= y_min]
    return _take_fresh(page, hits, rows)


def select_above(
    page: Page, hits: Optional[Hits], y_min: Any, x_min: Any = None, x_max: Any = None
) -> Tuple[Batch, int]:
    """The points of ``page`` with ``y >= y_min`` and ``x_min <= x <= x_max``
    (a side left ``None`` is unconstrained), for a page that stores its
    points by descending y — a PST node, a horizontal block.

    The y test is a prefix: it stops at the first point below ``y_min``,
    and with neither x side the prefix goes up whole.  Returns the batch
    (see :func:`select`) and the length of that prefix, so a caller knows
    whether the page dipped below the query (``< page.count``).
    """
    columns = page.columns
    ys = column_values(columns.ys)
    k = len(ys)
    if k and ys[-1] < y_min:
        k = 0
        for y in ys:
            if y < y_min:
                break
            k += 1
    rows: Optional[Sequence[int]]
    if x_max is not None:
        xs = column_values(columns.xs)
        if x_min is None:
            rows = [i for i in range(k) if xs[i] <= x_max]
        else:
            rows = [i for i in range(k) if x_min <= xs[i] <= x_max]
    elif x_min is not None:
        xs = column_values(columns.xs)
        rows = [i for i in range(k) if x_min <= xs[i]]
    else:
        rows = None if k == len(ys) else range(k)
    return _take_fresh(page, hits, rows), k


def _take_fresh(page: Page, hits: Optional[Hits], rows: Optional[Sequence[int]]) -> Batch:
    """Rows ``rows`` of ``page`` (``None`` for all) as a batch in ``hits``'
    form, less those ``hits`` has reported (which are reported now)."""
    if hits is None:
        return page.take(rows)
    seen = hits.seen
    if seen is not None:
        # ``set.add`` returns None: a uid passes once, the first time
        uids = column_values(page.columns.uids)
        rows = [
            i for i in (range(len(uids)) if rows is None else rows)
            if not (uids[i] in seen or seen.add(uids[i]))
        ]
    return page.take(rows, payloads=hits.payloads)


def scan_vertical_upto(
    disk, blocking: Blocking, x_max: Any, y_min: Any = None, hits: Optional[Hits] = None
) -> Tuple[List[Any], int]:
    """Read vertical blocks left-to-right while they may contain ``x <= x_max``.

    Returns the matching points (those with ``y >= y_min`` too, when given)
    as one batch per block read (see :func:`select`), and the number of
    blocks read.  At most one block read contains no matching point (the
    one that crosses ``x_max``), which is the "at most one block that is
    not completely full" accounting of Theorem 3.2.  A block whose last x
    is inside the query matches whole on that side, so only the crossing
    block is tested value by value.  ``bounds`` names the blocks to read
    before any is read, so they are read as one run.
    """
    bounds = blocking.bounds
    k = 0
    while k < len(bounds) and bounds[k][0] <= x_max:
        k += 1
    return [
        select(block, hits, None if last_x <= x_max else x_max, y_min)
        for block, (_, last_x) in zip(disk.read_run(blocking.block_ids[:k]), bounds)
    ], k


def scan_horizontal_downto(
    disk, blocking: Blocking, y_min: Any, hits: Optional[Hits] = None,
    x_min: Any = None, x_max: Any = None,
) -> Tuple[List[Any], int]:
    """Read horizontal blocks top-to-bottom while they may contain ``y >= y_min``,
    as one run; one batch per block read (see :func:`select_above`), of the
    points with ``x_min <= x <= x_max`` too, a side left ``None``
    unconstrained.  The diagonal-corner walk needs no x side: it scans only
    blockings whose every x is inside its query (a Type III / IV metablock,
    an explicit corner answer, a TS structure)."""
    bounds = blocking.bounds
    k = 0
    while k < len(bounds) and bounds[k][0] >= y_min:
        k += 1
    return [
        select_above(block, hits, y_min, x_min, x_max)[0]
        for block in disk.read_run(blocking.block_ids[:k])
    ], k
