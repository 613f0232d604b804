"""The corner structure of Lemma 3.1.

A corner structure stores a set ``S`` of at most ``O(B^2)`` points so that a
diagonal corner query on ``S`` costs at most ``2t/B + O(1)`` I/Os while the
structure occupies ``O(|S|/B)`` blocks.

Construction (Section 3.1, Figs. 11–12):

1. Build a vertically oriented blocking of ``S`` (``|S|/B`` blocks).
2. Let ``C`` be the corner candidates: the x-values where the right
   boundaries of the vertical blocks meet the diagonal ``y = x``.
3. Choose a subset ``C* ⊆ C`` greedily from upper-right to lower-left.  The
   first element is the left boundary of the rightmost block.  A candidate
   ``c_i`` is promoted into ``C*`` exactly when
   ``|Δ−_i| + |Δ+_i| > |S_i|`` — i.e. when a query cornered at ``c_i`` could
   *not* be amortized against already-blocked answers.  Here ``c_j`` is the
   last corner promoted, ``S_i = {x <= c_i, y >= c_i}``,
   ``Δ+_i = {x <= c_i, c_i <= y < c_j}`` and ``Δ−_i = {c_i < x <= c_j}``.
   One x-sorted copy of ``S`` decides every candidate: ``|Δ−_i|`` is a
   difference of two prefix lengths (two bisections), and as ``Δ+_i ⊆ S_i``
   the test reads ``|Δ−_i| > |S_i| − |Δ+_i|``, the points of the
   ``x <= c_i`` prefix with ``y >= c_j`` — one pass over that prefix.
4. For every ``c* ∈ C*`` store the full answer ``S*(c*) = {x <= c*, y >= c*}``
   explicitly, as a horizontally oriented blocking.

Querying at a corner ``c`` locates the largest explicit corner ``e <= c``
through a constant-size index block, then reads (stage 1) the explicit
answer ``S*(e)`` top-down until the query bottom is crossed and (stage 2)
the vertical blocks strictly between ``e`` and ``c`` (Figs. 13–14).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from operator import attrgetter
from typing import Any, List, Optional, Sequence, Tuple

from repro.io.disk import BlockId
from repro.metablock import blocking as blk
from repro.metablock.geometry import PlanarPoint


class CornerStructure:
    """Explicitly blocked diagonal-corner answers for one metablock."""

    def __init__(self, disk, points: Sequence[PlanarPoint]) -> None:
        self.disk = disk
        self._points = list(points)
        self._vertical: Optional[blk.Blocking] = None
        #: explicit corners, sorted descending, each with its horizontal blocking
        self._explicit: List[Tuple[Any, blk.Blocking]] = []
        self._index_block_id: Optional[BlockId] = None
        self._build()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        points = self._points
        if not points:
            return
        self._vertical = blk.build_vertical(self.disk, points)

        # Candidate corners: right boundaries of the vertical blocks, scanned
        # from upper-right to lower-left.  The first explicit corner is the
        # left boundary of the rightmost block.
        bounds = self._vertical.bounds
        rightmost_left_boundary = bounds[-1][0]
        candidates = sorted({b[1] for b in bounds[:-1]}, reverse=True)
        candidates = [c for c in candidates if c < rightmost_left_boundary]

        # Step 3 in one x-sorted copy (see the module docstring): the points
        # at x <= c are a prefix of it.
        by_x = sorted(points, key=attrgetter("x"))
        xs = [p.x for p in by_x]
        ys = [p.y for p in by_x]
        explicit_corners: List[Any] = [rightmost_left_boundary]
        for c in candidates:
            cj = explicit_corners[-1]
            prefix = bisect_right(xs, c)
            delta_minus = bisect_right(xs, cj) - prefix
            if delta_minus > len([y for y in ys[:prefix] if y >= cj]):
                explicit_corners.append(c)

        for corner in explicit_corners:
            # the sort is stable: tied points keep their input order, which
            # the horizontal blocking's own stable sort then keeps
            answer = [p for p in by_x[: bisect_right(xs, corner)] if p.y >= corner]
            if answer:
                blocking = blk.build_horizontal(self.disk, answer)
            else:
                blocking = blk.Blocking([], [])
            self._explicit.append((corner, blocking))

        # A constant-size index: |C| <= |S|/B <= 2B entries, kept in one
        # (slightly wider) control block, as in the proof of Lemma 3.1.
        index_records = [corner for corner, _ in self._explicit]
        index_block = self.disk.allocate(
            records=index_records,
            capacity=max(self.disk.block_size, 2 * len(index_records) + 2),
        )
        self._index_block_id = index_block.block_id

    # ------------------------------------------------------------------ #
    # query
    # ------------------------------------------------------------------ #
    def query(self, corner: Any) -> Tuple[List[PlanarPoint], int]:
        """Answer a diagonal corner query anchored at ``(corner, corner)``.

        Returns ``(points, ios)`` where ``ios`` counts the block reads
        performed by this call (also reflected in the disk counters).
        """
        batches, ios = self.batches(corner)
        return list(chain.from_iterable(batches)), ios

    def batches(
        self, corner: Any, hits: Optional[blk.Hits] = None
    ) -> Tuple[List[Any], int]:
        """:meth:`query`'s answer as one batch per block read (see
        :func:`~repro.metablock.blocking.select`).  With ``hits`` (see
        :class:`~repro.metablock.blocking.Hits`) the answer leaves out what
        the caller's query already reported and comes in the form ``hits``
        asks for."""
        if not self._points:
            return [], 0
        ios = 0
        # read the index block to locate the two consecutive explicit corners
        self.disk.read(self._index_block_id)
        ios += 1

        explicit_corner = None
        explicit_blocking = None
        for value, blocking in self._explicit:  # sorted descending
            if value <= corner:
                explicit_corner = value
                explicit_blocking = blocking
                break

        out: List[Any] = []

        # Stage 1: the explicitly blocked answer for the corner just below,
        # scanned top-down until the bottom of the query is crossed.
        if explicit_blocking is not None:
            out, reads = blk.scan_horizontal_downto(
                self.disk, explicit_blocking, corner, hits=hits
            )
            ios += reads

        # Stage 2: vertical blocks strictly to the right of the explicit
        # corner, up to the block containing the query corner — one run,
        # and disjoint in x from stage 1's points (all at x <= lower).
        lower = explicit_corner
        bounds = self._vertical.bounds
        start = 0
        while lower is not None and start < len(bounds) and bounds[start][1] <= lower:
            start += 1
        end = start
        while end < len(bounds) and bounds[end][0] <= corner:
            end += 1
        for block in self.disk.read_run(self._vertical.block_ids[start:end]):
            out.append(blk.select(block, hits, corner, corner, lower))
        return out, ios + end - start

    # ------------------------------------------------------------------ #
    # accounting / lifecycle
    # ------------------------------------------------------------------ #
    def block_count(self) -> int:
        count = 0
        if self._vertical is not None:
            count += len(self._vertical)
        for _, blocking in self._explicit:
            count += len(blocking)
        if self._index_block_id is not None:
            count += 1
        return count

    def destroy(self) -> None:
        """Free every block owned by this structure (used on rebuilds)."""
        if self._vertical is not None:
            self._vertical.free(self.disk)
            self._vertical = None
        for _, blocking in self._explicit:
            blocking.free(self.disk)
        self._explicit = []
        if self._index_block_id is not None:
            self.disk.free(self._index_block_id)
            self._index_block_id = None

    def __len__(self) -> int:
        return len(self._points)
