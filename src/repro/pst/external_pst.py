"""A static blocked priority search tree for 3-sided queries (Lemma 4.1).

Structure
---------
The tree is binary on the x-dimension.  Every node occupies one disk block
holding the ``B`` points with the largest y values among the points of its
subtree that no ancestor holds; the remaining points are split by the median
x value between the two children.  This is exactly the "priority search tree
where each node contains B points" described in Lemma 4.1 [17].

A 3-sided query ``x1 <= x <= x2, y >= y0`` walks the at most two root-to-leaf
search paths for ``x1`` and ``x2`` (``O(log2 n)`` blocks) and, for every
subtree completely inside ``[x1, x2]``, descends only while nodes keep
producing output (every such block read either yields ``B`` reported points
or terminates a branch), giving ``O(log2 n + t/B)`` I/Os.  A node stores its
points by descending y, so its page is scanned as a prefix that stops at the
first point below ``y0``, over the page's columns; the splits above a node
bound its x-range, and a node inside ``[x1, x2]`` is scanned with no x test.

The structure is static; the metablock-tree variants that need insertions
rebuild their (small, ``O(B^2)``/``O(B^3)``-point) external PSTs wholesale,
exactly as prescribed by Lemma 4.4, and the engine's ``point`` kind writes
to one through :class:`~repro.rebuilding.RebuildingIndex`.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Iterable, Iterator, List, Optional

from repro.analysis.complexity import Bound, external_pst_query_bound
from repro.io.disk import Batch, BlockId
from repro.metablock.blocking import Hits, select_above
from repro.metablock.geometry import PlanarPoint, ThreeSidedQuery


class ExternalPST:
    """Static blocked priority search tree over :class:`PlanarPoint` records.

    A node page holds its points by descending y (ties by descending x), so
    a query's y test is a prefix of the page: the scan stops at the first
    point below the query's bottom, and a node whose prefix is shorter than
    the page has no descendant in the answer.
    """

    def __init__(self, disk, points: Iterable[PlanarPoint] = ()) -> None:
        self.disk = disk
        self.B = disk.block_size
        pts = list(points)
        self.size = len(pts)
        self._block_ids: List[BlockId] = []
        self.root_id: Optional[BlockId] = None
        if pts:
            ordered = sorted(pts, key=lambda p: (p.x, p.y))
            self.root_id = self._build(ordered)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self, pts: List[PlanarPoint]) -> Optional[BlockId]:
        """Build recursively from points sorted by x; returns the root block id."""
        if not pts:
            return None
        by_y = sorted(pts, key=lambda p: (p.y, p.x), reverse=True)
        top = by_y[: self.B]
        top_ids = set(id(p) for p in top)
        rest = [p for p in pts if id(p) not in top_ids]  # keeps x order
        mid = len(pts) // 2
        split_x = pts[mid].x
        left_pts = [p for p in rest if p.x < split_x]
        right_pts = [p for p in rest if p.x >= split_x]
        # With many equal x values one side can be empty; recursion still
        # terminates because every level removes its top B points, and the
        # search-tree invariant (left strictly below split_x) is preserved.

        left_id = self._build(left_pts)
        right_id = self._build(right_pts)
        block = self.disk.allocate(
            records=top,
            header={
                "split_x": split_x,
                "left": left_id,
                "right": right_id,
                "min_y": min(p.y for p in top),
            },
        )
        self._block_ids.append(block.block_id)
        return block.block_id

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query_3sided(self, x1: Any, x2: Any, y0: Any) -> List[PlanarPoint]:
        """All points with ``x1 <= x <= x2`` and ``y >= y0``."""
        return list(self.iter_3sided(x1, x2, y0))

    def iter_3sided(self, x1: Any, x2: Any, y0: Any) -> Iterator[PlanarPoint]:
        """Stream the 3-sided answer, reading one node block at a time."""
        return chain.from_iterable(self.iter_3sided_blocks(x1, x2, y0))

    def stream(self, q: Any) -> Iterator[PlanarPoint]:
        """The plain lazy hit iterator for a supported descriptor."""
        return self.iter_3sided(q.x1, q.x2, q.y0)

    def query(self, q: Any) -> "Any":
        """Answer a query descriptor with a lazy ``QueryResult`` over :meth:`stream`.

        Accepts :class:`~repro.metablock.geometry.ThreeSidedQuery` (and,
        via the engine, anything with ``x1``/``x2``/``y0`` fields).
        """
        from repro.engine.result import QueryResult

        return QueryResult.of(self, q)

    def supports(self, q: Any) -> bool:
        """3-sided query shapes (Lemma 4.1)."""
        return isinstance(q, ThreeSidedQuery)

    def cost(self, q: Any) -> "Any":
        """Lemma 4.1: ``O(log2 n + t/B)`` I/Os per 3-sided query."""
        n, b = max(self.size, 2), self.B
        return Bound.of("log2 n + t/B", lambda t: external_pst_query_bound(n, b, t))

    def query_2sided(self, x_max: Any, y_min: Any) -> List[PlanarPoint]:
        """All points with ``x <= x_max`` and ``y >= y_min``."""
        return list(chain.from_iterable(self.iter_3sided_blocks(None, x_max, y_min)))

    def iter_3sided_blocks(
        self, x1: Optional[Any], x2: Any, y0: Any, hits: Optional[Hits] = None
    ) -> Iterator[Batch]:
        """The answer one node block at a time, depth first, left before
        right, as :class:`~repro.io.disk.Batch`es of the node pages' rows
        (in ``hits``' form, and only rows it has not reported, when given);
        a block is read only when the consumer asks for the next.

        ``x1 = None`` leaves the left side open.  A stack entry carries the
        x sides its node still has to test: the ancestors' ``split_x``
        bound the node's x-range (left of a split ``x < split_x``, right of
        it ``x >= split_x``), so below a split inside ``[x1, x2]`` one side
        needs no test, and a node between two such splits none.
        """
        stack = [(self.root_id, x1, x2)]
        while stack:
            block_id, x_min, x_max = stack.pop()
            if block_id is None:
                continue
            page = self.disk.read(block_id)
            batch, k = select_above(page, hits, y0, x_min, x_max)
            if batch.count:
                yield batch
            # every point below this node has y <= the smallest y stored
            # here; stop when even the stored points dip below the bottom
            if k < page.count:
                continue
            header = page.header
            split_x = header["split_x"]
            if x2 >= split_x:
                right_min = x_min if x_min is not None and x_min > split_x else None
                stack.append((header["right"], right_min, x_max))
            if x1 is None or x1 < split_x:
                left_max = x_max if x_max is not None and x_max < split_x else None
                stack.append((header["left"], x_min, left_max))

    # ------------------------------------------------------------------ #
    # accounting / lifecycle
    # ------------------------------------------------------------------ #
    def io_stats(self):
        """Live I/O counters of the backing store."""
        return self.disk.stats

    def block_count(self) -> int:
        return len(self._block_ids)

    def peek_points(self) -> List[PlanarPoint]:
        """Every stored point, read without I/O accounting (invariant checks)."""
        return [p for bid in self._block_ids for p in self.disk.peek(bid).records()]

    def destroy(self) -> None:
        for bid in self._block_ids:
            self.disk.free(bid)
        self._block_ids = []
        self.root_id = None
        self.size = 0

    def __len__(self) -> int:
        return self.size
