"""The static metablock tree (Section 3.1, Theorem 3.2).

A metablock tree over ``n`` points in the region ``y >= x`` is a ``B``-ary
tree of *metablocks*, each representing ``B^2`` points:

* the root holds the ``B^2`` points with the largest y values;
* the remaining points are divided by x coordinate into ``B`` groups — or,
  when they fit into fewer than ``B`` full metablocks, into just enough
  groups of at most ``B^2`` — and a metablock tree is built recursively for
  each group;
* a group with at most ``B^2`` points becomes a leaf metablock.

Each metablock stores its points in both a vertically and a horizontally
oriented blocking (Fig. 9), keeps the bounding boxes and split values of its
children as control information, stores ``TS(M)`` — the ``B^2`` highest
points among its left siblings, horizontally blocked (Fig. 10) — and, when
its region can contain the corner of a diagonal query, a corner structure
(Lemma 3.1).

The resulting structure occupies ``O(n/B)`` blocks and answers diagonal
corner queries in ``O(log_B n + t/B)`` I/Os (Theorem 3.2), which is optimal
(Proposition 3.3).
"""

from __future__ import annotations

import weakref
from heapq import merge
from itertools import chain, islice
from operator import attrgetter
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.complexity import Bound, metablock_query_bound
from repro.metablock import blocking as blk
from repro.metablock.corner import CornerStructure
from repro.metablock.geometry import BoundingBox, DiagonalCornerQuery, PlanarPoint


class Metablock:
    """One metablock: ``O(B^2)`` points plus their blocked organisations.

    The ``points`` list is the authoritative record of the metablock's
    contents and is used only for (re)building organisations and for
    invariant checks; every query path reads the disk blocks, so I/O counts
    are faithful.

    Only the diagonal-corner walk reads the two blockings, so the 3-sided
    subclass, whose queries never take it, overrides :meth:`build_blockings`.
    """

    #: what a metablock builds over its own points (when
    #: :meth:`needs_corner_structure`) and, in the dynamic tree, over its TD
    #: points; ``corner`` holds it whichever class it is
    structure_class: Any = CornerStructure
    #: points inserted since the last level I reorganisation, the records of
    #: the control block (the dynamic tree's slot; a static metablock has none)
    update_points: Sequence[PlanarPoint] = ()

    __slots__ = (
        "points",
        "children",
        "is_leaf",
        "bbox",
        "subtree_min_x",
        "subtree_max_x",
        "subtree_max_y",
        "vertical",
        "horizontal",
        "corner",
        "ts",
        "ts_size",
        "control_block_id",
        "_parent",
        "__weakref__",
    )

    def __init__(self) -> None:
        self.points: List[PlanarPoint] = []
        self.children: List["Metablock"] = []
        self.is_leaf = True
        self.bbox: Optional[BoundingBox] = None
        self.subtree_min_x: Any = None
        self.subtree_max_x: Any = None
        self.subtree_max_y: Any = None
        self.vertical: Optional[blk.Blocking] = None
        self.horizontal: Optional[blk.Blocking] = None
        self.corner: Optional[CornerStructure] = None
        self.ts: Optional[blk.Blocking] = None
        self.ts_size: int = 0
        self.control_block_id = None
        self._parent: Any = None

    @property
    def parent(self) -> Optional["Metablock"]:
        """The metablock above this one, held weakly: a tree without
        reference cycles is freed when it is dropped, not when the cycle
        collector next gets to it."""
        return None if self._parent is None else self._parent()

    @parent.setter
    def parent(self, mb: Optional["Metablock"]) -> None:
        self._parent = None if mb is None else weakref.ref(mb)

    # -- organisation management ----------------------------------------- #
    def rebuild_organisations(self, disk) -> None:
        """(Re)build the bounding box, the blockings and the corner structure."""
        self.destroy_organisations(disk)
        if not self.points:
            self.bbox = None
            return
        self.bbox = BoundingBox.of(self.points)
        self.build_blockings(disk)
        if self.needs_corner_structure():
            self.corner = self.structure_class(disk, self.points)

    def build_blockings(self, disk) -> None:
        """The vertically and the horizontally oriented blocking (Fig. 9)."""
        self.vertical = blk.build_vertical(disk, self.points)
        self.horizontal = blk.build_horizontal(disk, self.points)

    def needs_corner_structure(self) -> bool:
        """Whether a diagonal corner can fall inside this metablock's region.

        The corner ``(q, q)`` lies inside the bounding box exactly when
        ``min_y <= q <= max_x`` is satisfiable, i.e. ``min_y <= max_x``.
        The paper builds corner structures for the leaf metablocks, the
        root, and the metablocks on the root-to-rightmost-leaf path; the
        bounding-box test covers precisely the metablocks whose region the
        diagonal can enter, which includes those.
        """
        if self.bbox is None:
            return False
        return self.bbox.min_y <= self.bbox.max_x

    def destroy_organisations(self, disk) -> None:
        if self.vertical is not None:
            self.vertical.free(disk)
            self.vertical = None
        if self.horizontal is not None:
            self.horizontal.free(disk)
            self.horizontal = None
        if self.corner is not None:
            self.corner.destroy()
            self.corner = None

    def destroy_ts(self, disk) -> None:
        if self.ts is not None:
            self.ts.free(disk)
            self.ts = None
            self.ts_size = 0

    @property
    def in_tree(self) -> bool:
        """Whether the metablock is part of a tree: it has had its control
        block written and has not been destroyed (a split destroys what it
        replaces)."""
        return self.control_block_id is not None

    def destroy(self, disk) -> None:
        """Free every block this metablock owns."""
        self.destroy_organisations(disk)
        self.destroy_ts(disk)
        if self.control_block_id is not None:
            disk.free(self.control_block_id)
            self.control_block_id = None

    def resident(self) -> List[PlanarPoint]:
        """The points that live in this metablock (the dynamic tree adds
        its pending update points)."""
        return self.points

    def note_below(self, y: Any) -> None:
        """A point of ordinate ``y`` now lives strictly below this metablock.

        Nothing to record here; the 3-sided variant keeps a guard.
        """

    def organisation_block_count(self) -> int:
        count = 1  # control block
        if self.vertical is not None:
            count += len(self.vertical)
        if self.horizontal is not None:
            count += len(self.horizontal)
        if self.corner is not None:
            count += self.corner.block_count()
        if self.ts is not None:
            count += len(self.ts)
        return count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "leaf" if self.is_leaf else f"internal({len(self.children)})"
        return f"{type(self).__name__}({kind}, n={len(self.points)})"


class StaticMetablockTree:
    """Optimal static external structure for diagonal corner queries.

    Parameters
    ----------
    disk:
        A :class:`~repro.io.disk.SimulatedDisk` (or buffer manager); its
        ``block_size`` is the paper's ``B``.
    points:
        The data points.  For the optimality guarantees they should satisfy
        ``y >= x`` (interval endpoints always do); the structure remains
        correct for arbitrary points.
    """

    #: node class instantiated by ``_build`` (the dynamic tree overrides it)
    node_class = Metablock
    #: metablocks whose TD structure holds points (see
    #: :meth:`iter_diagonal_blocks`); the static tree has no TD structures
    td_holders = 0

    def __init__(self, disk, points: Iterable[PlanarPoint]) -> None:
        self.disk = disk
        self.B = disk.block_size
        self.capacity = self.B * self.B
        pts = list(points)
        self.size = len(pts)
        self.root: Optional[Metablock] = None
        if pts:
            self.root = self._build(pts, parent=None)
            self._build_ts_structures(self.root)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self, points: List[PlanarPoint], parent: Optional[Metablock]) -> Metablock:
        """Build the subtree over ``points`` below ``parent``.

        The metablock keeps the ``B^2`` highest points; the ``rest`` is cut
        by x into ``min(B, ceil(|rest| / B^2))`` equal groups, one child
        each.  Above ``B^3`` points that is the paper's ``B`` groups.  Below,
        ``B`` groups would make ``B`` leaves of ``|rest|/B`` points each,
        every one paying a control block, a corner structure and a TS
        blocking of up to ``B^2`` points; just enough groups of at most
        ``B^2`` instead give leaves of at least ``B^2/2`` points (but for a
        lone child or the last group's remainder), so the tree keeps the
        ``O(n/B^2)`` metablocks that Theorem 3.2's ``O(n/B)`` space and its
        "a whole metablock in ``B`` I/Os" amortisation count on.
        """
        mb = self.node_class()
        mb.parent = parent
        mb.subtree_min_x = min(p.x for p in points)
        mb.subtree_max_x = max(p.x for p in points)
        mb.subtree_max_y = max(p.y for p in points)

        if len(points) <= self.capacity:
            mb.points = list(points)
            mb.is_leaf = True
        else:
            by_y = sorted(points, key=lambda p: (p.y, p.x), reverse=True)
            mb.points = by_y[: self.capacity]
            rest = sorted(by_y[self.capacity :], key=lambda p: (p.x, p.y))
            mb.is_leaf = False
            mb.note_below(by_y[self.capacity].y)
            groups = min(self.B, -(-len(rest) // self.capacity))  # ceil division
            group_size = -(-len(rest) // groups)
            for start in range(0, len(rest), group_size):
                group = rest[start : start + group_size]
                child = self._build(group, parent=mb)
                mb.children.append(child)
        mb.rebuild_organisations(self.disk)
        self._write_control_block(mb)
        return mb

    def _write_control_block(self, mb: Metablock) -> None:
        """Allocate/refresh the control block of a metablock: a constant-size
        header, and the fewer than ``B`` pending update points as records."""
        header = {
            "is_leaf": mb.is_leaf,
            "n_points": len(mb.points),
            "children": len(mb.children),
        }
        if mb.control_block_id is None:
            block = self.disk.allocate(records=mb.update_points, header=header)
            mb.control_block_id = block.block_id
        else:
            page = self.disk.read(mb.control_block_id)
            self.disk.write(page.replace(mb.update_points, {**page.header, **header}))

    def _build_ts_structures(self, mb: Metablock) -> None:
        """Build the sibling structures of a freshly built subtree, level by level.

        Right after ``_build`` a metablock's own points are the ``B^2``
        highest of its subtree, so they decide every TS exactly as the whole
        subtree would.
        """
        if mb.is_leaf:
            return
        self._rebuild_sibling_structures(mb, [child.points for child in mb.children])
        for child in mb.children:
            self._build_ts_structures(child)

    def _rebuild_sibling_structures(self, mb: Metablock, point_sets: List[List[PlanarPoint]]) -> None:
        """Rebuild what each child of ``mb`` stores about its siblings.

        ``point_sets[i]`` is what child ``i`` contributes.  Here that is
        TS(M): the top ``B^2`` points of M's left siblings (Fig. 10).
        """
        for child in mb.children:
            child.destroy_ts(self.disk)
        for child, (ts, size) in zip(mb.children, self._top_blockings(point_sets)):
            child.ts, child.ts_size = ts, size

    def _top_blockings(
        self, point_sets: Iterable[List[PlanarPoint]]
    ) -> Iterator[Tuple[Optional[blk.Blocking], int]]:
        """Per set, the ``B^2`` highest points of the sets before it, horizontally
        blocked, with their number (``(None, 0)`` where nothing precedes).

        ``top`` is kept as ``sorted(everything before, key, reverse=True)``
        cut to ``B^2``: each set is sorted on its own and merged in.  Both
        the sort and the merge are stable, so ties keep the order of the
        sets, as one sort of all the points before would.
        """
        key = attrgetter("y", "x")
        top: List[PlanarPoint] = []
        for points in point_sets:
            yield (blk.build_horizontal(self.disk, top) if top else None), len(top)
            ranked = sorted(points, key=key, reverse=True)
            top = list(islice(merge(top, ranked, key=key, reverse=True), self.capacity))

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def diagonal_query(self, corner: Any) -> List[PlanarPoint]:
        """All points with ``x <= corner`` and ``y >= corner``.

        Cost: ``O(log_B n + t/B)`` I/Os (Theorem 3.2).
        """
        return list(self.iter_diagonal_query(corner))

    def iter_diagonal_query(self, corner: Any) -> Iterator[PlanarPoint]:
        """Stream the answer to a diagonal corner query, point by point.

        The flattened form of :meth:`iter_diagonal_blocks` — same laziness,
        same order, same deduplication.
        """
        return chain.from_iterable(self.iter_diagonal_blocks(corner))

    def iter_diagonal_blocks(self, corner: Any, payloads: bool = False) -> Iterator[Any]:
        """Stream the answer a block at a time: one batch per block read.

        The generator performs no I/O until the first ``next()`` and then
        reads blocks only as far as the consumer iterates.  Each batch (see
        :func:`~repro.metablock.blocking.select`) holds what one block — or
        one control block's pending points — added to the answer; with
        ``payloads`` it holds the points' payloads instead of the points (see
        :class:`~repro.metablock.blocking.Hits`).

        Every point is reported once.  Of a visited metablock the walk reads
        one organisation: the vertical blocking, the horizontal one or the
        corner structure, whose two stages are disjoint in x.  A point lives
        in one metablock's ``points`` or pending list, and TS(M) holds only
        points of M's left siblings' subtrees and is read *instead of* them
        (:meth:`check_invariants` asserts both).  So only a TD structure of
        the augmented tree, which copies points that the metablocks below
        it hold, can repeat a point, and the answer is deduplicated by
        record uid only while some TD holds points (:attr:`td_holders`).
        """
        if self.root is None:
            return iter(())
        hits = blk.Hits(payloads, track=self.td_holders > 0)
        return chain.from_iterable(self._iter_query_node(self.root, corner, hits))

    def query(self, query: DiagonalCornerQuery) -> List[PlanarPoint]:
        """Answer a :class:`DiagonalCornerQuery` object."""
        return self.diagonal_query(query.corner)

    def supports(self, q: Any) -> bool:
        """Diagonal corner queries (Fig. 1's innermost class)."""
        return isinstance(q, DiagonalCornerQuery)

    def cost(self, q: Any) -> Any:
        """Theorem 3.2: ``O(log_B n + t/B)`` I/Os per query."""
        n, b = max(self.size, 2), self.B
        return Bound.of("log_B n + t/B", lambda t: metablock_query_bound(n, b, t))

    # -- per-metablock reporting ------------------------------------------ #
    def _report_own_points(self, mb: Metablock, q: Any, hits: blk.Hits) -> List[Any]:
        """The points stored *in* ``mb`` that match the query, in batches."""
        bbox = mb.bbox
        if bbox is None or bbox.max_y < q or bbox.min_x > q:
            return []
        corner_inside = bbox.min_x <= q <= bbox.max_x and bbox.min_y <= q <= bbox.max_y
        if corner_inside and mb.corner is not None:
            # Type II: the corner falls inside this metablock
            return mb.corner.batches(q, hits)[0]
        if bbox.max_x <= q:
            # Type III (the whole metablock is inside the query) and Type IV
            # (crossed by the bottom boundary only): top-down until crossed
            return blk.scan_horizontal_downto(self.disk, mb.horizontal, q, hits=hits)[0]
        # Type I: crossed by the vertical side only — or the corner inside
        # the box without a corner structure (defensive; with the build rule
        # that case is unreachable).  The box says when no y needs a test.
        y_min = None if bbox.min_y >= q else q
        return blk.scan_vertical_upto(self.disk, mb.vertical, q, y_min=y_min, hits=hits)[0]

    def _extra_sources(self, mb: Metablock, q: Any, hits: blk.Hits) -> List[Any]:
        """Hook for the dynamic tree (pending points, in batches); static
        tree: nothing."""
        return []

    def _ts_points(self, mb: Metablock, q: Any, hits: blk.Hits) -> List[Any]:
        """Read TS(mb) top-down until the query bottom is crossed.

        No x test: TS(mb) holds points of left siblings whose whole subtree
        lies at ``x <= q`` (``subtree_max_x`` never underestimates).
        """
        if mb.ts is None:
            return []
        return blk.scan_horizontal_downto(self.disk, mb.ts, q, hits=hits)[0]

    def _ts_covers(self, mb: Metablock, q: Any, left_siblings: List[Metablock]) -> Optional[bool]:
        """Decide how to handle the left siblings of ``mb`` for query bottom ``q``.

        Returns ``True`` when TS(mb) alone covers every matching point of
        the left siblings (and their subtrees), ``False`` when each sibling
        must be examined individually, and ``None`` when there is no TS
        information (no left siblings / empty TS).
        """
        if mb.ts is None or mb.ts_size == 0:
            return None
        ts_bottom = mb.ts.bounds[-1][1]
        if ts_bottom >= q:
            # the siblings hold at least ts_size points inside the query;
            # individual examination is amortized against that output
            return False
        full = mb.ts_size >= self.capacity
        all_leaves = all(s.is_leaf for s in left_siblings)
        if full or all_leaves:
            return True
        return False

    # -- recursion --------------------------------------------------------- #
    def _iter_query_node(self, mb: Metablock, q: Any, hits: blk.Hits) -> Iterator[List[Any]]:
        """The batches of each organisation read under ``mb``, one list of
        them per organisation (what the recursion resumes for)."""
        if mb.subtree_min_x is not None and mb.subtree_min_x > q:
            return
        if mb.subtree_max_y is not None and mb.subtree_max_y < q:
            return
        # one control-block read per visited metablock (split values, child
        # pointers, blocking boundaries) — the O(log_B n) term
        if mb.control_block_id is not None:
            self.disk.read(mb.control_block_id)

        for chunk in (self._report_own_points(mb, q, hits), self._extra_sources(mb, q, hits)):
            if chunk:
                yield chunk

        if mb.is_leaf or not mb.children:
            return

        # classify children by their subtree x-ranges
        path_child: Optional[Metablock] = None
        left_children: List[Metablock] = []
        for child in mb.children:
            if child.subtree_min_x is None:
                continue
            if child.subtree_max_x <= q:
                left_children.append(child)
            elif child.subtree_min_x <= q <= child.subtree_max_x:
                path_child = child
            # children entirely to the right of q are skipped

        if path_child is not None and path_child.subtree_max_y >= q:
            yield from self._iter_query_node(path_child, q, hits)

        candidates = [c for c in left_children if c.subtree_max_y is not None and c.subtree_max_y >= q]
        if candidates:
            # children are kept in x order, so the last left child is the one
            # whose TS spans all the others — also when several share a
            # ``subtree_max_x`` (tied coordinates)
            rightmost = left_children[-1]
            covered = self._ts_covers(rightmost, q, [c for c in left_children if c is not rightmost])
            if covered is True and any(c is not rightmost for c in candidates):
                # TS(rightmost) stands in for the left siblings, and the TD
                # structure for what went under them since it was built;
                # wherever the walk enters every child it needs neither
                for chunk in (self._ts_points(rightmost, q, hits), self._td_sources(mb, q, hits)):
                    if chunk:
                        yield chunk
                if rightmost in candidates:
                    yield from self._iter_query_node(rightmost, q, hits)
            else:
                for child in candidates:
                    yield from self._iter_query_node(child, q, hits)

    def _td_sources(self, mb: Metablock, q: Any, hits: blk.Hits) -> List[Any]:
        """Hook for the dynamic tree (TD corner structures, in batches);
        static: nothing."""
        return []

    # ------------------------------------------------------------------ #
    # accounting / introspection
    # ------------------------------------------------------------------ #
    def block_count(self) -> int:
        """Blocks used by the whole structure (the ``O(n/B)`` space bound)."""
        return sum(mb.organisation_block_count() for mb in self.iter_metablocks())

    def iter_metablocks(self, root: Optional[Metablock] = None) -> Iterator[Metablock]:
        """Every metablock of the tree, or of the subtree rooted at ``root``."""
        start = self.root if root is None else root
        stack = [] if start is None else [start]
        while stack:
            mb = stack.pop()
            yield mb
            stack.extend(mb.children)

    def _collect_subtree_points(self, mb: Optional[Metablock]) -> List[PlanarPoint]:
        """Every point stored in the subtree rooted at ``mb`` (or the tree)."""
        return [p for node in self.iter_metablocks(mb) for p in node.resident()]

    def all_points(self) -> List[PlanarPoint]:
        return self._collect_subtree_points(self.root)

    def height(self) -> int:
        def depth(mb: Optional[Metablock]) -> int:
            if mb is None:
                return 0
            if not mb.children:
                return 1
            return 1 + max(depth(c) for c in mb.children)

        return depth(self.root)

    def __len__(self) -> int:
        return self.size

    def _destroy_subtree(self, mb: Metablock) -> None:
        for node in self.iter_metablocks(mb):
            node.destroy(self.disk)

    def destroy(self) -> None:
        """Free every block of the structure (global rebuilds use this)."""
        if self.root is not None:
            self._destroy_subtree(self.root)
        self.root = None
        self.size = 0

    def check_invariants(self) -> None:
        """Structural invariants used by the test suite (no I/O accounting)."""
        for mb in self.iter_metablocks():
            if not mb.is_leaf:
                assert mb.children, "internal metablock must have children"
                min_y_here = min(p.y for p in mb.points) if mb.points else None
                for child in mb.children:
                    if min_y_here is not None and child.points:
                        assert max(p.y for p in child.points) <= min_y_here, (
                            "children must hold smaller y values than their parent"
                        )
        self._check_disjoint()

    def _check_disjoint(self) -> None:
        """What lets a query skip deduplication (:meth:`iter_diagonal_blocks`):
        every point lives in exactly one metablock's ``points`` or pending
        list, and TS(M) holds only points of M's left siblings' subtrees."""
        uids = [p.uid for p in self.all_points()]
        assert len(uids) == self.size, f"point count mismatch: {len(uids)} != {self.size}"
        assert len(set(uids)) == len(uids), "a point lives in two metablocks"
        for mb in self.iter_metablocks():
            left: set = set()
            for child in mb.children:
                if child.ts is not None:
                    ts = {p.uid for bid in child.ts.block_ids for p in self.disk.peek(bid).records()}
                    assert ts <= left, "TS holds a point of no left sibling's subtree"
                left.update(p.uid for p in self._collect_subtree_points(child))
