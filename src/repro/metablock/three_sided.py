"""A metablock-tree variant that answers 3-sided queries (Lemmas 4.3–4.4).

Section 4 reduces class indexing over *degenerate* (path-shaped) pieces of a
class hierarchy to 3-sided range searching: report all points with
``x1 <= x <= x2`` and ``y >= y0``.  The paper obtains the structure by
modifying the metablock tree of Section 3 in the five ways Lemma 4.3
enumerates, and so does this module: :class:`ThreeSidedMetablockTree` *is*
the :class:`~repro.metablock.dynamic_tree.AugmentedMetablockTree` — build,
insert routing, pending points in the control block, TD structures, level
I/II reorganisations, leaf and branching-factor splits, accounting and
invariants are inherited — with one override per item:

1. & 2.  Corners need not lie on the diagonal and both corners may fall in
   one metablock — ``ThreeSidedMetablock.structure_class`` is the blocked
   priority search tree (:class:`~repro.pst.ExternalPST`, Lemma 4.1) and
   ``needs_corner_structure`` is always true, so the inherited
   ``rebuild_organisations`` and ``_td_insert`` build a 3-sided structure
   over every metablock's own ``O(B^2)`` points, and over its TD points,
   where Section 3 builds corner structures.  It stands *instead of* the
   vertical and horizontal blockings, as the lemma has it:
   ``build_blockings`` builds nothing, so a metablock holds its bounding
   box and its PST and writes no organisation that no 3-sided query reads.
3. Both vertical sides may pass through one metablock — answered by that
   same per-metablock structure (``pst`` in ``_query_node``).
4. The two vertical sides may fall on two children of the same metablock —
   every nonleaf metablock carries ``children_pst``, a 3-sided structure
   over the points of *all its children* (``O(B^3)`` points), built by the
   ``_rebuild_sibling_structures`` override, freed by
   ``ThreeSidedMetablock.destroy`` and read exactly once per query, at the
   divergence node.
5. A query may extend to the right of the search path as well as to the
   left — next to the inherited ``ts`` (the left siblings) every metablock
   carries ``ts_right`` (the right siblings): the same override runs the
   inherited ``_top_blockings`` over the children from right to left, and
   ``destroy_ts`` frees both.

Two more overrides belong to this reproduction rather than to the lemma:
``note_below`` keeps ``desc_max_y``, a conservative guard that lets a query
skip subtrees with nothing above its bottom, and
``_push_down_reorganisation`` also refreshes the structures of the
metablock that pushed down, because ``children_pst`` is built from the
children's own points, which a push-down changes.

Each point is reported once, as in the diagonal walk.  A child's own points
(its PST and pending points) are read through one structure.  At a
divergence node ``children_pst`` reports them, and a child the walk enters
there for what lies below it is entered *covered*: its own PST and pending
points are skipped, its TD structure and children are not, and a covered
child with nothing below it is not entered.  The coverage invariant makes
that sound: each point a child holds is in its parent's ``children_pst`` or
TD structure, read at the parent — a point that enters a child after
``children_pst`` was built passes TD(parent), and push-downs and splits
rebuild ``children_pst`` — and ``children_pst`` holds only points a child
holds.  Under a covered TS (full, its bottom below the query's) the TS
reports them, and the walk goes no deeper: a nonleaf metablock holds at
least ``B^2`` points, none below a point under it (the *floor*), so when the
TS was built — after the last push-down or split among the siblings it
spans — every point under a nonleaf sibling lay below the query, and a point
that went under one since passed TD(parent).  ``_check_disjoint`` asserts
the coverage invariant and the floor.  The walk reads TD(M) only where
``children_pst`` or a covered TS stood in for M's children: where it enters
every child uncovered it reaches their points there.  Only a TD structure,
which copies points held below it, can repeat a point, so the answer is
deduplicated by uid only while some TD holds points (``td_holders``).  Pages
are scanned by column (:func:`~repro.metablock.blocking.select_above`).

Bounds: ``O(n/B)`` blocks, queries in ``O(log_B n + log2 B + t/B)`` I/Os,
inserts in ``O(log_B n + (log_B n)^2/B)`` amortized I/Os (Lemma 4.4).
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Any, Iterator, List, Optional

from repro.analysis.complexity import Bound, three_sided_query_bound
from repro.metablock import blocking as blk
from repro.metablock.dynamic_tree import AugmentedMetablockTree, DynamicMetablock
from repro.metablock.geometry import PlanarPoint, ThreeSidedQuery
from repro.pst.external_pst import ExternalPST


class ThreeSidedMetablock(DynamicMetablock):
    """A metablock of the 3-sided variant."""

    structure_class = ExternalPST

    __slots__ = ("desc_max_y", "ts_right", "ts_right_size", "children_pst")

    def __init__(self) -> None:
        super().__init__()
        #: largest y of any point residing strictly below this metablock;
        #: conservative (never underestimates), used as a recursion guard
        self.desc_max_y: Any = None
        self.ts_right: Optional[blk.Blocking] = None
        self.ts_right_size = 0
        self.children_pst: Optional[ExternalPST] = None

    #: the inherited slots under the names of Lemma 4.3's description
    pst = property(attrgetter("corner"))
    td_pst = property(attrgetter("td_corner"))
    ts_left = property(attrgetter("ts"))

    def needs_corner_structure(self) -> bool:
        return True

    def build_blockings(self, disk) -> None:
        """Neither blocking: ``pst`` answers every case (Lemma 4.3 item 1)."""

    def note_below(self, y: Any) -> None:
        if self.desc_max_y is None or y > self.desc_max_y:
            self.desc_max_y = y

    def destroy_ts(self, disk) -> None:
        super().destroy_ts(disk)
        if self.ts_right is not None:
            self.ts_right.free(disk)
            self.ts_right = None
            self.ts_right_size = 0

    def destroy_children_pst(self) -> None:
        if self.children_pst is not None:
            self.children_pst.destroy()
            self.children_pst = None

    def destroy(self, disk) -> None:
        super().destroy(disk)
        self.destroy_children_pst()

    def organisation_block_count(self) -> int:
        count = super().organisation_block_count()
        if self.ts_right is not None:
            count += len(self.ts_right)
        if self.children_pst is not None:
            count += self.children_pst.block_count()
        return count


class ThreeSidedMetablockTree(AugmentedMetablockTree):
    """Semi-dynamic external structure for 3-sided range queries."""

    node_class = ThreeSidedMetablock

    # ------------------------------------------------------------------ #
    # sibling structures (items 4 and 5 of Lemma 4.3)
    # ------------------------------------------------------------------ #
    def _rebuild_sibling_structures(
        self, mb: ThreeSidedMetablock, point_sets: List[List[PlanarPoint]]
    ) -> None:
        """Both TS structures of every child of ``mb``, and ``mb``'s children PST."""
        super()._rebuild_sibling_structures(mb, point_sets)
        right_to_left = zip(reversed(mb.children), self._top_blockings(reversed(point_sets)))
        for child, (ts, size) in right_to_left:
            child.ts_right, child.ts_right_size = ts, size
        mb.destroy_children_pst()
        child_points: List[PlanarPoint] = []
        for child in mb.children:
            child_points.extend(child.resident())
        if child_points:
            mb.children_pst = ExternalPST(self.disk, child_points)

    def _push_down_reorganisation(self, mb: ThreeSidedMetablock) -> None:
        super()._push_down_reorganisation(mb)
        self._ts_reorganisation(mb)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query_3sided(self, x1: Any, x2: Any, y0: Any) -> List[PlanarPoint]:
        """All points with ``x1 <= x <= x2`` and ``y >= y0``."""
        return list(chain.from_iterable(self.iter_3sided_blocks(x1, x2, y0)))

    def iter_3sided_blocks(self, x1: Any, x2: Any, y0: Any, payloads: bool = False) -> Iterator[Any]:
        """The 3-sided answer in the batches the walk read it in: one per
        page (a :class:`~repro.io.disk.Batch` of its rows) or pending list;
        with ``payloads`` they hold the points' payloads (see
        :class:`~repro.metablock.blocking.Hits`).  The walk runs, whole,
        at the first ``next()``.

        Every point is reported once (see the module docstring), so the
        answer is deduplicated by uid only while some TD structure holds
        points (:attr:`td_holders`).
        """
        if x2 < x1 or self.root is None:
            return
        out: List[Any] = []
        self._query_node(self.root, x1, x2, y0, blk.Hits(payloads, track=self.td_holders > 0), out, False)
        yield from out

    def query(self, query: ThreeSidedQuery) -> List[PlanarPoint]:
        return self.query_3sided(query.x1, query.x2, query.y0)

    def iter_diagonal_blocks(self, corner: Any, payloads: bool = False) -> Iterator[Any]:
        """A diagonal corner query is the 3-sided query ``x <= corner <= y``."""
        if self.root is None:
            return iter(())
        return self.iter_3sided_blocks(self.root.subtree_min_x, corner, corner, payloads)

    def supports(self, q: Any) -> bool:
        """3-sided query shapes (Lemma 4.4)."""
        return isinstance(q, ThreeSidedQuery)

    def cost(self, q: Any) -> Any:
        """Lemma 4.4: ``O(log_B n + log2 B + t/B)`` I/Os per query."""
        n, b = max(self.size, 2), self.B
        return Bound.of(
            "log_B n + log2 B + t/B", lambda t: three_sided_query_bound(n, b, t)
        )

    def _query_node(
        self, mb: ThreeSidedMetablock, x1, x2, y0, hits: blk.Hits, out: List[Any], covered: bool
    ) -> None:
        """Append the answer's batches under ``mb`` to ``out``.  With
        ``covered`` a structure read above already reported ``mb``'s own
        points, so its PST and pending points are skipped, and a covered
        metablock with nothing below it is not visited at all.  TD(mb) is
        read only where ``children_pst`` (a divergence) or a covered TS
        stood in for children."""
        if mb.subtree_min_x is None or mb.subtree_min_x > x2 or mb.subtree_max_x < x1:
            return
        if mb.subtree_max_y is not None and mb.subtree_max_y < y0:
            return
        bottom = mb.is_leaf or not mb.children
        if covered and bottom:
            return
        if mb.control_block_id is not None:
            self.disk.read(mb.control_block_id)

        if not covered:
            # the metablock's own points (cases 1–3 of Lemma 4.3)
            if mb.pst is not None:
                out.extend(mb.pst.iter_3sided_blocks(x1, x2, y0, hits))
            # the records of the control block just read: no I/O of their own
            self._report_pending(mb.update_points, x1, x2, y0, hits, out)
        if bottom:
            return

        # classify the children against the two vertical sides; ties at group
        # boundaries can make more than one child overlap a query side, so
        # boundary children are kept as a list
        boundaries: List[ThreeSidedMetablock] = []
        middles: List[ThreeSidedMetablock] = []
        for child in mb.children:
            lo, hi = child.subtree_min_x, child.subtree_max_x
            if lo is None or hi < x1 or lo > x2:
                continue
            if x1 <= lo and hi <= x2:
                middles.append(child)
            else:
                boundaries.append(child)
        left_side = [c for c in boundaries if c.subtree_min_x <= x1 <= c.subtree_max_x]
        right_side = [c for c in boundaries if c.subtree_min_x <= x2 <= c.subtree_max_x]

        # case 4 of Lemma 4.3: the two sides diverge at this metablock, and
        # ``children_pst`` (with TD(mb), read below) reports every child's
        # own points — the children the walk enters are covered
        diverge = bool(middles and left_side) and any(c not in left_side for c in right_side)
        if diverge and mb.children_pst is not None:
            out.extend(mb.children_pst.iter_3sided_blocks(x1, x2, y0, hits))
        for child in boundaries:
            if child.subtree_max_y is not None and child.subtree_max_y >= y0:
                self._query_node(child, x1, x2, y0, hits, out, diverge)
        shortcut = diverge
        if diverge:
            for child in middles:
                if child.desc_max_y is not None and child.desc_max_y >= y0:
                    self._query_node(child, x1, x2, y0, hits, out, True)
        elif not middles:
            return
        elif left_side:
            anchor = max(left_side, key=lambda c: c.subtree_max_x)
            shortcut = self._handle_sided_middles(anchor, middles, x1, x2, y0, hits, out, side="right")
        elif right_side:
            anchor = min(right_side, key=lambda c: c.subtree_min_x)
            shortcut = self._handle_sided_middles(anchor, middles, x1, x2, y0, hits, out, side="left")
        else:
            # the whole x-extent of this metablock lies inside [x1, x2]
            for child in middles:
                if child.subtree_max_y is not None and child.subtree_max_y >= y0:
                    self._query_node(child, x1, x2, y0, hits, out, False)
        if shortcut:
            # the points that went under the children since ``children_pst``
            # or the TS was built; a walk that enters every child reaches
            # them there
            if mb.td_pst is not None:
                out.extend(mb.td_pst.iter_3sided_blocks(x1, x2, y0, hits))
            if mb.td_update_block_id is not None and mb.td_update_points:
                self.disk.read(mb.td_update_block_id)
                self._report_pending(mb.td_update_points, x1, x2, y0, hits, out)

    @staticmethod
    def _report_pending(points, x1, x2, y0, hits: blk.Hits, out: List[Any]) -> None:
        """Append the pending ``points`` inside the query (filtered in heap)."""
        found = [p for p in points if x1 <= p.x <= x2 and p.y >= y0]
        if found:
            found = hits.fresh(found)
            if found:
                out.append(found)

    # -- middle-children strategies ---------------------------------------- #
    def _handle_sided_middles(self, boundary, middles, x1, x2, y0, hits, out, side: str) -> bool:
        """One-sided case: the query extends past ``boundary`` over its
        siblings.  Returns whether a covered TS answered for them, so that
        the caller reads TD(parent) too."""
        ts = boundary.ts_right if side == "right" else boundary.ts
        ts_size = boundary.ts_right_size if side == "right" else boundary.ts_size
        # Only siblings on the ``side`` of the anchor are spanned by its TS
        # structure; a (tie-induced) middle child on the other side is simply
        # examined individually.
        if side == "right":
            on_side = [c for c in middles if c.subtree_max_x >= boundary.subtree_max_x]
        else:
            on_side = [c for c in middles if c.subtree_min_x <= boundary.subtree_min_x]
        off_side = [c for c in middles if c not in on_side]
        for child in off_side:
            if child.subtree_max_y is not None and child.subtree_max_y >= y0:
                self._query_node(child, x1, x2, y0, hits, out, False)
        middles = on_side
        candidates = [c for c in middles if c.subtree_max_y is not None and c.subtree_max_y >= y0]
        if not candidates:
            return False
        covered = False
        if ts is not None and ts_size > 0:
            ts_bottom = ts.bounds[-1][1]
            if ts_bottom < y0 and (ts_size >= self.capacity or all(c.is_leaf for c in middles)):
                covered = True
        if covered:
            # TS holds every point above y0 of the siblings it spans that
            # TD(parent) does not, and none lies below them (the floor, see
            # the module docstring): the TS alone answers for them
            out.extend(blk.scan_horizontal_downto(self.disk, ts, y0, hits, x1, x2)[0])
        else:
            for child in candidates:
                self._query_node(child, x1, x2, y0, hits, out, False)
        return covered

    # ------------------------------------------------------------------ #
    # invariants
    # ------------------------------------------------------------------ #
    def _check_disjoint(self) -> None:
        """Also what lets the 3-sided walk read a child's own points once:
        each child's resident points are in its parent's ``children_pst`` or
        TD structure, ``children_pst`` holds no point that is not a child's,
        and the floor under a covered TS — a nonleaf metablock holds at
        least ``B^2`` points, and its children none above them."""
        super()._check_disjoint()
        for mb in self.iter_metablocks():
            if mb.is_leaf or not mb.children:
                continue
            own = mb.resident()
            assert len(own) >= self.capacity, "a nonleaf metablock holds fewer than B^2 points"
            floor = min(p.y for p in own)
            below = [p for child in mb.children for p in child.resident()]
            assert all(p.y <= floor for p in below), "a child holds a point above its parent's"
            resident = {p.uid for p in below}
            pst = set() if mb.children_pst is None else {p.uid for p in mb.children_pst.peek_points()}
            td = {p.uid for p in mb.td_points + mb.td_update_points}
            assert pst <= resident, "children_pst holds a point no child holds"
            assert resident <= pst | td, "a child's point is in neither children_pst nor TD"
