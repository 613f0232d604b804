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
   ``ThreeSidedMetablock.destroy`` and used exactly once per query, at the
   divergence node (``_handle_divergence_middles``).
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
from repro.metablock.geometry import PlanarPoint, ThreeSidedQuery, dedupe_points
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
        if x2 < x1 or self.root is None:
            return []
        out: List[PlanarPoint] = []
        self._query_node(self.root, x1, x2, y0, out)
        return dedupe_points(out)

    def query(self, query: ThreeSidedQuery) -> List[PlanarPoint]:
        return self.query_3sided(query.x1, query.x2, query.y0)

    def iter_diagonal_blocks(self, corner: Any, payloads: bool = False) -> Iterator[List[Any]]:
        """A diagonal corner query is the 3-sided query ``x <= corner <= y``."""
        if self.root is None:
            return iter(())
        found = self.query_3sided(self.root.subtree_min_x, corner, corner)
        return iter([[p.payload for p in found] if payloads else found])

    def supports(self, q: Any) -> bool:
        """3-sided query shapes (Lemma 4.4)."""
        return isinstance(q, ThreeSidedQuery)

    def cost(self, q: Any) -> Any:
        """Lemma 4.4: ``O(log_B n + log2 B + t/B)`` I/Os per query."""
        n, b = max(self.size, 2), self.B
        return Bound.of(
            "log_B n + log2 B + t/B", lambda t: three_sided_query_bound(n, b, t)
        )

    def _query_node(self, mb: ThreeSidedMetablock, x1, x2, y0, out: List[PlanarPoint]) -> None:
        if mb.subtree_min_x is None or mb.subtree_min_x > x2 or mb.subtree_max_x < x1:
            return
        if mb.subtree_max_y is not None and mb.subtree_max_y < y0:
            return
        if mb.control_block_id is not None:
            self.disk.read(mb.control_block_id)

        # the metablock's own points (cases 1–3 of Lemma 4.3)
        if mb.pst is not None:
            out.extend(mb.pst.query_3sided(x1, x2, y0))
        if mb.update_points:
            # the records of the control block just read: no I/O of their own
            out.extend(p for p in mb.update_points if x1 <= p.x <= x2 and p.y >= y0)

        if mb.is_leaf or not mb.children:
            return

        # inserted points that descended past this metablock
        if mb.td_pst is not None:
            out.extend(mb.td_pst.query_3sided(x1, x2, y0))
        if mb.td_update_block_id is not None and mb.td_update_points:
            self.disk.read(mb.td_update_block_id)
            out.extend(p for p in mb.td_update_points if x1 <= p.x <= x2 and p.y >= y0)

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

        for child in boundaries:
            if child.subtree_max_y is not None and child.subtree_max_y >= y0:
                self._query_node(child, x1, x2, y0, out)
        if not middles:
            return

        left_side = [c for c in boundaries if c.subtree_min_x <= x1 <= c.subtree_max_x]
        right_side = [c for c in boundaries if c.subtree_min_x <= x2 <= c.subtree_max_x]
        has_left = bool(left_side)

        if has_left and right_side and any(c not in left_side for c in right_side):
            # case 4 of Lemma 4.3: the two sides diverge at this metablock
            self._handle_divergence_middles(mb, middles, x1, x2, y0, out)
        elif has_left:
            anchor = max(left_side, key=lambda c: c.subtree_max_x)
            self._handle_sided_middles(anchor, middles, x1, x2, y0, out, side="right")
        elif right_side:
            anchor = min(right_side, key=lambda c: c.subtree_min_x)
            self._handle_sided_middles(anchor, middles, x1, x2, y0, out, side="left")
        else:
            # the whole x-extent of this metablock lies inside [x1, x2]
            for child in middles:
                if child.subtree_max_y is not None and child.subtree_max_y >= y0:
                    self._query_node(child, x1, x2, y0, out)

    # -- middle-children strategies ---------------------------------------- #
    def _handle_divergence_middles(self, mb, middles, x1, x2, y0, out) -> None:
        """Case 4 of Lemma 4.3: both vertical sides fall on children of ``mb``."""
        if mb.children_pst is not None:
            out.extend(mb.children_pst.query_3sided(x1, x2, y0))
        for child in middles:
            fully_above = child.bbox is not None and child.bbox.min_y >= y0
            deep_candidates = child.desc_max_y is not None and child.desc_max_y >= y0
            if fully_above or deep_candidates:
                self._query_node(child, x1, x2, y0, out)

    def _handle_sided_middles(self, boundary, middles, x1, x2, y0, out, side: str) -> None:
        """One-sided case: the query extends past ``boundary`` over its siblings."""
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
                self._query_node(child, x1, x2, y0, out)
        middles = on_side
        candidates = [c for c in middles if c.subtree_max_y is not None and c.subtree_max_y >= y0]
        if not candidates:
            return
        covered = False
        if ts is not None and ts_size > 0:
            ts_bottom = ts.bounds[-1][1]
            if ts_bottom < y0 and (ts_size >= self.capacity or all(c.is_leaf for c in middles)):
                covered = True
        if covered:
            batches, _ = blk.scan_horizontal_downto(self.disk, ts, y0)
            out.extend(p for p in chain.from_iterable(batches) if x1 <= p.x <= x2)
            # deep descendants of middles cannot reach above y0 here (their
            # metablocks are all crossed by or below the query bottom), except
            # through the conservative desc_max_y guard:
            for child in candidates:
                if child.desc_max_y is not None and child.desc_max_y >= y0 and not child.is_leaf:
                    self._query_node(child, x1, x2, y0, out)
        else:
            for child in candidates:
                self._query_node(child, x1, x2, y0, out)
