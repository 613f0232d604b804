"""The augmented (semi-dynamic) metablock tree (Section 3.2, Theorem 3.7).

The static metablock tree of Section 3.1 is made insert-capable by deferring
reorganisation:

* every metablock keeps the fewer than ``B`` points inserted into it since
  its last reorganisation as the records of its **control block** (the
  paper's update block, folded into the page every query reads anyway);
  when the ``B``-th arrives, a **level I reorganisation** rebuilds the
  metablock's vertical/horizontal/corner organisations (``O(B)`` I/Os, hence
  ``O(1)`` amortized per insert);
* every nonleaf metablock ``M`` carries a **TD corner structure** holding the
  points inserted into ``M``'s subtree below ``M`` since the last TS
  reorganisation of ``M``'s children; it has its own update block and is
  rebuilt every ``B`` insertions.  When it reaches ``B^2`` points it is
  discarded and the **TS structures of all of M's children are rebuilt**
  taking those points into account;
* when a metablock reaches ``2B^2`` points a **level II reorganisation**
  keeps the top ``B^2`` points and pushes the bottom ``B^2`` into the
  children (splitting the metablock in two when it is a leaf), followed by a
  TS reorganisation of the affected siblings;
* when a metablock's branching factor reaches ``2B`` the subtree rooted at it
  is rebuilt into two balanced subtrees which replace it in its parent
  (at the root, the whole tree is rebuilt).

Queries read, in addition to the static organisations, the TD structure of
a visited nonleaf metablock whose left children a TS structure stood in for,
a constant number of I/Os per visited metablock (Lemma 3.5), so the query
bound remains ``O(log_B n + t/B)``; where the walk enters every child that
may hold a match it reaches the points TD copies there, and reads no TD.
The pending points come with the control block the static walk reads.
Amortized insertion costs ``O(log_B n + (log_B n)^2/B)`` I/Os (Lemma 3.6).

Reproduction notes: TS rebuilds triggered by dynamic events
take the *subtree* point sets of the left siblings (a superset of the
paper's "points stored in the left siblings") so that the TS-shortcut in
the query remains sound in every interleaving of inserts and
reorganisations; deletions are not supported, as in the paper.  A split
destroys the metablocks it replaces (``Metablock.in_tree`` turns false):
the two loops that can outlive a split under them (the descent in
``_insert_into``, the push-down in ``_level_two_reorganisation``) skip what
was destroyed and finish their work on everything else.

The 3-sided variant (:mod:`~repro.metablock.three_sided`) subclasses this
tree; what it needs to differ in goes through ``Metablock.structure_class``
and ``needs_corner_structure`` (what a metablock builds over its own and its
TD points), ``_rebuild_sibling_structures`` (what the children of a
metablock store about each other), ``_push_down_reorganisation``, and the
node-level ``destroy`` and ``note_below``.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from repro.io.disk import BlockId
from repro.metablock import blocking as blk
from repro.metablock.geometry import PlanarPoint
from repro.metablock.static_tree import Metablock, StaticMetablockTree


class DynamicMetablock(Metablock):
    """A metablock augmented with pending update points and a TD corner structure."""

    __slots__ = (
        "update_points",
        "td_points",
        "td_update_points",
        "td_update_block_id",
        "td_corner",
    )

    def __init__(self) -> None:
        super().__init__()
        self.update_points: List[PlanarPoint] = []
        self.td_points: List[PlanarPoint] = []
        self.td_update_points: List[PlanarPoint] = []
        self.td_update_block_id: Optional[BlockId] = None
        #: ``structure_class`` over ``td_points``
        self.td_corner: Any = None

    def resident(self) -> List[PlanarPoint]:
        return self.points + self.update_points

    @property
    def holds_td(self) -> bool:
        """Whether the TD structure holds points (its corner structure's or
        its update block's)."""
        return bool(self.td_points or self.td_update_points)

    def destroy_td(self) -> None:
        self.td_points = []
        self.td_update_points = []
        if self.td_corner is not None:
            self.td_corner.destroy()
            self.td_corner = None

    def destroy(self, disk) -> None:
        super().destroy(disk)
        if self.td_update_block_id is not None:
            disk.free(self.td_update_block_id)
            self.td_update_block_id = None
        self.destroy_td()

    def organisation_block_count(self) -> int:
        count = super().organisation_block_count()
        if self.td_update_block_id is not None:
            count += 1
        if self.td_corner is not None:
            count += self.td_corner.block_count()
        return count


class AugmentedMetablockTree(StaticMetablockTree):
    """Semi-dynamic metablock tree: optimal queries, amortized-cheap inserts."""

    node_class = DynamicMetablock

    def __init__(self, disk, points: Iterable[PlanarPoint] = ()) -> None:
        #: kept by ``_td_insert`` and ``_destroy_subtree``
        self.td_holders = 0
        super().__init__(disk, points)

    # ------------------------------------------------------------------ #
    # insertion
    # ------------------------------------------------------------------ #
    def insert(self, point: PlanarPoint) -> None:
        """Insert a point (amortized ``O(log_B n + (log_B n)^2/B)`` I/Os)."""
        self.size += 1
        if self.root is None:
            self.root = self.node_class()
            self.root.is_leaf = True
            self.root.points = []
            self.root.subtree_min_x = point.x
            self.root.subtree_max_x = point.x
            self.root.subtree_max_y = point.y
            self.root.rebuild_organisations(self.disk)
            self._write_control_block(self.root)
        self._insert_into(self.root, point)

    def insert_many(self, points: Iterable[PlanarPoint]) -> None:
        for p in points:
            self.insert(p)

    # -- routing ----------------------------------------------------------- #
    def _insert_into(self, mb: DynamicMetablock, point: PlanarPoint) -> None:
        """Insert ``point`` into the subtree rooted at ``mb``."""
        self._stretch_subtree_bounds(mb, point)
        if mb.is_leaf or self._belongs_here(mb, point):
            self._add_pending(mb, point)
            return
        child = self._route_child(mb, point)
        mb.note_below(point.y)
        self._insert_into(child, point)
        # Record the point in TD(mb) only *after* it has reached its
        # destination: a TD-full reorganisation triggered here rebuilds the
        # TS structures from the children's subtrees, which must already
        # contain the point.  A split below leaves ``mb`` in the tree with
        # TS structures that have not seen the point, so it is recorded all
        # the same; a split of ``mb`` itself rebuilt everything under it.
        if mb.in_tree:
            self._td_insert(mb, point)

    @staticmethod
    def _stretch_subtree_bounds(mb: Metablock, point: PlanarPoint) -> None:
        if mb.subtree_min_x is None or point.x < mb.subtree_min_x:
            mb.subtree_min_x = point.x
        if mb.subtree_max_x is None or point.x > mb.subtree_max_x:
            mb.subtree_max_x = point.x
        if mb.subtree_max_y is None or point.y > mb.subtree_max_y:
            mb.subtree_max_y = point.y

    @staticmethod
    def _belongs_here(mb: Metablock, point: PlanarPoint) -> bool:
        """A point stays at an internal metablock when it ranks among its y values."""
        if not mb.points or mb.bbox is None:
            return True
        return point.y >= mb.bbox.min_y

    @staticmethod
    def _route_child(mb: Metablock, point: PlanarPoint) -> Metablock:
        """Pick the child whose x-range should receive ``point``."""
        for child in mb.children:
            if child.subtree_min_x <= point.x <= child.subtree_max_x:
                return child
        for child in mb.children:
            if point.x < child.subtree_min_x:
                return child
        return mb.children[-1]

    # -- pending points ------------------------------------------------------ #
    def _add_pending(self, mb: DynamicMetablock, point: PlanarPoint) -> None:
        mb.update_points.append(point)
        self._flush_update_points(mb)

    def _flush_update_points(self, mb: DynamicMetablock) -> None:
        """Put ``mb``'s pending points on disk, reorganising it if that fills
        it: the control block holds them (2 I/Os: its read and its write)."""
        if len(mb.update_points) >= self.B:
            self._level_one_reorganisation(mb)
        else:
            self._write_control_block(mb)
        if len(mb.points) + len(mb.update_points) >= 2 * self.capacity:
            self._level_two_reorganisation(mb)

    # -- TD corner structures ----------------------------------------------- #
    def _td_insert(self, mb: DynamicMetablock, point: PlanarPoint) -> None:
        """Record a point that descends past ``mb`` in ``TD(mb)``."""
        if not mb.holds_td:
            self.td_holders += 1
        mb.td_update_points.append(point)
        self._write_td_update_block(mb)
        if len(mb.td_update_points) >= self.B:
            mb.td_points.extend(mb.td_update_points)
            mb.td_update_points = []
            self._write_td_update_block(mb)
            if mb.td_corner is not None:
                mb.td_corner.destroy()
            mb.td_corner = mb.structure_class(self.disk, mb.td_points)
        if len(mb.td_points) >= self.capacity:
            self._ts_reorganisation(mb)
            mb.destroy_td()
            self.td_holders -= 1

    def _write_td_update_block(self, mb: DynamicMetablock) -> None:
        if mb.td_update_block_id is None:
            block = self.disk.allocate(records=mb.td_update_points, capacity=self.B)
            mb.td_update_block_id = block.block_id
        else:
            page = self.disk.read(mb.td_update_block_id)
            self.disk.write(page.replace(mb.td_update_points))

    # -- reorganisations ------------------------------------------------------ #
    def _level_one_reorganisation(self, mb: DynamicMetablock) -> None:
        """Merge the pending points into the main organisations (O(B) I/Os);
        the control block's rewrite empties its records."""
        mb.points.extend(mb.update_points)
        mb.update_points = []
        mb.rebuild_organisations(self.disk)
        self._write_control_block(mb)

    def _level_two_reorganisation(self, mb: DynamicMetablock) -> None:
        """Shrink a metablock that reached ``2B^2`` points."""
        # fold any pending update points in first
        if mb.update_points:
            self._level_one_reorganisation(mb)
        if len(mb.points) < 2 * self.capacity:
            return
        if mb.is_leaf:
            self._split_leaf(mb)
            return

        by_y = sorted(mb.points, key=lambda p: (p.y, p.x), reverse=True)
        keep = by_y[: self.capacity]
        push_down = by_y[self.capacity :]
        mb.points = keep
        mb.rebuild_organisations(self.disk)
        self._write_control_block(mb)

        # Hand every pushed-down point to a child *before* running any child
        # reorganisation, so that a cascading subtree rebuild (leaf split ->
        # branching-factor split of ``mb`` itself) can never lose points.
        receivers: List[DynamicMetablock] = []
        for point in push_down:
            child = self._route_child(mb, point)
            mb.note_below(point.y)
            self._stretch_subtree_bounds(child, point)
            child.update_points.append(point)
            self._td_insert(mb, point)
            if child not in receivers:
                receivers.append(child)
        for child in receivers:
            if not child.in_tree:
                # destroyed by a split that an earlier receiver set off; the
                # rebuilt subtree took its points, pending ones included
                continue
            # a receiver that is still in the tree must not keep points that
            # its control block does not hold
            self._flush_update_points(child)
        if mb.in_tree:
            self._push_down_reorganisation(mb)

    def _push_down_reorganisation(self, mb: DynamicMetablock) -> None:
        """Rebuild the sibling structures a push-down out of ``mb`` left stale."""
        if mb.parent is not None:
            self._ts_reorganisation(mb.parent)

    def _split_leaf(self, leaf: DynamicMetablock) -> None:
        """Split a full leaf into two siblings of ``B^2`` points each."""
        parent = leaf.parent
        if parent is None:
            self._rebuild_whole_tree()
            return
        ordered = sorted(leaf.points, key=lambda p: (p.x, p.y))
        mid = len(ordered) // 2
        left_points, right_points = ordered[:mid], ordered[mid:]

        new_leaves: List[DynamicMetablock] = []
        for pts in (left_points, right_points):
            node = self.node_class()
            node.is_leaf = True
            node.parent = parent
            node.points = list(pts)
            node.subtree_min_x = min(p.x for p in pts)
            node.subtree_max_x = max(p.x for p in pts)
            node.subtree_max_y = max(p.y for p in pts)
            node.rebuild_organisations(self.disk)
            self._write_control_block(node)
            new_leaves.append(node)

        idx = parent.children.index(leaf)
        self._destroy_subtree(leaf)
        parent.children[idx : idx + 1] = new_leaves
        self._write_control_block(parent)
        self._ts_reorganisation(parent)
        if len(parent.children) >= 2 * self.B:
            self._split_internal(parent)

    def _split_internal(self, mb: DynamicMetablock) -> None:
        """Rebuild the subtree at ``mb`` into two balanced subtrees."""
        parent = mb.parent
        points = self._collect_subtree_points(mb)
        if parent is None:
            self._rebuild_whole_tree()
            return
        ordered = sorted(points, key=lambda p: (p.x, p.y))
        mid = len(ordered) // 2
        halves = [ordered[:mid], ordered[mid:]]
        idx = parent.children.index(mb)
        self._destroy_subtree(mb)
        new_nodes: List[Metablock] = []
        for half in halves:
            if not half:
                continue
            node = self._build(half, parent=parent)
            self._build_ts_structures(node)
            new_nodes.append(node)
        parent.children[idx : idx + 1] = new_nodes
        self._write_control_block(parent)
        self._ts_reorganisation(parent)
        if len(parent.children) >= 2 * self.B:
            self._split_internal(parent)

    def _rebuild_whole_tree(self) -> None:
        points = self._collect_subtree_points(self.root) if self.root is not None else []
        if self.root is not None:
            self._destroy_subtree(self.root)
        self.root = self._build(points, parent=None) if points else None
        if self.root is not None:
            self._build_ts_structures(self.root)

    def _ts_reorganisation(self, mb: Metablock) -> None:
        """Rebuild TS structures of every child of ``mb`` from subtree point sets."""
        if mb.is_leaf or not mb.children:
            return
        self._rebuild_sibling_structures(
            mb, [self._collect_subtree_points(child) for child in mb.children]
        )

    def _destroy_subtree(self, mb: DynamicMetablock) -> None:
        for node in self.iter_metablocks(mb):
            if node.holds_td:
                self.td_holders -= 1
            node.destroy(self.disk)

    # ------------------------------------------------------------------ #
    # query hooks (extend the static query with the dynamic organisations)
    # ------------------------------------------------------------------ #
    def _extra_sources(self, mb: Metablock, q: Any, hits: blk.Hits) -> List[Any]:
        """The pending points of a visited metablock."""
        if not mb.update_points:
            return []
        # no I/O: they are the records of the control block the walk has
        # just read; the filter runs over their copy in heap
        found = hits.fresh([p for p in mb.update_points if p.x <= q and p.y >= q])
        return [found] if found else []

    def _td_sources(self, mb: Metablock, q: Any, hits: blk.Hits) -> List[Any]:
        """Query the TD corner structure of a visited nonleaf metablock whose
        left children TS(rightmost) stood in for: it holds what went under
        them since that TS was built, and is the one source whose points
        the walk may already have reported."""
        out: List[Any] = []
        if mb.td_corner is not None:
            out = mb.td_corner.batches(q, hits)[0]
        if mb.td_update_block_id is not None and mb.td_update_points:
            self.disk.read(mb.td_update_block_id)
            out.append(hits.fresh([p for p in mb.td_update_points if p.x <= q and p.y >= q]))
        return out

    # ------------------------------------------------------------------ #
    # introspection / invariants
    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        for mb in self.iter_metablocks():
            assert len(mb.points) <= 2 * self.capacity + self.B
            if not mb.is_leaf:
                assert mb.children
                assert len(mb.children) <= 2 * self.B + 1
        assert self.td_holders == sum(mb.holds_td for mb in self.iter_metablocks())
        self._check_disjoint()
