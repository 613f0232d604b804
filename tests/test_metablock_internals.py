"""White-box tests for the metablock trees' internal organisation.

These check the structural facts the proofs of Theorems 3.2/3.7 and
Lemmas 4.3/4.4 rely on, rather than end-to-end query answers (those are
covered by the black-box and property tests).
"""

import random

import pytest

from repro.io import SimulatedDisk
from repro.metablock import AugmentedMetablockTree, StaticMetablockTree, ThreeSidedMetablockTree
from repro.metablock.dynamic_tree import DynamicMetablock
from repro.metablock.geometry import PlanarPoint

from tests.conftest import make_interval_points, make_points


class TestStaticOrganisation:
    @pytest.fixture(scope="class")
    def tree(self):
        disk = SimulatedDisk(block_size=4)
        return StaticMetablockTree(disk, make_interval_points(800, seed=17))

    def test_ts_structures_span_left_siblings(self, tree):
        """TS(M) holds the B^2 highest points among M's left siblings (Fig. 10)."""
        cap = tree.capacity
        for mb in tree.iter_metablocks():
            if mb.is_leaf:
                continue
            accumulated = []
            for child in mb.children:
                if accumulated and child.ts is not None:
                    expected = sorted(
                        (p.y for p in accumulated), reverse=True
                    )[: cap]
                    stored = []
                    for bid in child.ts.block_ids:
                        stored.extend(p.y for p in tree.disk.peek(bid).records())
                    assert sorted(stored, reverse=True) == sorted(expected, reverse=True)
                accumulated.extend(child.points)

    def test_leftmost_child_has_no_ts(self, tree):
        for mb in tree.iter_metablocks():
            if not mb.is_leaf and mb.children:
                assert mb.children[0].ts is None

    def test_both_blockings_store_every_point(self, tree):
        for mb in tree.iter_metablocks():
            if not mb.points:
                continue
            for blocking in (mb.vertical, mb.horizontal):
                stored = []
                for bid in blocking.block_ids:
                    stored.extend(blocking and tree.disk.peek(bid).records())
                assert sorted((p.x, p.y) for p in stored) == sorted((p.x, p.y) for p in mb.points)

    def test_corner_structures_only_where_needed(self, tree):
        for mb in tree.iter_metablocks():
            if mb.corner is not None:
                assert mb.needs_corner_structure()
            elif mb.points:
                assert not mb.needs_corner_structure()

    def test_control_block_exists_per_metablock(self, tree):
        for mb in tree.iter_metablocks():
            assert mb.control_block_id is not None
            header = tree.disk.peek(mb.control_block_id).header
            assert header["is_leaf"] == mb.is_leaf

    def test_query_reads_only_allocated_blocks(self, tree):
        """The query path never touches freed/foreign blocks (no KeyError)."""
        rnd = random.Random(0)
        for _ in range(20):
            tree.diagonal_query(rnd.uniform(-10, 1200))


class TestDynamicOrganisation:
    def test_pending_points_are_the_control_blocks_records(self):
        disk = SimulatedDisk(4)
        tree = AugmentedMetablockTree(disk, make_interval_points(100, seed=18))

        def pending():
            return [disk.peek(mb.control_block_id).records() for mb in tree.iter_metablocks()]

        assert all(isinstance(mb, DynamicMetablock) for mb in tree.iter_metablocks())
        assert not any(pending())  # no inserts yet -> no pending points
        point = PlanarPoint(1.0, 2.0)
        tree.insert(point)
        assert [p.uid for records in pending() for p in records] == [point.uid]

    def test_level_one_reorganisation_merges_the_pending_points(self):
        B = 4
        disk = SimulatedDisk(B)
        tree = AugmentedMetablockTree(disk)
        pts = [PlanarPoint(float(i), float(i + 1), payload=i) for i in range(B)]
        for p in pts:
            tree.insert(p)
        # B inserts into the root leaf trigger exactly one level I reorganisation
        assert len(tree.root.update_points) == 0
        assert len(tree.root.points) == B
        assert disk.peek(tree.root.control_block_id).records() == []

    def test_td_structures_track_descending_points(self):
        B = 4
        disk = SimulatedDisk(B)
        tree = AugmentedMetablockTree(disk, make_interval_points(400, seed=19))
        assert not tree.root.is_leaf
        before = len(tree.root.td_points) + len(tree.root.td_update_points)
        # a very low point descends past the root
        low_point = PlanarPoint(500.0, 500.0001, payload="low")
        tree.insert(low_point)
        after = len(tree.root.td_points) + len(tree.root.td_update_points)
        if any(low_point in (mb.points + mb.update_points)
               for mb in tree.iter_metablocks() if mb is not tree.root):
            assert after == before + 1

    def test_subtree_bounds_stretched_by_inserts(self):
        disk = SimulatedDisk(4)
        tree = AugmentedMetablockTree(disk, make_interval_points(200, seed=20))
        old_max_x = tree.root.subtree_max_x
        tree.insert(PlanarPoint(old_max_x + 100.0, old_max_x + 200.0))
        assert tree.root.subtree_max_x == old_max_x + 100.0
        assert tree.root.subtree_max_y >= old_max_x + 200.0

    def test_size_tracks_inserts(self):
        disk = SimulatedDisk(4)
        tree = AugmentedMetablockTree(disk)
        pts = make_interval_points(300, seed=21)
        tree.insert_many(pts)
        assert len(tree) == 300
        assert len(tree.all_points()) == 300


class TestThreeSidedOrganisation:
    @pytest.fixture(scope="class")
    def tree(self):
        disk = SimulatedDisk(block_size=4)
        return ThreeSidedMetablockTree(disk, make_points(700, seed=22, domain=(0.0, 100.0)))

    def test_every_metablock_has_its_own_pst(self, tree):
        for mb in tree.iter_metablocks():
            if mb.points:
                assert mb.pst is not None
                assert len(mb.pst) == len(mb.points)

    def test_internal_metablocks_have_children_pst(self, tree):
        for mb in tree.iter_metablocks():
            if not mb.is_leaf and mb.children:
                assert mb.children_pst is not None

    def test_two_ts_structures_per_inner_child(self, tree):
        """Lemma 4.3 point (5): TS structures for left *and* right siblings."""
        for mb in tree.iter_metablocks():
            if mb.is_leaf or len(mb.children) < 2:
                continue
            assert mb.children[0].ts_left is None
            assert mb.children[0].ts_right is not None
            assert mb.children[-1].ts_left is not None
            assert mb.children[-1].ts_right is None

    def test_desc_max_y_bounds_descendants(self, tree):
        for mb in tree.iter_metablocks():
            if mb.is_leaf or mb.desc_max_y is None:
                continue
            actual = [
                p.y
                for child in mb.children
                for p in self._subtree_points(child)
            ]
            if actual:
                assert max(actual) <= mb.desc_max_y

    @staticmethod
    def _subtree_points(mb):
        out = []
        stack = [mb]
        while stack:
            node = stack.pop()
            out.extend(node.points)
            out.extend(node.update_points)
            stack.extend(node.children)
        return out

    def test_block_count_consistent_with_disk(self, tree):
        assert tree.block_count() <= tree.disk.blocks_in_use
