"""Unit tests for the external B+-tree."""

import random

import pytest

from repro.analysis.complexity import btree_query_bound
from repro.btree import BPlusTree
from repro.io import SimulatedDisk


class TestBasicOperations:
    def test_empty_tree(self, disk):
        tree = BPlusTree(disk)
        assert len(tree) == 0
        assert tree.search(5) == []
        assert tree.range_search(0, 10) == []
        assert tree.min_key() is None and tree.max_key() is None

    def test_single_insert_and_search(self, disk):
        tree = BPlusTree(disk)
        tree.insert(5, "five")
        assert tree.search(5) == ["five"]
        assert tree.contains(5)
        assert not tree.contains(6)

    def test_inserts_preserve_sorted_order(self, disk):
        tree = BPlusTree(disk)
        keys = [9, 1, 7, 3, 5, 8, 2, 6, 4, 0]
        for k in keys:
            tree.insert(k, k * 10)
        assert [k for k, _ in tree.iter_pairs()] == sorted(keys)

    def test_duplicate_keys_all_returned(self, disk):
        tree = BPlusTree(disk)
        for i in range(20):
            tree.insert(7, i)
        assert sorted(tree.search(7)) == list(range(20))

    def test_min_max_keys(self, disk):
        tree = BPlusTree(disk)
        for k in [5, 3, 9, 1, 7]:
            tree.insert(k, None)
        assert tree.min_key() == 1
        assert tree.max_key() == 9

    def test_range_search_inclusive_bounds(self, disk):
        tree = BPlusTree(disk)
        for k in range(10):
            tree.insert(k, k)
        assert [k for k, _ in tree.range_search(3, 6)] == [3, 4, 5, 6]

    def test_range_search_empty_range(self, disk):
        tree = BPlusTree(disk)
        for k in range(10):
            tree.insert(k, k)
        assert tree.range_search(6, 3) == []
        assert tree.range_search(100, 200) == []

    def test_string_keys(self, disk):
        tree = BPlusTree(disk)
        for word in ["pear", "apple", "plum", "fig", "kiwi"]:
            tree.insert(word, word.upper())
        assert tree.search("fig") == ["FIG"]
        assert [k for k, _ in tree.range_search("a", "l")] == ["apple", "fig", "kiwi"]


class TestRandomizedAgainstOracle:
    @pytest.mark.parametrize("block_size", [4, 8, 32])
    def test_range_queries_match_brute_force(self, block_size):
        rnd = random.Random(block_size)
        disk = SimulatedDisk(block_size)
        tree = BPlusTree(disk)
        data = []
        for i in range(600):
            k = rnd.randint(0, 300)
            data.append((k, i))
            tree.insert(k, i)
        for _ in range(40):
            lo = rnd.randint(-10, 310)
            hi = lo + rnd.randint(0, 60)
            expected = sorted((k, v) for k, v in data if lo <= k <= hi)
            assert sorted(tree.range_search(lo, hi)) == expected

    def test_interleaved_insert_delete(self, disk):
        rnd = random.Random(7)
        tree = BPlusTree(disk)
        live = []
        for i in range(500):
            if live and rnd.random() < 0.3:
                k, v = live.pop(rnd.randrange(len(live)))
                assert tree.delete(k, v)
            else:
                k = rnd.randint(0, 100)
                live.append((k, i))
                tree.insert(k, i)
        assert sorted(tree.iter_pairs()) == sorted(live)
        assert len(tree) == len(live)


class TestBulkLoad:
    def test_bulk_load_matches_incremental(self, disk):
        data = [(i % 53, i) for i in range(400)]
        bulk = BPlusTree.bulk_load(SimulatedDisk(8), data)
        incremental = BPlusTree(SimulatedDisk(8))
        for k, v in data:
            incremental.insert(k, v)
        assert sorted(bulk.iter_pairs()) == sorted(incremental.iter_pairs())

    def test_bulk_load_empty(self, disk):
        tree = BPlusTree.bulk_load(disk, [])
        assert len(tree) == 0
        assert tree.range_search(0, 10) == []

    def test_bulk_load_unsorted_input(self, disk):
        tree = BPlusTree.bulk_load(disk, [(3, "c"), (1, "a"), (2, "b")])
        assert [k for k, _ in tree.iter_pairs()] == [1, 2, 3]

    def test_bulk_load_packs_leaves(self):
        disk = SimulatedDisk(block_size=10)
        n = 1000
        tree = BPlusTree.bulk_load(disk, ((i, i) for i in range(n)))
        # optimal packing: n/B leaves plus a small number of internal nodes
        assert tree.block_count() <= (n // 10) * 1.3 + 5

    def test_rebuild_replaces_the_contents_of_the_same_tree(self, disk):
        tree = BPlusTree.bulk_load(disk, [(i, i) for i in range(100)])
        fresh = BPlusTree.bulk_load(SimulatedDisk(disk.block_size), [(i, -i) for i in range(40, 300)])
        tree.rebuild((i, -i) for i in range(299, 39, -1))
        assert list(tree.iter_pairs()) == list(fresh.iter_pairs())
        assert (tree.size, tree.height) == (fresh.size, fresh.height)
        # packed like a fresh bulk build, and the old levels were freed
        assert tree.block_count() == fresh.block_count() == disk.blocks_in_use
        tree.rebuild([])
        assert (len(tree), tree.block_count(), disk.blocks_in_use) == (0, 1, 1)

    def test_failing_rebuild_leaves_the_tree_intact(self, disk):
        tree = BPlusTree.bulk_load(disk, [(i, i) for i in range(100)])
        root, blocks = tree.root_id, disk.blocks_in_use
        with pytest.raises(TypeError):
            tree.rebuild([(1, "x"), ("a", "y")])  # keys that do not compare
        assert (tree.root_id, tree.size, disk.blocks_in_use) == (root, 100, blocks)
        assert len(tree.range_search(0, 99)) == 100


class TestDeletion:
    def test_delete_missing_returns_false(self, disk):
        tree = BPlusTree(disk)
        tree.insert(1, "a")
        assert not tree.delete(2)
        assert not tree.delete(1, "wrong-value")

    def test_delete_specific_value_among_duplicates(self, disk):
        tree = BPlusTree(disk)
        for i in range(5):
            tree.insert(9, i)
        assert tree.delete(9, 3)
        assert sorted(tree.search(9)) == [0, 1, 2, 4]

    def test_delete_reduces_size(self, disk):
        tree = BPlusTree(disk)
        for i in range(10):
            tree.insert(i, i)
        tree.delete(4)
        assert len(tree) == 9


class TestIOBehaviour:
    """The paper's reference bounds (Section 1.1)."""

    def test_space_is_linear_in_n_over_b(self):
        for n in (500, 2000, 8000):
            disk = SimulatedDisk(block_size=16)
            tree = BPlusTree.bulk_load(disk, ((i, i) for i in range(n)))
            assert tree.block_count() <= 3 * (n / 16) + 5

    def test_point_search_is_logarithmic(self):
        n = 20_000
        disk = SimulatedDisk(block_size=32)
        tree = BPlusTree.bulk_load(disk, ((i, i) for i in range(n)))
        with disk.measure() as m:
            tree.search(n // 3)
        assert m.ios <= 4 * btree_query_bound(n, 32, 1)

    def test_range_search_output_term_scales_with_t_over_b(self):
        n = 20_000
        B = 32
        disk = SimulatedDisk(block_size=B)
        tree = BPlusTree.bulk_load(disk, ((i, i) for i in range(n)))
        costs = {}
        for t in (32, 320, 3200):
            with disk.measure() as m:
                out = tree.range_search(0, t - 1)
            assert len(out) == t
            costs[t] = m.ios
        # cost grows roughly linearly in t/B once the logarithmic term is paid
        assert costs[3200] - costs[320] >= 2 * (costs[320] - costs[32])
        assert costs[3200] <= 4 * btree_query_bound(n, B, 3200)

    def test_insert_is_logarithmic(self):
        disk = SimulatedDisk(block_size=32)
        tree = BPlusTree.bulk_load(disk, ((i, i) for i in range(10_000)))
        with disk.measure() as m:
            tree.insert(5000.5, "new")
        assert m.ios <= 6 * btree_query_bound(10_000, 32, 1)
