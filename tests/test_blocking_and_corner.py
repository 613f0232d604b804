"""Unit tests for the blockings (Fig. 9) and the corner structure (Lemma 3.1)."""

import random

import pytest

from repro.io import SimulatedDisk
from repro.metablock import blocking as blk
from repro.metablock.corner import CornerStructure
from repro.metablock.geometry import PlanarPoint

from tests.conftest import make_interval_points


class TestBlockings:
    def test_vertical_blocking_orders_by_x(self, disk):
        pts = [PlanarPoint(x, 100 - x) for x in (5, 1, 9, 3, 7)]
        blocking = blk.build_vertical(disk, pts)
        stored = []
        for bid in blocking.block_ids:
            stored.extend(p.x for p in disk.peek(bid).records())
        assert stored == sorted(stored)

    def test_horizontal_blocking_orders_by_descending_y(self, disk):
        pts = [PlanarPoint(x, x * 2) for x in range(20)]
        blocking = blk.build_horizontal(disk, pts)
        stored = []
        for bid in blocking.block_ids:
            stored.extend(p.y for p in disk.peek(bid).records())
        assert stored == sorted(stored, reverse=True)

    def test_block_count_is_ceiling_of_n_over_b(self, disk):
        pts = [PlanarPoint(i, i) for i in range(21)]
        blocking = blk.build_vertical(disk, pts)  # B = 8 -> 3 blocks
        assert len(blocking) == 3

    def test_bounds_record_first_and_last_key(self, disk):
        pts = [PlanarPoint(i, 50 - i) for i in range(16)]
        blocking = blk.build_vertical(disk, pts)
        assert blocking.bounds[0] == (0, 7)
        assert blocking.bounds[1] == (8, 15)

    def test_scan_vertical_stops_at_boundary(self, disk):
        pts = [PlanarPoint(i, 100) for i in range(64)]
        blocking = blk.build_vertical(disk, pts)
        batches, reads = blk.scan_vertical_upto(disk, blocking, 10.5)
        assert sorted(p.x for batch in batches for p in batch) == list(range(11))
        # 11 points with B=8 -> 2 blocks, at most one of them partially useful
        assert reads == 2

    def test_scan_horizontal_stops_at_boundary(self, disk):
        pts = [PlanarPoint(0, i) for i in range(64)]
        blocking = blk.build_horizontal(disk, pts)
        batches, reads = blk.scan_horizontal_downto(disk, blocking, 55.0)
        assert sorted(p.y for batch in batches for p in batch) == list(range(55, 64))
        assert reads <= 2

    def test_scan_horizontal_tests_the_x_sides_given(self, disk):
        pts = [PlanarPoint(i % 7, i // 2) for i in range(64)]
        blocking = blk.build_horizontal(disk, pts)
        for x_min, x_max in ((None, None), (2, None), (None, 4), (2, 4), (3, 3)):
            batches, _ = blk.scan_horizontal_downto(disk, blocking, 20, None, x_min, x_max)
            expected = [
                p.uid for p in pts
                if p.y >= 20 and (x_min is None or p.x >= x_min) and (x_max is None or p.x <= x_max)
            ]
            assert sorted(p.uid for batch in batches for p in batch) == sorted(expected)

    def test_scan_counts_ios_on_disk(self, disk):
        pts = [PlanarPoint(i, i) for i in range(40)]
        blocking = blk.build_vertical(disk, pts)
        with disk.measure() as m:
            blk.scan_vertical_upto(disk, blocking, 1000)
        assert m.ios == len(blocking)

    def test_free_releases_blocks(self, disk):
        pts = [PlanarPoint(i, i) for i in range(40)]
        blocking = blk.build_vertical(disk, pts)
        used_before = disk.blocks_in_use
        blocking.free(disk)
        assert disk.blocks_in_use == used_before - 5
        assert len(blocking) == 0


class TestCornerStructure:
    @pytest.mark.parametrize("n", [0, 1, 7, 30, 120])
    def test_matches_brute_force(self, n):
        disk = SimulatedDisk(block_size=4)
        pts = make_interval_points(n, seed=n)
        corner = CornerStructure(disk, pts)
        rnd = random.Random(n)
        queries = [rnd.uniform(-50, 1100) for _ in range(30)] + [p.x for p in pts[:5]]
        for q in queries:
            expected = sorted((p.x, p.y) for p in pts if p.x <= q and p.y >= q)
            got, _ = corner.query(q)
            assert sorted((p.x, p.y) for p in got) == expected

    def test_empty_structure_costs_nothing(self, disk):
        corner = CornerStructure(disk, [])
        pts, ios = corner.query(5)
        assert pts == [] and ios == 0

    def test_space_is_linear(self):
        disk = SimulatedDisk(block_size=8)
        pts = make_interval_points(256, seed=1)
        corner = CornerStructure(disk, pts)
        # Lemma 3.1: O(|S|/B) blocks; the explicit corner sets add at most ~2x,
        # the vertical blocking 1x, plus the index block.
        assert corner.block_count() <= 6 * (256 / 8) + 2

    def test_query_io_is_proportional_to_output(self):
        disk = SimulatedDisk(block_size=8)
        pts = make_interval_points(512, seed=2)
        corner = CornerStructure(disk, pts)
        # a query with tiny output should touch only a handful of blocks
        q_small = max(p.y for p in pts) - 1e-9
        _, ios_small = corner.query(q_small)
        assert ios_small <= 6
        # a query with large output may touch O(t/B) blocks but not more
        q_large = sorted(p.x for p in pts)[len(pts) // 2]
        out, ios_large = corner.query(q_large)
        assert sorted((p.x, p.y) for p in out) == sorted(
            (p.x, p.y) for p in pts if p.x <= q_large and p.y >= q_large
        )
        assert ios_large <= 3 * (max(len(out), 1) / 8) + 6

    def test_destroy_frees_blocks(self, disk):
        pts = make_interval_points(64, seed=3)
        before = disk.blocks_in_use
        corner = CornerStructure(disk, pts)
        assert disk.blocks_in_use > before
        corner.destroy()
        assert disk.blocks_in_use == before

    def test_duplicate_coordinates_handled(self, disk):
        pts = [PlanarPoint(5.0, 10.0, payload=i) for i in range(30)]
        corner = CornerStructure(disk, pts)
        got, _ = corner.query(7.0)
        assert len(got) == 30
        got, _ = corner.query(11.0)
        assert got == []
