"""Tests for the blocked priority search tree (Lemma 4.1)."""

import random

import pytest

from repro.analysis.complexity import external_pst_query_bound, linear_space_bound
from repro.io import SimulatedDisk
from repro.metablock.geometry import PlanarPoint, ThreeSidedQuery
from repro.pst import ExternalPST

from tests.conftest import brute_three_sided, make_points


class TestConstruction:
    def test_empty(self, disk):
        pst = ExternalPST(disk, [])
        assert len(pst) == 0
        assert pst.query_3sided(0, 10, 0) == []
        assert pst.block_count() == 0

    def test_single_point(self, disk):
        pst = ExternalPST(disk, [PlanarPoint(5, 7)])
        assert len(pst.query_3sided(0, 10, 0)) == 1
        assert pst.query_3sided(6, 10, 0) == []
        assert pst.query_3sided(0, 10, 8) == []

    def test_space_is_linear(self):
        B = 16
        for n in (500, 4_000):
            disk = SimulatedDisk(block_size=B)
            pst = ExternalPST(disk, make_points(n, seed=n))
            assert pst.block_count() <= 2 * linear_space_bound(n, B) + 2

    def test_heap_property_every_node_dominates_descendants(self):
        disk = SimulatedDisk(block_size=4)
        pst = ExternalPST(disk, make_points(300, seed=1))

        def check(block_id):
            if block_id is None:
                return
            block = disk.peek(block_id)
            min_y = block.header["min_y"]
            for child_key in ("left", "right"):
                child_id = block.header[child_key]
                if child_id is not None:
                    child = disk.peek(child_id)
                    assert all(p.y <= min_y for p in child.records())
                    check(child_id)

        check(pst.root_id)

    def test_destroy_frees_blocks(self, disk):
        before = disk.blocks_in_use
        pst = ExternalPST(disk, make_points(100, seed=2))
        assert disk.blocks_in_use > before
        pst.destroy()
        assert disk.blocks_in_use == before


class TestQueryCorrectness:
    @pytest.mark.parametrize("block_size,n", [(4, 300), (8, 800), (16, 1500)])
    def test_three_sided_matches_brute_force(self, block_size, n):
        disk = SimulatedDisk(block_size)
        pts = make_points(n, seed=n, domain=(0.0, 100.0))
        pst = ExternalPST(disk, pts)
        rnd = random.Random(n)
        for _ in range(40):
            x1 = rnd.uniform(-5, 100)
            x2 = x1 + rnd.uniform(0, 50)
            y0 = rnd.uniform(-5, 105)
            got = sorted((p.x, p.y) for p in pst.query_3sided(x1, x2, y0))
            assert got == brute_three_sided(pts, x1, x2, y0)

    def test_query_object_interface(self, disk):
        pts = make_points(100, seed=3, domain=(0.0, 50.0))
        pst = ExternalPST(disk, pts)
        q = ThreeSidedQuery(10, 30, 25)
        assert sorted((p.x, p.y) for p in pst.query(q)) == brute_three_sided(pts, 10, 30, 25)

    def test_two_sided_query(self, disk):
        pts = make_points(200, seed=4, domain=(0.0, 50.0))
        pst = ExternalPST(disk, pts)
        got = sorted((p.x, p.y) for p in pst.query_2sided(25, 25))
        assert got == sorted((p.x, p.y) for p in pts if p.x <= 25 and p.y >= 25)

    def test_duplicate_x_values(self, disk):
        pts = [PlanarPoint(5.0, float(i), payload=i) for i in range(100)]
        pst = ExternalPST(disk, pts)
        assert len(pst.query_3sided(5, 5, 50)) == 50
        assert len(pst.query_3sided(4, 6, 0)) == 100
        assert pst.query_3sided(6, 7, 0) == []


class TestIOBounds:
    """Lemma 4.1: O(log2 n + t/B) I/Os per 3-sided query."""

    def test_small_output_query_cost(self):
        B = 16
        n = 8_000
        disk = SimulatedDisk(block_size=B)
        pts = make_points(n, seed=5)
        pst = ExternalPST(disk, pts)
        y_top = max(p.y for p in pts)
        with disk.measure() as m:
            out = pst.query_3sided(0, 1000, y_top - 1e-9)
        assert len(out) <= 2
        assert m.ios <= 6 * external_pst_query_bound(n, B, len(out))

    def test_large_output_scales_with_t_over_b(self):
        B = 16
        n = 8_000
        disk = SimulatedDisk(block_size=B)
        pts = make_points(n, seed=6)
        pst = ExternalPST(disk, pts)
        with disk.measure() as m:
            out = pst.query_3sided(0, 1000, 0)
        assert len(out) == n
        assert m.ios <= 4 * (n / B) + 20
