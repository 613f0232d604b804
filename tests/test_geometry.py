"""Unit tests for the planar geometry helpers (Fig. 1 query taxonomy)."""

import pytest

from repro.metablock.geometry import (
    BoundingBox,
    DiagonalCornerQuery,
    PlanarPoint,
    RangeQuery,
    ThreeSidedQuery,
    TwoSidedQuery,
)


class TestQueryMatching:
    def test_diagonal_corner_query(self):
        q = DiagonalCornerQuery(corner=5)
        assert q.matches(PlanarPoint(3, 8))
        assert q.matches(PlanarPoint(5, 5))
        assert not q.matches(PlanarPoint(6, 8))
        assert not q.matches(PlanarPoint(3, 4))

    def test_two_sided_query(self):
        q = TwoSidedQuery(x_max=5, y_min=2)
        assert q.matches(PlanarPoint(5, 2))
        assert not q.matches(PlanarPoint(5.1, 2))
        assert not q.matches(PlanarPoint(5, 1.9))

    def test_three_sided_query(self):
        q = ThreeSidedQuery(x1=2, x2=6, y0=3)
        assert q.matches(PlanarPoint(2, 3))
        assert q.matches(PlanarPoint(6, 100))
        assert not q.matches(PlanarPoint(1.9, 5))
        assert not q.matches(PlanarPoint(3, 2.9))

    def test_three_sided_query_rejects_empty_range(self):
        with pytest.raises(ValueError):
            ThreeSidedQuery(x1=6, x2=2, y0=0)

    def test_range_query(self):
        q = RangeQuery(0, 10, 0, 10)
        assert q.matches(PlanarPoint(5, 5))
        assert not q.matches(PlanarPoint(5, 11))

    def test_query_hierarchy_from_figure_1(self):
        """Diagonal corner ⊂ 2-sided ⊂ 3-sided: every special query is expressible."""
        import math

        point = PlanarPoint(3, 7)
        corner = DiagonalCornerQuery(4)
        as_two_sided = TwoSidedQuery(x_max=4, y_min=4)
        as_three_sided = ThreeSidedQuery(x1=-math.inf, x2=4, y0=4)
        assert corner.matches(point) == as_two_sided.matches(point) == as_three_sided.matches(point)

    def test_filter_is_brute_force_oracle(self):
        pts = [PlanarPoint(i, 10 - i) for i in range(10)]
        assert len(DiagonalCornerQuery(5).filter(pts)) == len(
            [p for p in pts if p.x <= 5 and p.y >= 5]
        )


class TestBoundingBox:
    def test_of_points(self):
        box = BoundingBox.of([PlanarPoint(1, 5), PlanarPoint(3, 2), PlanarPoint(2, 9)])
        assert (box.min_x, box.max_x, box.min_y, box.max_y) == (1, 3, 2, 9)

    def test_of_empty_raises(self):
        with pytest.raises(ValueError):
            BoundingBox.of([])

    def test_region_predicates(self):
        box = BoundingBox.of([PlanarPoint(0, 0), PlanarPoint(10, 10)])
        assert box.contains_x(5)
        assert box.crosses_horizontal(10)
        assert box.entirely_above(-1)
        assert not box.entirely_above(1)
        assert box.entirely_below(11)
        assert box.entirely_left_of(10)
        assert box.entirely_right_of(-0.5)


class TestPlanarPoint:
    def test_point_ordering_and_str(self):
        assert PlanarPoint(1, 2) < PlanarPoint(1, 3) < PlanarPoint(2, 0)
        assert str(PlanarPoint(1, 2)) == "(1, 2)"
        assert PlanarPoint(1, 2).as_tuple() == (1, 2)
