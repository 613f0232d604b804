"""Unit tests for the naive interval oracle (``tests/naive_index.py``).

The in-core interval tree, segment tree and priority search tree this file
also used to cover left the repository in PR 17 (nothing used them); the
oracle's tests keep their ids.
"""

import random

import pytest

from repro.interval import Interval

from tests.conftest import make_intervals
from tests.naive_index import NaiveIntervalIndex


ALL_STRUCTURES = [NaiveIntervalIndex]


def build(factory, intervals):
    return factory(intervals)


class TestStabbingQueries:
    @pytest.mark.parametrize("factory", ALL_STRUCTURES)
    def test_empty_structure(self, factory):
        structure = build(factory, [])
        assert structure.stabbing_query(5) == []

    @pytest.mark.parametrize("factory", ALL_STRUCTURES)
    def test_single_interval(self, factory):
        structure = build(factory, [Interval(2, 8, payload="x")])
        assert [iv.payload for iv in structure.stabbing_query(5)] == ["x"]
        assert structure.stabbing_query(1) == []
        assert structure.stabbing_query(9) == []

    @pytest.mark.parametrize("factory", ALL_STRUCTURES)
    def test_endpoint_stabbing(self, factory):
        structure = build(factory, [Interval(2, 8)])
        assert len(structure.stabbing_query(2)) == 1
        assert len(structure.stabbing_query(8)) == 1

    @pytest.mark.parametrize("factory", ALL_STRUCTURES)
    def test_matches_brute_force_on_random_workload(self, factory):
        intervals = make_intervals(400, seed=11)
        structure = build(factory, intervals)
        rnd = random.Random(5)
        for _ in range(60):
            q = rnd.uniform(-20, 1100)
            expected = sorted((iv.low, iv.high) for iv in intervals if iv.low <= q <= iv.high)
            got = sorted((iv.low, iv.high) for iv in structure.stabbing_query(q))
            assert got == expected

    @pytest.mark.parametrize("factory", ALL_STRUCTURES)
    def test_nested_intervals_all_stabbed_at_centre(self, factory):
        nested = [Interval(0 + i, 100 - i) for i in range(40)]
        structure = build(factory, nested)
        assert len(structure.stabbing_query(50)) == 40


class TestIntersectionQueries:
    @pytest.mark.parametrize("factory", ALL_STRUCTURES)
    def test_matches_brute_force(self, factory):
        intervals = make_intervals(300, seed=3)
        structure = build(factory, intervals)
        rnd = random.Random(3)
        for _ in range(40):
            lo = rnd.uniform(-20, 1050)
            hi = lo + rnd.uniform(0, 120)
            expected = sorted((iv.low, iv.high) for iv in intervals if iv.intersects_range(lo, hi))
            got = sorted((iv.low, iv.high) for iv in structure.intersection_query(lo, hi))
            assert got == expected


class TestDynamicUpdates:
    def test_naive_delete(self):
        naive = NaiveIntervalIndex([Interval(1, 2), Interval(3, 4)])
        assert naive.delete(Interval(1, 2))
        assert not naive.delete(Interval(9, 10))
        assert len(naive) == 1
