"""Tests for the constraint data model (Section 2.1) and its 1-D index."""

import gc
import math
import random
import sys

import pytest

from repro.constraints import (
    Constraint,
    GeneralizedOneDimensionalIndex,
    GeneralizedRelation,
    GeneralizedTuple,
    var,
)
from repro.constraints.rectangles import (
    intersecting_pairs,
    rectangle_relation,
    rectangle_tuple,
    tuples_intersect,
)
from repro.constraints.relation import GeneralizedDatabase
from repro.constraints.terms import UNBOUNDED_HIGH, UNBOUNDED_LOW
from repro.engine import Engine, Range, Stab
from repro.errors import DuplicateError
from repro.io import FileDisk, SimulatedDisk
from repro.io import pagecodec

X, Y = var("x"), var("y")


class TestConstraint:
    def test_invalid_operator_rejected(self):
        with pytest.raises(ValueError):
            Constraint(X, "!=", 3)

    def test_lhs_must_be_variable(self):
        with pytest.raises(TypeError):
            Constraint(3, "<", X)

    def test_evaluate_all_operators(self):
        assignment = {"x": 5, "y": 7}
        assert Constraint(X, "<", 6).evaluate(assignment)
        assert Constraint(X, "<=", 5).evaluate(assignment)
        assert Constraint(X, "=", 5).evaluate(assignment)
        assert Constraint(X, ">=", 5).evaluate(assignment)
        assert Constraint(X, ">", 4).evaluate(assignment)
        assert Constraint(X, "<", Y).evaluate(assignment)
        assert not Constraint(Y, "<", X).evaluate(assignment)

    def test_variables(self):
        assert Constraint(X, "<", Y).variables() == {"x", "y"}
        assert Constraint(X, "<", 3).variables() == {"x"}


class TestGeneralizedTuple:
    def test_satisfiable_simple_box(self):
        gt = GeneralizedTuple([Constraint(X, ">=", 1), Constraint(X, "<=", 5)])
        assert gt.is_satisfiable()
        assert gt.projection("x") == (1.0, 5.0)

    def test_unsatisfiable_contradiction(self):
        gt = GeneralizedTuple([Constraint(X, ">", 5), Constraint(X, "<", 3)])
        assert not gt.is_satisfiable()

    def test_unsatisfiable_strict_cycle(self):
        gt = GeneralizedTuple([Constraint(X, "<", Y), Constraint(Y, "<", X)])
        assert not gt.is_satisfiable()

    def test_satisfiable_equality_cycle(self):
        gt = GeneralizedTuple([Constraint(X, "<=", Y), Constraint(Y, "<=", X)])
        assert gt.is_satisfiable()

    def test_transitive_propagation_through_variables(self):
        """x <= y and y <= 5 must bound x's projection."""
        gt = GeneralizedTuple(
            [Constraint(X, "<=", Y), Constraint(Y, "<=", 5), Constraint(X, ">=", 1)]
        )
        assert gt.projection("x") == (1.0, 5.0)
        assert gt.projection("y") == (1.0, 5.0)

    def test_projection_unbounded_directions(self):
        gt = GeneralizedTuple([Constraint(X, ">=", 2)])
        low, high = gt.projection("x")
        assert low == 2.0 and high == UNBOUNDED_HIGH
        low, high = gt.projection("missing")
        assert low == UNBOUNDED_LOW and high == UNBOUNDED_HIGH

    def test_equality_projection_is_degenerate(self):
        gt = GeneralizedTuple([Constraint(X, "=", 7)])
        assert gt.projection("x") == (7.0, 7.0)

    def test_conjoin_creates_new_tuple(self):
        gt = GeneralizedTuple([Constraint(X, ">=", 0)], name="t")
        extended = gt.conjoin(Constraint(X, "<=", 3))
        assert len(gt) == 1 and len(extended) == 2
        assert extended.name == "t"
        assert extended.projection("x") == (0.0, 3.0)

    def test_evaluate_point_membership(self):
        gt = rectangle_tuple("r", 0, 0, 10, 5)
        assert gt.evaluate({"x": 5, "y": 2})
        assert not gt.evaluate({"x": 5, "y": 6})

    def test_arity_and_variables(self):
        gt = rectangle_tuple("r", 0, 0, 1, 1)
        assert gt.variables() == {"x", "y"}
        assert gt.arity == 2

    def test_empty_tuple_is_satisfiable_everywhere(self):
        gt = GeneralizedTuple([])
        assert gt.is_satisfiable()
        assert gt.projection("x") == (UNBOUNDED_LOW, UNBOUNDED_HIGH)


class TestGeneralizedRelation:
    def _relation(self):
        tuples = [
            GeneralizedTuple([Constraint(X, ">=", i), Constraint(X, "<=", i + 10)], name=i)
            for i in range(0, 100, 10)
        ]
        return GeneralizedRelation(["x"], tuples, name="bands")

    def test_schema_enforced(self):
        with pytest.raises(ValueError):
            GeneralizedRelation(["x"], [GeneralizedTuple([Constraint(Y, "<", 1)])])

    def test_add_and_discard(self):
        rel = self._relation()
        extra = GeneralizedTuple([Constraint(X, "=", 500)], name="extra")
        rel.add(extra)
        assert len(rel) == 11
        assert rel.discard(extra)
        assert not rel.discard(extra)

    def test_tuples_stay_in_insertion_order_across_discards(self):
        rel = self._relation()
        held = rel.tuples
        rel.discard(held[3])
        rel.add(held[3])
        assert rel.tuples == held[:3] + held[4:] + [held[3]]
        # an equal copy is not the held tuple: discard goes by identity
        assert not rel.discard(GeneralizedTuple(list(held[0].constraints), name=held[0].name))

    def test_a_discards_opcode_count_does_not_grow_with_the_relation(self):
        """A delete finds its tuple by identity, in O(1), wherever it sits."""

        def opcodes(fn):
            count = 0

            def tracer(frame, event, arg):
                nonlocal count
                frame.f_trace_opcodes = True
                count += event == "opcode"
                return tracer

            # no collection mid-call: a finalizer it ran would be counted
            gc.collect()
            gc.disable()
            sys.settrace(tracer)
            try:
                fn()
            finally:
                sys.settrace(None)
                gc.enable()
            return count

        costs = []
        for n in (2_000, 32_000):
            tuples = [GeneralizedTuple([Constraint(X, "=", i)], name=i) for i in range(n)]
            rel = GeneralizedRelation(["x"], tuples)
            costs.append([opcodes(lambda: rel.discard(tuples[i])) for i in (0, n // 2, n - 1)])
            assert len(rel) == n - 3
        assert costs[0] == costs[1]

    def test_select_prunes_unsatisfiable(self):
        rel = self._relation()
        selected = rel.select(Constraint(X, ">=", 95), Constraint(X, "<=", 98))
        assert len(selected) == 1
        unpruned = rel.select(Constraint(X, ">=", 95), Constraint(X, "<=", 98), prune=False)
        assert len(unpruned) == 10

    def test_contains_point(self):
        rel = self._relation()
        assert rel.contains_point({"x": 55})
        assert not rel.contains_point({"x": 200})

    def test_database_container(self):
        db = GeneralizedDatabase()
        db.add_relation(self._relation())
        assert len(db) == 1
        assert db["bands"].name == "bands"


class TestGeneralizedIndex:
    def _random_rectangles(self, n, seed=0):
        rnd = random.Random(seed)
        rects = []
        for i in range(n):
            a, b = rnd.uniform(0, 500), rnd.uniform(0, 500)
            rects.append((f"r{i}", a, b, a + rnd.uniform(1, 40), b + rnd.uniform(1, 40)))
        return rects

    def test_attribute_must_exist(self):
        rel = rectangle_relation(self._random_rectangles(5))
        with pytest.raises(ValueError):
            GeneralizedOneDimensionalIndex(SimulatedDisk(8), rel, "z")

    def test_candidate_tuples_match_projection_semantics(self):
        rel = rectangle_relation(self._random_rectangles(150, seed=1))
        index = GeneralizedOneDimensionalIndex(SimulatedDisk(8), rel, "x")
        rnd = random.Random(1)
        for _ in range(25):
            lo = rnd.uniform(0, 550)
            hi = lo + rnd.uniform(0, 80)
            expected = sorted(
                gt.name
                for gt in rel.tuples
                if gt.projection("x")[0] <= hi and lo <= gt.projection("x")[1]
            )
            got = sorted(gt.name for gt in index.candidate_tuples(lo, hi))
            assert got == expected

    def test_range_query_represents_correct_point_set(self):
        rel = rectangle_relation(self._random_rectangles(80, seed=2))
        index = GeneralizedOneDimensionalIndex(SimulatedDisk(8), rel, "x")
        restricted = index.range_query(100, 200)
        rnd = random.Random(2)
        for _ in range(200):
            point = {"x": rnd.uniform(0, 600), "y": rnd.uniform(0, 600)}
            in_original = rel.contains_point(point) and 100 <= point["x"] <= 200
            assert restricted.contains_point(point) == in_original

    def test_insert_updates_index(self):
        rel = rectangle_relation(self._random_rectangles(30, seed=3))
        index = GeneralizedOneDimensionalIndex(SimulatedDisk(8), rel, "x")
        new = rectangle_tuple("fresh", 1000, 0, 1010, 10)
        index.insert(new)
        assert "fresh" in {gt.name for gt in index.stabbing_tuples(1005)}
        assert len(index) == 31

    def test_stabbing_tuples(self):
        rel = rectangle_relation([("a", 0, 0, 10, 10), ("b", 20, 0, 30, 10)])
        index = GeneralizedOneDimensionalIndex(SimulatedDisk(4), rel, "x")
        assert {gt.name for gt in index.stabbing_tuples(5)} == {"a"}
        assert {gt.name for gt in index.stabbing_tuples(25)} == {"b"}
        assert index.stabbing_tuples(15) == []


class TestTuplesAreValues:
    """A tuple carries no uid: the index identifies it by its value, so a
    copy decoded from a page or replayed from the WAL names the tuple that
    was written."""

    @staticmethod
    def _tuples(start, stop):
        return [
            GeneralizedTuple([Constraint(X, ">=", i), Constraint(X, "<=", i + 10)], name=f"t{i}")
            for i in range(start, stop)
        ]

    @staticmethod
    def _names(engine):
        return sorted(gt.name for gt in engine.query("c", Range(-1.0, 100.0)))

    def test_a_decoded_copy_deletes_its_tuple(self, tmp_path):
        tuples = self._tuples(0, 10)
        with Engine(FileDisk(str(tmp_path / "db.pages"), block_size=8)) as engine:
            engine.create_constraint_index("c", GeneralizedRelation(["x"], tuples, name="r"), "x")
            copy = next(gt for gt in engine.query("c", Stab(3.5)) if gt.name == "t3")
            assert copy == tuples[3] and copy is not tuples[3]
            assert engine.delete("c", copy)
            assert "t3" not in {gt.name for gt in engine.query("c", Stab(3.5))}
            assert engine.delete("c", copy) is False

    def test_an_acknowledged_delete_survives_wal_replay(self, tmp_path):
        path = str(tmp_path / "db.pages")
        tuples = self._tuples(0, 10)
        engine = Engine.open_or_create(path, block_size=8)
        engine.create_constraint_index("c", GeneralizedRelation(["x"], tuples, name="r"), "x")
        engine.checkpoint()
        extra = self._tuples(50, 51)[0]
        engine.insert("c", extra)
        assert engine.delete("c", tuples[3])
        assert engine.delete("c", extra)
        want = self._names(engine)
        assert "t3" not in want and "t50" not in want
        # a crash: the pages keep the checkpoint, the log the acknowledged
        # writes, and the replayed deletes carry decoded copies of the tuples
        engine.wal.close()
        engine.backend.close()
        with Engine.open(path) as reopened:
            assert self._names(reopened) == want

    def test_an_equal_copy_of_a_live_tuple_is_a_duplicate(self):
        tuples = self._tuples(0, 30)
        index = GeneralizedOneDimensionalIndex(SimulatedDisk(4), GeneralizedRelation(["x"], tuples), "x")
        twin = pagecodec.decode(pagecodec.encode(1, [tuples[7]], {}))[3].tolist()[0]
        assert twin == tuples[7] and twin is not tuples[7]
        with pytest.raises(DuplicateError):
            index.insert(twin)
        with pytest.raises(DuplicateError):
            index.bulk_load([twin])
        assert len(index) == len(index.relation) == 30
        # deleted, the tuple is free again, and its re-insert revives the
        # stored version instead of writing a second row
        blocks = index.block_count()
        assert index.delete(tuples[7])
        index.insert(twin)
        assert len(index) == len(index.relation) == 30
        assert index.block_count() == blocks
        assert [gt.name for gt in index.stabbing_tuples(7.5)].count("t7") == 1

    def test_a_delete_by_value_compares_no_other_tuple(self, monkeypatch):
        """The value finds the interval, and the interval the held object:
        the relation is not scanned with ``==`` (a call per held tuple)."""
        tuples = self._tuples(0, 500)
        index = GeneralizedOneDimensionalIndex(SimulatedDisk(8), GeneralizedRelation(["x"], tuples), "x")
        twin = pagecodec.decode(pagecodec.encode(1, [tuples[400]], {}))[3].tolist()[0]
        compared = []
        eq = GeneralizedTuple.__eq__
        monkeypatch.setattr(GeneralizedTuple, "__eq__", lambda a, b: compared.append(b) or eq(a, b))
        assert index.delete(twin)
        assert len(compared) <= 2 and tuples[400] not in index.relation.tuples

    def test_the_keys_of_deleted_tuples_last_until_the_next_rebuild(self):
        tuples = self._tuples(0, 40)
        index = GeneralizedOneDimensionalIndex(SimulatedDisk(4), GeneralizedRelation(["x"], tuples), "x")
        for gt in tuples[:30]:  # far past the tombstone threshold
            assert index.delete(gt)
        assert index.generation > 0
        # only the deletes since the last rebuild keep their key
        assert tuples[29] in index._retired and len(index._retired) < 30


class TestRectangleExample:
    """Example 2.1: all pairs of distinct intersecting rectangles."""

    def _brute(self, rects):
        out = set()
        for i, (n1, a1, b1, c1, d1) in enumerate(rects):
            for n2, a2, b2, c2, d2 in rects[i + 1 :]:
                if a1 <= c2 and a2 <= c1 and b1 <= d2 and b2 <= d1:
                    out.add(frozenset((n1, n2)))
        return out

    def test_rectangle_tuple_validation(self):
        with pytest.raises(ValueError):
            rectangle_tuple("bad", 5, 0, 1, 10)

    def test_tuples_intersect_matches_geometry(self):
        a = rectangle_tuple("a", 0, 0, 10, 10)
        b = rectangle_tuple("b", 5, 5, 15, 15)
        c = rectangle_tuple("c", 11, 11, 20, 20)
        assert tuples_intersect(a, b)
        assert not tuples_intersect(a, c)
        assert tuples_intersect(b, c)

    def test_intersecting_pairs_naive_vs_indexed(self):
        rnd = random.Random(5)
        rects = []
        for i in range(60):
            a, b = rnd.uniform(0, 100), rnd.uniform(0, 100)
            rects.append((f"r{i}", a, b, a + rnd.uniform(1, 25), b + rnd.uniform(1, 25)))
        rel = rectangle_relation(rects)
        index = GeneralizedOneDimensionalIndex(SimulatedDisk(8), rel, "x")
        expected = self._brute(rects)
        assert set(map(frozenset, intersecting_pairs(rel))) == expected
        assert set(map(frozenset, intersecting_pairs(rel, index))) == expected

    def test_indexed_join_on_file_pages_matches_naive(self, tmp_path):
        """On FileDisk every candidate is a decoded copy: neither the
        self-pair skip nor the pair dedup may rely on object identity."""
        rnd = random.Random(5)
        rects = []
        for i in range(60):
            a, b = rnd.uniform(0, 100), rnd.uniform(0, 100)
            rects.append((f"r{i}", a, b, a + rnd.uniform(1, 25), b + rnd.uniform(1, 25)))
        rel = rectangle_relation(rects)
        with FileDisk(str(tmp_path / "rects.pages"), block_size=8) as disk:
            indexed = intersecting_pairs(rel, GeneralizedOneDimensionalIndex(disk, rel, "x"))
        naive = intersecting_pairs(rel)
        assert len(indexed) == len(naive) == len(set(map(frozenset, naive)))
        assert set(map(frozenset, indexed)) == set(map(frozenset, naive)) == self._brute(rects)

    def test_touching_rectangles_intersect(self):
        rel = rectangle_relation([("a", 0, 0, 10, 10), ("b", 10, 10, 20, 20)])
        assert set(map(frozenset, intersecting_pairs(rel))) == {frozenset(("a", "b"))}
