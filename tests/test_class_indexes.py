"""Tests for every class-indexing scheme against a brute-force oracle.

Covers the baselines of Section 2.2, the simple index of Theorem 2.6 and the
combined index of Theorem 4.7, over several hierarchy shapes.
"""

import math
import random
from collections import Counter

import pytest

from repro.analysis.complexity import (
    combined_class_query_bound,
    simple_class_query_bound,
    simple_class_space_bound,
)
from repro.classes import (
    CombinedClassIndex,
    ExtentPerClassIndex,
    FullExtentPerClassIndex,
    SimpleClassIndex,
    SingleCollectionIndex,
)
from repro.classes.hierarchy import ClassObject, people_hierarchy
from repro.core import ClassIndexer
from repro.io import SimulatedDisk
from repro.workloads import (
    balanced_hierarchy,
    chain_hierarchy,
    random_class_objects,
    random_hierarchy,
    star_hierarchy,
)

ALL_SCHEMES = [
    SingleCollectionIndex,
    FullExtentPerClassIndex,
    ExtentPerClassIndex,
    SimpleClassIndex,
    CombinedClassIndex,
]

HIERARCHIES = {
    "people": people_hierarchy(),
    "random": random_hierarchy(25, seed=1),
    "chain": chain_hierarchy(12),
    "star": star_hierarchy(20),
    "balanced": balanced_hierarchy(2, 3),
    "forest": random_hierarchy(18, seed=2, roots=3),
}


def brute_force(hierarchy, objects, class_name, low, high):
    wanted = set(hierarchy.descendants(class_name))
    return sorted(
        (o.key, o.payload) for o in objects if o.class_name in wanted and low <= o.key <= high
    )


class TestCorrectnessAcrossSchemes:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("shape", sorted(HIERARCHIES))
    def test_bulk_build_queries(self, scheme, shape):
        hierarchy = HIERARCHIES[shape]
        objects = random_class_objects(hierarchy, 400, seed=hash(shape) % 1000)
        index = scheme(SimulatedDisk(8), hierarchy, objects)
        rnd = random.Random(7)
        for _ in range(12):
            cls = rnd.choice(hierarchy.classes())
            lo = rnd.uniform(0, 1000)
            hi = lo + rnd.uniform(0, 400)
            got = sorted((o.key, o.payload) for o in index.query(cls, lo, hi))
            assert got == brute_force(hierarchy, objects, cls, lo, hi)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_incremental_inserts(self, scheme):
        hierarchy = HIERARCHIES["random"]
        objects = random_class_objects(hierarchy, 500, seed=11)
        index = scheme(SimulatedDisk(8), hierarchy, objects[:200])
        for obj in objects[200:]:
            index.insert(obj)
        rnd = random.Random(11)
        for _ in range(15):
            cls = rnd.choice(hierarchy.classes())
            lo = rnd.uniform(0, 1000)
            hi = lo + rnd.uniform(0, 400)
            got = sorted((o.key, o.payload) for o in index.query(cls, lo, hi))
            assert got == brute_force(hierarchy, objects, cls, lo, hi)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_empty_index(self, scheme):
        hierarchy = HIERARCHIES["people"]
        index = scheme(SimulatedDisk(8), hierarchy, [])
        assert index.query("Person", 0, 100) == []

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_query_leaf_class_returns_only_its_extent(self, scheme):
        hierarchy = people_hierarchy()
        objects = [
            ClassObject(10.0, "Person", payload=0),
            ClassObject(20.0, "Professor", payload=1),
            ClassObject(30.0, "AssistantProfessor", payload=2),
            ClassObject(40.0, "Student", payload=3),
        ]
        index = scheme(SimulatedDisk(8), hierarchy, objects)
        assert [o.payload for o in index.query("Student", 0, 100)] == [3]
        assert sorted(o.payload for o in index.query("Professor", 0, 100)) == [1, 2]
        assert sorted(o.payload for o in index.query("Person", 0, 100)) == [0, 1, 2, 3]

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_range_boundaries_inclusive(self, scheme):
        hierarchy = people_hierarchy()
        objects = [ClassObject(float(k), "Student", payload=k) for k in range(10)]
        index = scheme(SimulatedDisk(8), hierarchy, objects)
        got = sorted(o.payload for o in index.query("Person", 3, 6))
        assert got == [3, 4, 5, 6]

    def test_unknown_class_raises_in_combined_index(self):
        hierarchy = people_hierarchy()
        index = CombinedClassIndex(SimulatedDisk(8), hierarchy, [])
        with pytest.raises(KeyError):
            index.query("Alien", 0, 1)
        with pytest.raises(KeyError):
            index.insert(ClassObject(1.0, "Alien"))


class TestSimpleIndexStructure:
    """Theorem 2.6 structural claims."""

    def test_copies_per_object_is_logarithmic(self):
        hierarchy = random_hierarchy(64, seed=3)
        index = SimpleClassIndex(SimulatedDisk(8), hierarchy, [])
        assert index.copies_per_object() <= math.ceil(math.log2(64)) + 1

    def test_space_bound(self):
        hierarchy = random_hierarchy(32, seed=4)
        objects = random_class_objects(hierarchy, 2_000, seed=5)
        disk = SimulatedDisk(16)
        index = SimpleClassIndex(disk, hierarchy, objects)
        assert index.block_count() <= 6 * simple_class_space_bound(2_000, 16, 32) + 40

    def test_total_stored_objects_counts_copies(self):
        hierarchy = chain_hierarchy(8)
        objects = random_class_objects(hierarchy, 100, seed=6)
        index = SimpleClassIndex(SimulatedDisk(8), hierarchy, objects)
        assert len(index) >= 100  # every object appears at least once
        assert len(index) <= 100 * (math.ceil(math.log2(8)) + 1)

    def test_delete_removes_from_every_copy(self):
        hierarchy = people_hierarchy()
        obj = ClassObject(5.0, "AssistantProfessor", payload="x")
        index = SimpleClassIndex(SimulatedDisk(8), hierarchy, [obj])
        assert index.delete(obj)
        assert index.query("Person", 0, 10) == []

    def test_single_class_hierarchy(self):
        h = chain_hierarchy(1)
        objects = [ClassObject(float(i), "D0", payload=i) for i in range(20)]
        index = SimpleClassIndex(SimulatedDisk(4), h, objects)
        assert len(index.query("D0", 5, 10)) == 6

    @pytest.mark.parametrize("shape", sorted(HIERARCHIES))
    def test_only_nodes_some_full_extent_decomposes_into_exist(self, shape):
        hierarchy = HIERARCHIES[shape]
        objects = random_class_objects(hierarchy, 200, seed=8)
        objects += [ClassObject(1.0, cls) for cls in hierarchy.classes()]
        index = SimpleClassIndex(SimulatedDisk(8), hierarchy, objects)
        read_by_some_query = set()
        for lo, hi in index._class_span.values():
            read_by_some_query.update(index._canonical_cover(lo, hi + 1))
        assert set(index.collections()) == read_by_some_query
        assert len(read_by_some_query) < 2 * len(hierarchy) - 1 or len(hierarchy) == 1
        # what is reported as stored is what is stored
        copies = Counter(
            o.uid
            for c in index.collections().values()
            for o in c.range_query(float("-inf"), float("inf"))
        )
        assert set(copies) == {o.uid for o in objects}
        assert max(copies.values()) == index.copies_per_object()
        assert index.copies_per_object() <= math.ceil(math.log2(len(hierarchy))) + 1
        assert sum(copies.values()) == len(index)

    def test_balanced_hierarchy_keeps_49_of_the_79_canonical_nodes(self):
        index = SimpleClassIndex(SimulatedDisk(8), balanced_hierarchy(3, 3), [])
        assert len(index.collections()) == 49


class TestCombinedIndexStructure:
    """Theorem 4.7 structural claims."""

    def test_copies_bounded_by_log_c(self):
        for c, seed in ((16, 1), (64, 2), (128, 3)):
            hierarchy = random_hierarchy(c, seed=seed)
            index = CombinedClassIndex(SimulatedDisk(8), hierarchy, [])
            assert index.copies_per_object() <= math.ceil(math.log2(c)) + 1

    def test_chain_hierarchy_uses_single_path_piece(self):
        hierarchy = chain_hierarchy(16)
        index = CombinedClassIndex(SimulatedDisk(8), hierarchy, [])
        summaries = index.piece_summary()
        assert len(summaries) == 1
        assert "path piece" in summaries[0]
        assert index.copies_per_object() == 1

    def test_star_hierarchy_rakes_every_leaf(self):
        hierarchy = star_hierarchy(10)
        index = CombinedClassIndex(SimulatedDisk(8), hierarchy, [])
        summaries = index.piece_summary()
        rakes = [s for s in summaries if s.startswith("rake")]
        assert len(rakes) >= 8  # every thin-attached leaf is raked

    def test_queries_after_structural_inserts(self):
        hierarchy = balanced_hierarchy(2, 4)  # 21 classes
        objects = random_class_objects(hierarchy, 800, seed=9)
        index = CombinedClassIndex(SimulatedDisk(4), hierarchy, objects[:100])
        for obj in objects[100:]:
            index.insert(obj)
        rnd = random.Random(9)
        for _ in range(10):
            cls = rnd.choice(hierarchy.classes())
            lo = rnd.uniform(0, 1000)
            hi = lo + rnd.uniform(0, 300)
            got = sorted((o.key, o.payload) for o in index.query(cls, lo, hi))
            assert got == brute_force(hierarchy, objects, cls, lo, hi)


class TestClassIndexerFacade:
    def test_methods_listed(self):
        assert set(ClassIndexer.methods()) == {
            "simple",
            "combined",
            "single",
            "full-extent",
            "extent",
        }

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            ClassIndexer(SimulatedDisk(8), people_hierarchy(), [], method="nope")

    @pytest.mark.parametrize("method", ["simple", "combined", "single", "full-extent", "extent"])
    def test_facade_answers_match_backend(self, method):
        hierarchy = HIERARCHIES["random"]
        objects = random_class_objects(hierarchy, 300, seed=13)
        facade = ClassIndexer(SimulatedDisk(8), hierarchy, objects, method=method)
        got = sorted(o.payload for o in facade.query("C2", 100, 600))
        assert got == sorted(p for _, p in brute_force(hierarchy, objects, "C2", 100, 600))
        assert facade.block_count() > 0
        assert len(facade) >= 1

    @pytest.mark.parametrize("method", ["simple", "combined"])
    def test_the_bounds_n_is_kept_equal_to_the_pieces_summed_size(self, method):
        """The query bound's ``n`` is counted as the writes change it, not
        summed over every piece per query: after inserts, deletes (the
        combined scheme's rebuild among them) and inserts that raise
        part-way, it is still the pieces' summed size."""
        hierarchy = HIERARCHIES["random"]
        objects = random_class_objects(hierarchy, 300, seed=14)
        facade = ClassIndexer(SimulatedDisk(4), hierarchy, objects, method=method)

        def summed():
            inner = facade.backend
            pieces = inner._structures if method == "combined" else inner.collections()
            return sum(len(piece) for piece in pieces.values())

        assert len(facade) == summed() > len(objects)
        for obj in random_class_objects(hierarchy, 80, seed=15):
            facade.insert(obj)
        for obj in objects[:150]:
            assert facade.delete(obj)
        assert len(facade) == summed()
        for cls in hierarchy.classes():
            # a key that compares with none stored: some pieces may have
            # counted the object before the comparison raised
            with pytest.raises(TypeError):
                facade.insert(ClassObject("k", cls))
        assert len(facade) == summed()
        n = max(summed(), 2)
        assert facade._bound_fn()(7) == (
            simple_class_query_bound(n, 4, len(hierarchy), 7) if method == "simple"
            else combined_class_query_bound(n, 4, 7)
        )
