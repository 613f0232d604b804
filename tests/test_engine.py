"""Tests for the ``repro.engine`` layer.

Covers the acceptance criteria of the engine redesign:

* property-based equivalence of ``Engine`` query results against the
  in-core naive baselines, on every storage backend, through both the
  streaming and the batch (``query_many``) APIs;
* laziness: a ``QueryResult`` performs no I/O before iteration starts and
  attributes its I/Os per query;
* the uniform ``Index`` protocol is satisfied by every index kind;
* pre-redesign top-level imports still work.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    ClassHierarchy,
    ClassObject,
    ClassRange,
    Engine,
    FileDisk,
    Index,
    Interval,
    QueryResult,
    Range,
    SimulatedDisk,
    Stab,
)
from tests.naive_index import NaiveIntervalIndex

B = 8


def _backends(tmp_path):
    return {
        "memory": SimulatedDisk(block_size=B),
        "file": FileDisk(str(tmp_path / "pages.bin"), block_size=B),
    }


def _payloads(intervals):
    return sorted(iv.payload for iv in intervals)


# --------------------------------------------------------------------------- #
# property-based equivalence vs the naive baseline, all backends
# --------------------------------------------------------------------------- #
interval_lists = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=0, max_value=20, allow_nan=False),
    ),
    min_size=0,
    max_size=60,
)
probes = st.floats(min_value=-5, max_value=110, allow_nan=False)


@settings(max_examples=25, deadline=None)
@given(data=interval_lists, q=probes, width=st.floats(min_value=0, max_value=30))
def test_interval_queries_match_naive_on_all_backends(tmp_path_factory, data, q, width):
    intervals = [Interval(lo, lo + w, payload=i) for i, (lo, w) in enumerate(data)]
    naive = NaiveIntervalIndex(intervals)
    want_stab = _payloads(naive.stabbing_query(q))
    want_range = _payloads(naive.intersection_query(q, q + width))

    tmp = tmp_path_factory.mktemp("engine")
    for kind, backend in _backends(tmp).items():
        with Engine(backend) as engine:
            engine.create_interval_index("ivs", intervals)
            got_stab = _payloads(engine.query("ivs", Stab(q)))
            got_range = _payloads(engine.query("ivs", Range(q, q + width)))
            assert got_stab == want_stab, f"stabbing mismatch on {kind}"
            assert got_range == want_range, f"intersection mismatch on {kind}"


@settings(max_examples=10, deadline=None)
@given(data=interval_lists, extra=interval_lists)
def test_dynamic_inserts_match_naive_on_all_backends(tmp_path_factory, data, extra):
    base = [Interval(lo, lo + w, payload=i) for i, (lo, w) in enumerate(data)]
    added = [Interval(lo, lo + w, payload=1000 + i) for i, (lo, w) in enumerate(extra)]
    naive = NaiveIntervalIndex(base)

    tmp = tmp_path_factory.mktemp("engine")
    engines = {k: Engine(b) for k, b in _backends(tmp).items()}
    for engine in engines.values():
        engine.create_interval_index("ivs", base)
    for iv in added:
        naive.insert(iv)
        for engine in engines.values():
            engine.insert("ivs", iv)
    for q in (0.0, 25.0, 50.0, 99.0):
        want = _payloads(naive.stabbing_query(q))
        for kind, engine in engines.items():
            assert _payloads(engine.query("ivs", Stab(q))) == want, kind
    for engine in engines.values():
        engine.close()


@pytest.mark.parametrize("backend_kind", ["memory", "file"])
@pytest.mark.parametrize("method", ["simple", "combined", "single", "extent", "full-extent"])
def test_class_queries_match_brute_force(tmp_path, backend_kind, method):
    rnd = random.Random(11)
    hierarchy = ClassHierarchy()
    hierarchy.add_class("Root")
    for name in "ABCD":
        hierarchy.add_class(name, "Root")
    hierarchy.add_class("A1", "A")
    classes = ["Root", "A", "B", "C", "D", "A1"]
    objects = [
        ClassObject(rnd.uniform(0, 100), rnd.choice(classes), payload=i) for i in range(150)
    ]
    backend = _backends(tmp_path)[backend_kind]
    with Engine(backend) as engine:
        engine.create_class_index("people", hierarchy, objects, method=method)
        for cls in ("Root", "A", "A1", "D"):
            lo = rnd.uniform(0, 80)
            hi = lo + 25
            wanted = set(hierarchy.descendants(cls))
            want = sorted(
                o.payload for o in objects if o.class_name in wanted and lo <= o.key <= hi
            )
            got = sorted(o.payload for o in engine.query("people", ClassRange(cls, lo, hi)))
            assert got == want, (backend_kind, method, cls)


@settings(max_examples=25, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=50), min_size=0, max_size=80),
    lo=st.integers(min_value=-5, max_value=55),
    width=st.integers(min_value=0, max_value=20),
    min_inc=st.booleans(),
    max_inc=st.booleans(),
)
def test_key_index_range_matches_descriptor_oracle(keys, lo, width, min_inc, max_inc):
    """B+-tree range semantics (incl. per-bound inclusivity) match the
    ``Range.matches_key`` oracle the descriptor itself defines."""
    engine = Engine(block_size=B)
    engine.create_key_index("kv", [(k, f"v{i}") for i, k in enumerate(keys)])
    q = Range(lo, lo + width, min_inclusive=min_inc, max_inclusive=max_inc)
    got = sorted(k for k, _ in engine.query("kv", q))
    want = sorted(k for k in keys if q.matches_key(k))
    assert got == want
    if keys:
        probe = Stab(keys[0])
        assert sorted(engine.query("kv", probe).all()) == sorted(
            f"v{i}" for i, k in enumerate(keys) if k == probe.x
        )


@settings(max_examples=15, deadline=None)
@given(data=interval_lists, q=probes)
def test_stab_descriptor_oracle_matches_index(data, q):
    """``Stab.matches_interval`` is the oracle for interval stabbing."""
    intervals = [Interval(lo, lo + w, payload=i) for i, (lo, w) in enumerate(data)]
    engine = Engine(block_size=B)
    engine.create_interval_index("ivs", intervals)
    descriptor = Stab(q)
    want = sorted(iv.payload for iv in intervals if descriptor.matches_interval(iv.low, iv.high))
    assert _payloads(engine.query("ivs", descriptor)) == want


# --------------------------------------------------------------------------- #
# laziness and per-query accounting
# --------------------------------------------------------------------------- #
def test_query_result_is_lazy():
    intervals = [Interval(float(i), float(i + 10), payload=i) for i in range(200)]
    engine = Engine(block_size=B)
    engine.create_interval_index("ivs", intervals)
    before = engine.io_stats().snapshot()

    result = engine.query("ivs", Stab(57.0))
    batch = engine.query_many(("ivs", Stab(float(x))) for x in range(0, 100, 10))

    # building results performed no I/O at all
    assert engine.io_stats().diff(before).total == 0
    assert result.ios == 0 and not result.started
    assert all(r.ios == 0 for r in batch)

    hits = result.all()
    assert hits and result.started and result.exhausted
    assert result.ios > 0
    assert result.bound is not None

    # re-iterating replays the cache without new I/O
    ios_after_first_drain = result.ios
    assert list(result) == hits
    assert result.ios == ios_after_first_drain


def test_query_result_reraises_mid_stream_errors_on_reiteration():
    def boom():
        yield 1
        raise RuntimeError("mid-stream failure")

    result = QueryResult(boom)
    with pytest.raises(RuntimeError):
        result.all()
    # the failure must not be swallowed into an "empty tail" on replay
    with pytest.raises(RuntimeError):
        list(result)
    assert not result.exhausted


def test_duplicate_index_name_rejected_before_allocation():
    engine = Engine(block_size=B)
    engine.create_interval_index("ivs", [Interval(0, 1)])
    blocks_before = engine.disk.blocks_in_use
    with pytest.raises(ValueError):
        engine.create_interval_index("ivs", [Interval(float(i), float(i + 1)) for i in range(100)])
    assert engine.disk.blocks_in_use == blocks_before


def test_streaming_first_hit_costs_less_than_full_drain():
    intervals = [Interval(float(i % 50), float(i % 50 + 30), payload=i) for i in range(2000)]
    engine = Engine(block_size=B)
    engine.create_interval_index("ivs", intervals)

    full = engine.query("ivs", Stab(40.0))
    n_hits = len(full.all())
    assert n_hits > 100

    first = engine.query("ivs", Stab(40.0))
    assert first.first() is not None
    assert 0 < first.ios < full.ios


def test_per_query_accounting_is_isolated_in_batches():
    intervals = [Interval(float(i), float(i + 5), payload=i) for i in range(500)]
    engine = Engine(block_size=B)
    engine.create_interval_index("ivs", intervals)
    r1, r2 = engine.query_many([("ivs", Stab(100.0)), ("ivs", Stab(400.0))])

    # interleave the two streams; each result must still count only its own I/Os
    it1, it2 = iter(r1), iter(r2)
    for _ in range(3):
        next(it1, None)
        next(it2, None)
    list(it1)
    list(it2)
    with engine.measure() as m:
        pass
    total = r1.ios + r2.ios
    separate = Engine(block_size=B)
    separate.create_interval_index("ivs", intervals)
    s1 = separate.query("ivs", Stab(100.0))
    s1.all()
    s2 = separate.query("ivs", Stab(400.0))
    s2.all()
    assert r1.ios == s1.ios
    assert r2.ios == s2.ios
    assert total == s1.ios + s2.ios
    assert m.ios == 0


# --------------------------------------------------------------------------- #
# the uniform Index protocol
# --------------------------------------------------------------------------- #
def test_all_index_kinds_satisfy_the_protocol():
    from repro import GeneralizedRelation, GeneralizedTuple, Constraint, var

    engine = Engine(block_size=B)
    hierarchy = ClassHierarchy()
    hierarchy.add_class("Root")

    x = var("x")
    relation = GeneralizedRelation(
        ["x"], [GeneralizedTuple([Constraint(x, ">=", 0), Constraint(x, "<=", 5)], name="t0")]
    )
    from repro.metablock.geometry import PlanarPoint

    indexes = [
        engine.create_interval_index("a", [Interval(0, 1)]),
        engine.create_class_index("b", hierarchy, [ClassObject(1.0, "Root")]),
        engine.create_constraint_index("c", relation, "x"),
        engine.create_point_index("d", [PlanarPoint(1, 2)]),
        engine.create_key_index("e", [(1, "one")]),
    ]
    for index in indexes:
        assert isinstance(index, Index), type(index).__name__
        assert index.block_count() >= 1
        assert index.io_stats() is engine.io_stats()


def test_engine_namespace_and_errors(tmp_path):
    engine = Engine(block_size=B)
    engine.create_interval_index("ivs", [Interval(0, 1)])
    assert "ivs" in engine and engine.names() == ["ivs"]
    assert engine["ivs"] is engine.index("ivs")
    with pytest.raises(ValueError):
        engine.create_interval_index("ivs")
    with pytest.raises(KeyError):
        engine.query("nope", Stab(0))
    with pytest.raises(TypeError):
        engine.query("ivs", ClassRange("Root", 0, 1)).all()
    engine.drop_index("ivs")
    assert "ivs" not in engine


# --------------------------------------------------------------------------- #
# back-compat: the pre-engine surface still works unchanged
# --------------------------------------------------------------------------- #
def test_pre_redesign_imports_and_constructors_still_work():
    from repro import (
        BPlusTree,
        BufferManager,
        ClassIndexer,
        ExternalIntervalManager,
        ExternalPST,
        IOStats,
        SimulatedDisk,
        StaticMetablockTree,
    )

    disk = SimulatedDisk(block_size=B)
    manager = ExternalIntervalManager(disk, [Interval(1, 5), Interval(3, 9)])
    assert sorted((iv.low, iv.high) for iv in manager.stabbing_query(4)) == [(1, 5), (3, 9)]
    assert isinstance(manager.stabbing_query(4), list)
    assert isinstance(manager.intersection_query(0, 10), list)

    tree = BPlusTree.bulk_load(disk, [(i, i) for i in range(30)])
    assert tree.range_search(5, 10) == [(k, k) for k in range(5, 11)]
    assert tree.range_search(5, 10, min_inclusive=False) == [(k, k) for k in range(6, 11)]
    assert tree.range_search(5, 10, max_inclusive=False) == [(k, k) for k in range(5, 10)]

    # ExternalPST.query now returns a QueryResult, but list-style callers
    # (equality, indexing, emptiness checks) keep working
    from repro import ThreeSidedQuery
    from repro.metablock.geometry import PlanarPoint

    pst = ExternalPST(disk, [PlanarPoint(1, 10, payload="a")])
    result = pst.query(ThreeSidedQuery(0, 5, 0))
    assert result == [PlanarPoint(1, 10)]       # payload not part of equality
    assert result[0].payload == "a"
    assert pst.query(ThreeSidedQuery(2, 5, 0)) == []
