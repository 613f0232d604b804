"""Prepared queries, the plan cache, and the tightened bound accounting.

Acceptance criteria covered here:

* a cached ``PreparedQuery`` returns answers **identical** to ad-hoc
  planning, before and after every invalidating write event — attach /
  detach of physical indexes, ``bulk_load``, delete-triggered threshold
  rebuilds, ``drop_index`` — on both storage backends;
* **no plan is served from cache across an invalidating event**: the
  generation tests assert the planner re-plans (``last_from_cache`` /
  ``cache_hits``) rather than replaying a stale strategy;
* scan-fallback plans carry a **finite** bound derived from the record
  count and the page size (the BOUND_SLACK check is no longer vacuous
  when scan is the only candidate);
* union plans evaluate **each subplan's bound at its own raw output
  size** instead of charging every branch for the whole union;
* ``OrderBy`` sorts once per executed result with documented tie order
  (stable: ties keep the access path's emission order).
"""

import pytest

from repro import (
    EndpointRange,
    Engine,
    FileDisk,
    Interval,
    Param,
    PreparedQuery,
    Range,
    SimulatedDisk,
    Stab,
    bind_params,
    unbound_params,
)
from repro.engine.planner import BOUND_SLACK, BOUND_SLACK_PAGES, PLAN_CACHE_SIZE
from repro.engine.queries import ClassRange, Limit, Not, OrderBy

from tests.conftest import make_intervals

B = 8


def _backend(kind, tmp_path):
    if kind == "file":
        return FileDisk(str(tmp_path / "pages.bin"), block_size=B)
    return SimulatedDisk(block_size=B)


def _uids(records):
    return sorted(r.uid for r in records)


# --------------------------------------------------------------------------- #
# structural signatures
# --------------------------------------------------------------------------- #
class TestSignatures:
    def test_operand_values_are_factored_out(self):
        assert Stab(3.0).signature() == Stab(7.0).signature()
        assert Range(0, 5).signature() == Range(100, 900).signature()
        assert (
            EndpointRange("low", 1, 2).signature()
            == EndpointRange("low", 8, 9).signature()
        )

    def test_index_relevant_operands_stay_in(self):
        assert (
            EndpointRange("low", 1, 2).signature()
            != EndpointRange("high", 1, 2).signature()
        )
        assert ClassRange("A", 0, 1).signature() != ClassRange("B", 0, 1).signature()
        assert (
            Range(0, 1).signature()
            != Range(0, 1, min_inclusive=False).signature()
        )

    def test_composition_is_structural(self):
        a = Stab(1.0) & EndpointRange("low", 0, 1)
        b = Stab(9.0) & EndpointRange("low", 5, 6)
        assert a.signature() == b.signature()
        assert a.signature() != (Stab(1.0) | EndpointRange("low", 0, 1)).signature()
        assert Not(Stab(1.0)).signature() == Not(Stab(2.0)).signature()
        assert Not(Stab(1.0)).signature() != Stab(1.0).signature()

    def test_modifiers_share_the_base_plan_signature(self):
        assert Stab(1.0).limit(3).signature() == Stab(2.0).limit(99).signature()
        assert (
            Stab(1.0).order_by("low").signature()
            == Stab(2.0).order_by("high").signature()
        )
        assert Stab(1.0).limit(3).signature() != Stab(1.0).signature()

    def test_params_do_not_change_the_signature(self):
        assert Stab(Param("x")).signature() == Stab(42.0).signature()
        q = Stab(Param("x")) & EndpointRange("low", Param("a"), Param("b"))
        assert q.signature() == (Stab(1.0) & EndpointRange("low", 2.0, 3.0)).signature()


# --------------------------------------------------------------------------- #
# parameter binding
# --------------------------------------------------------------------------- #
class TestBindParams:
    def test_binds_nested_params(self):
        q = Stab(Param("x")) & EndpointRange("low", Param("lo"), Param("hi"))
        bound = bind_params(q, {"x": 5.0, "lo": 1.0, "hi": 2.0})
        assert bound == (Stab(5.0) & EndpointRange("low", 1.0, 2.0))

    def test_identity_when_nothing_to_bind(self):
        q = Stab(5.0) & Range(0, 9)
        assert bind_params(q, {}) is q

    def test_missing_and_unknown_params_raise(self):
        q = Stab(Param("x"))
        with pytest.raises(KeyError, match="unbound"):
            bind_params(q, {})
        with pytest.raises(KeyError, match="unknown"):
            bind_params(q, {"x": 1.0, "typo": 2.0})

    def test_partial_mode_leaves_unknowns_in_place(self):
        q = Stab(Param("x")) & Stab(Param("y"))
        half = bind_params(q, {"x": 1.0}, partial=True)
        assert unbound_params(half) == {"y"}

    def test_unbound_params_collects_names(self):
        q = (Stab(Param("x")) | Range(Param("lo"), Param("hi"))).limit(3)
        assert unbound_params(q) == {"x", "lo", "hi"}
        assert unbound_params(Stab(1.0)) == set()

    def test_binding_inside_modifiers(self):
        q = Limit(OrderBy(Stab(Param("x")), "low"), 2)
        bound = bind_params(q, {"x": 4.0})
        assert bound == Limit(OrderBy(Stab(4.0), "low"), 2)


# --------------------------------------------------------------------------- #
# prepared == ad-hoc, across shapes and backends
# --------------------------------------------------------------------------- #
QUERY_CASES = [
    (Stab(Param("x")), {"x": 321.5}),
    (EndpointRange("low", Param("lo"), Param("hi")), {"lo": 100.0, "hi": 180.0}),
    (Stab(Param("x")) & EndpointRange("low", Param("lo"), Param("hi")),
     {"x": 500.0, "lo": 420.0, "hi": 500.0}),
    (Stab(Param("x")) | Stab(Param("y")), {"x": 100.0, "y": 900.0}),
    (Range(Param("lo"), Param("hi")) & ~Stab(Param("x")),
     {"lo": 200.0, "hi": 260.0, "x": 230.0}),
    (Not(Stab(Param("x"))), {"x": 500.0}),
    (Stab(Param("x")).order_by("low").limit(7), {"x": 321.5}),
]


@pytest.mark.parametrize("backend_kind", ["memory", "file"])
@pytest.mark.parametrize("q,params", QUERY_CASES)
def test_prepared_matches_adhoc_and_oracle(tmp_path, backend_kind, q, params):
    engine = Engine(_backend(backend_kind, tmp_path))
    coll = engine.create_collection("c", make_intervals(300, seed=3))
    prepared = engine.prepare("c", q)
    assert isinstance(prepared, PreparedQuery)
    concrete = bind_params(q, params)
    adhoc = coll.planner.execute(coll.planner.plan(concrete, use_cache=False))
    got = prepared.run(**params)
    assert _uids(got.all()) == _uids(adhoc.all())
    assert _uids(got.all()) == _uids(coll.oracle(concrete))
    # identical access path => identical I/O accounting
    fresh = engine.prepare("c", q).run(**params)
    assert _uids(fresh.all()) == _uids(got.all())


def test_prepared_on_plain_engine_index():
    engine = Engine(SimulatedDisk(B))
    engine.create_interval_index("ivs", make_intervals(200, seed=4))
    prepared = engine.prepare("ivs", Stab(Param("x")))
    expect = engine.query("ivs", Stab(333.0)).all()
    assert _uids(prepared.run(x=333.0).all()) == _uids(expect)
    # repeated runs keep serving from cache
    assert _uids(prepared.run(x=333.0).all()) == _uids(expect)
    assert prepared.last_from_cache is True


def test_prepared_param_validation():
    engine = Engine(SimulatedDisk(B))
    engine.create_collection("c", make_intervals(50, seed=5))
    prepared = engine.prepare("c", Stab(Param("x")))
    assert prepared.params == ["x"]
    with pytest.raises(KeyError, match="missing"):
        prepared.run()
    with pytest.raises(KeyError, match="unknown"):
        prepared.run(x=1.0, y=2.0)


def test_prepared_plan_equals_explain():
    engine = Engine(SimulatedDisk(B))
    engine.create_collection("c", make_intervals(200, seed=6))
    q = Stab(Param("x")) & EndpointRange("low", Param("lo"), Param("hi"))
    prepared = engine.prepare("c", q)
    plan = prepared.plan(x=500.0, lo=420.0, hi=500.0)
    concrete = Stab(500.0) & EndpointRange("low", 420.0, 500.0)
    assert plan == engine.explain("c", concrete)
    result = prepared.run(x=500.0, lo=420.0, hi=500.0)
    assert result.plan == plan


# --------------------------------------------------------------------------- #
# invalidation: no plan served from cache across a write event
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend_kind", ["memory", "file"])
def test_bulk_load_invalidates_prepared_plans(tmp_path, backend_kind):
    engine = Engine(_backend(backend_kind, tmp_path))
    coll = engine.create_collection("c", make_intervals(150, seed=7))
    prepared = engine.prepare("c", Stab(Param("x")))
    prepared.run(x=400.0).all()
    assert prepared.last_from_cache is True

    coll.bulk_load(make_intervals(150, seed=8))
    got = prepared.run(x=400.0)
    assert prepared.last_from_cache is False  # the generation bump fired
    assert _uids(got.all()) == _uids(coll.oracle(Stab(400.0)))


def test_bulk_load_via_engine_invalidates_plain_index_planner():
    engine = Engine(SimulatedDisk(B))
    engine.create_interval_index("ivs", make_intervals(100, seed=9))
    prepared = engine.prepare("ivs", Stab(Param("x")))
    prepared.run(x=500.0).all()
    assert prepared.last_from_cache is True
    engine.bulk_load("ivs", make_intervals(100, seed=10))
    got = prepared.run(x=500.0)
    assert prepared.last_from_cache is False
    oracle = [iv for iv in engine["ivs"].intervals() if Stab(500.0).matches(iv)]
    assert _uids(got.all()) == _uids(oracle)


def test_attach_and_detach_invalidate(disk):
    engine = Engine(disk)
    coll = engine.create_collection("c", make_intervals(120, seed=11))
    prepared = engine.prepare("c", EndpointRange("high", Param("lo"), Param("hi")))
    first = prepared.run(lo=100.0, hi=300.0).all()
    assert prepared.last_from_cache is True
    assert _uids(first) == _uids(coll.oracle(EndpointRange("high", 100.0, 300.0)))

    # detaching the serving index forces a re-plan onto another access path
    detached = coll.detach("high-endpoints")
    assert detached is not None
    got = prepared.run(lo=100.0, hi=300.0)
    assert prepared.last_from_cache is False
    assert _uids(got.all()) == _uids(coll.oracle(EndpointRange("high", 100.0, 300.0)))
    assert got.plan.index != "high-endpoints"

    # re-attaching (fresh name) invalidates again
    from repro.btree import BPlusTree

    records = coll.records()
    tree = BPlusTree.bulk_load(disk, ((iv.high, iv) for iv in records), name="high2")

    def translate(q):
        if isinstance(q, EndpointRange) and q.side == "high":
            return Range(q.low, q.high, min_inclusive=q.min_inclusive,
                         max_inclusive=q.max_inclusive)
        return None

    coll.attach("high2", tree, translate=translate,
                run=lambda pq: (iv for _, iv in tree.query(pq)))
    got = prepared.run(lo=100.0, hi=300.0)
    assert prepared.last_from_cache is False
    assert got.plan.index == "high2"
    assert _uids(got.all()) == _uids(coll.oracle(EndpointRange("high", 100.0, 300.0)))

    with pytest.raises(KeyError):
        coll.detach("nope")


def test_detach_takes_a_read_path_away_and_never_a_writer(disk):
    """``low-endpoints`` reads the interval manager's own left-endpoint tree.
    Detaching the manager takes its read path away only: every write still
    goes through the manager, so the low tree it keeps never goes stale."""
    engine = Engine(disk)
    items = make_intervals(120, seed=11)
    coll = engine.create_collection("c", items)
    prepared = engine.prepare("c", EndpointRange("low", Param("lo"), Param("hi")))
    prepared.run(lo=100.0, hi=300.0).all()

    manager = coll.detach("interval-manager")
    assert coll.physical == ["low-endpoints", "high-endpoints"]
    assert manager.endpoints.size == len(items)
    coll.insert(Interval(150.0, 152.0))
    assert manager.endpoints.size == len(items) + 1
    got = prepared.run(lo=100.0, hi=300.0)
    assert prepared.last_from_cache is False
    q = EndpointRange("low", 100.0, 300.0)
    assert _uids(got.all()) == _uids(coll.oracle(q))

    coll.detach("low-endpoints")
    assert coll.physical == ["high-endpoints"]
    coll.insert(Interval(1.0, 2.0))
    q = EndpointRange("high", 0.0, 500.0)
    assert _uids(coll.query(q).all()) == _uids(coll.oracle(q))


def test_delete_triggered_rebuild_invalidates(disk):
    engine = Engine(disk)
    items = make_intervals(120, seed=12)
    coll = engine.create_collection("c", items, dynamic=True)
    prepared = engine.prepare("c", Stab(Param("x")))
    prepared.run(x=500.0).all()
    assert prepared.last_from_cache is True

    manager = coll.planner.accessors[0].index
    generation = manager.generation
    # delete until the interval manager's tombstone threshold rebuilds it
    for iv in items:
        coll.delete(iv)
        if manager.generation != generation:
            break
    assert manager.generation != generation, "no rebuild fired; test is vacuous"
    got = prepared.run(x=500.0)
    assert prepared.last_from_cache is False
    assert _uids(got.all()) == _uids(coll.oracle(Stab(500.0)))


def test_class_index_rebuild_invalidates_prepared(disk):
    """Delete-triggered global rebuilds of a class index bump its generation,
    so cached strategies over it are never served across the rebuild."""
    from repro import ClassHierarchy, ClassObject

    hierarchy = ClassHierarchy()
    hierarchy.add_class("root")
    hierarchy.add_class("leaf", "root")
    objects = [
        ClassObject(float(i), "leaf" if i % 2 else "root", payload=i)
        for i in range(80)
    ]
    engine = Engine(disk)
    indexer = engine.create_class_index("cls", hierarchy, objects, method="combined")
    prepared = engine.prepare(
        "cls", ClassRange("root", Param("lo"), Param("hi"))
    )
    prepared.run(lo=0.0, hi=100.0).all()
    assert prepared.last_from_cache is True

    generation = indexer.generation
    for obj in objects:
        engine.delete("cls", obj)
        if indexer.generation != generation:
            break
    assert indexer.generation != generation, "no rebuild fired; test is vacuous"
    got = prepared.run(lo=0.0, hi=100.0)
    assert prepared.last_from_cache is False
    live = {o.uid for o in indexer.objects()}
    want = [o for o in objects if o.uid in live and 0.0 <= o.key <= 100.0]
    assert _uids(got.all()) == _uids(want)


def test_constraint_index_surfaces_manager_generation(disk):
    from repro import Constraint, GeneralizedRelation, GeneralizedTuple, var

    x = var("x")
    tuples = [
        GeneralizedTuple(
            [Constraint(x, ">=", float(i)), Constraint(x, "<=", float(i) + 5.0)],
            name=i,
        )
        for i in range(40)
    ]
    relation = GeneralizedRelation(["x"], tuples, name="r")
    engine = Engine(disk)
    index = engine.create_constraint_index("r", relation, "x")
    generation = index.generation
    index.manager._core.rebuild()
    assert index.generation == generation + 1  # delegated, not hidden


def test_generation_key_blocks_stale_cache_hits(disk):
    """The planner itself never serves a cached plan across an invalidation."""
    engine = Engine(disk)
    coll = engine.create_collection("c", make_intervals(100, seed=13))
    planner = coll.planner
    planner.plan(Stab(1.0))
    hits = planner.cache_hits
    planner.plan(Stab(2.0))
    assert planner.cache_hits == hits + 1  # warm: same signature

    coll.bulk_load(make_intervals(10, seed=14))
    misses = planner.cache_misses
    planner.plan(Stab(3.0))  # must re-plan, not hit
    assert planner.cache_hits == hits + 1
    assert planner.cache_misses == misses + 1


def test_drop_index_fails_prepared_loudly(disk):
    engine = Engine(disk)
    engine.create_interval_index("ivs", make_intervals(60, seed=15))
    prepared = engine.prepare("ivs", Stab(Param("x")))
    prepared.run(x=500.0).all()
    assert prepared.last_from_cache is True
    engine.drop_index("ivs")
    # a dropped index must raise the engine's descriptive KeyError, never
    # silently answer from freed blocks
    with pytest.raises(KeyError, match="ivs"):
        prepared.run(x=500.0)


def test_drop_and_recreate_same_name_fails_prepared_loudly(disk):
    engine = Engine(disk)
    items = make_intervals(60, seed=15)
    engine.create_interval_index("ivs", items)
    prepared = engine.prepare("ivs", Stab(Param("x")))
    before = _uids(prepared.run(x=500.0).all())
    assert before  # non-empty, so a silent empty answer would be wrong
    engine.drop_index("ivs")
    engine.create_interval_index("ivs", make_intervals(60, seed=15))
    # same name, different index object: the prepared handle is stale and
    # says so instead of returning wrong results
    with pytest.raises(RuntimeError, match="re-created"):
        prepared.run(x=500.0)
    # a freshly prepared handle works against the new index
    fresh = engine.prepare("ivs", Stab(Param("x")))
    got = fresh.run(x=500.0).all()
    assert _uids(got) == _uids(
        [iv for iv in engine["ivs"].intervals() if Stab(500.0).matches(iv)]
    )


def test_prepared_bounds_track_incremental_growth(disk):
    """Plain inserts never bump the generation, but the cached strategy is
    re-costed per run, so predicted bounds follow the live structure size."""
    engine = Engine(disk)
    coll = engine.create_collection("c", make_intervals(50, seed=24), dynamic=True)
    prepared = engine.prepare("c", Stab(Param("x")))
    small = prepared.plan(x=500.0).bound.pages
    for iv in make_intervals(1500, seed=25):
        coll.insert(iv)
    grown = prepared.plan(x=500.0)
    assert prepared.last_from_cache is True  # no invalidating event fired
    assert grown.bound.pages > small  # log_B n grew with n
    assert grown == engine.explain("c", Stab(500.0))  # identical to fresh


def test_plan_cache_is_size_bounded(disk):
    engine = Engine(disk)
    coll = engine.create_collection("c", make_intervals(50, seed=16))
    planner = coll.planner
    # distinct signatures: vary the And arity so each query has a new shape
    q = Stab(1.0)
    for i in range(PLAN_CACHE_SIZE + 10):
        planner.plan(q)
        q = q & Stab(float(i))
    assert len(planner._cache) <= PLAN_CACHE_SIZE


# --------------------------------------------------------------------------- #
# bound accounting bugfixes
# --------------------------------------------------------------------------- #
def test_scan_fallback_bound_is_finite_and_meaningful(disk):
    engine = Engine(disk)
    n = 200
    engine.create_collection("c", make_intervals(n, seed=17))
    plan = engine.explain("c", ~Stab(500.0))
    assert plan.kind == "scan"
    assert plan.bound.pages != float("inf")
    assert plan.predicted() != float("inf")
    # a full scan reads at least n/B blocks and the bound says so
    assert plan.bound.pages >= n / disk.block_size
    result = engine.query("c", ~Stab(500.0))
    result.all()
    assert result.bound is not None and result.bound != float("inf")
    # the BOUND_SLACK acceptance check is no longer vacuous on scan plans
    assert result.ios <= BOUND_SLACK * result.bound + BOUND_SLACK_PAGES


def test_scan_bound_derived_when_accessor_has_no_scan_bound(disk):
    """An accessor advertising ``scan`` but no ``scan_bound`` still gets a
    finite bound derived from its live record count and the page size."""
    engine = Engine(disk)
    coll = engine.create_collection("c", make_intervals(64, seed=18))
    planner = coll.planner
    low = next(acc for acc in planner.accessors if acc.name == "low-endpoints")
    low.scan_bound = None  # simulate a custom attach without a bound
    plan = planner.plan(~Stab(1.0), use_cache=False)
    assert plan.kind == "scan"
    assert plan.bound.pages != float("inf")
    assert "full scan" in plan.bound.formula


def test_union_bound_charges_each_subplan_its_own_output(disk):
    engine = Engine(disk)
    intervals = [Interval(0.0, 1000.0, payload=i) for i in range(64)]
    intervals += [Interval(2000.0 + i, 2000.5 + i, payload=100 + i) for i in range(4)]
    coll = engine.create_collection("c", intervals)
    # branch 1 returns every telescope interval, branch 2 almost nothing
    q = Stab(500.0) | Stab(3000.0)
    result = coll.query(q)
    hits = result.all()
    t = len(hits)
    assert t == 64
    plan = result.plan
    assert plan.kind == "union"
    # the OLD accounting evaluated the summed formula at the combined raw
    # size, charging branch 2 for branch 1's t/B term; the fixed bound is
    # strictly tighter whenever outputs are asymmetric...
    old_style = plan.bound(t)
    assert result.bound < old_style
    # ...but never tighter than each branch at zero output
    assert result.bound >= plan.bound(0)
    # and observed I/O stays within the documented slack of the new bound
    assert result.ios <= BOUND_SLACK * result.bound + BOUND_SLACK_PAGES


def test_orderby_sorts_once_with_stable_ties(disk):
    engine = Engine(disk)
    intervals = [Interval(5.0, 10.0 + i, payload=i) for i in range(40)]
    coll = engine.create_collection("c", intervals)
    result = coll.query(Range(6.0, 7.0).order_by("low"))
    first = [iv.uid for iv in result.all()]
    # replaying an exhausted result serves the cached order, identical ties
    second = [iv.uid for iv in result]
    assert first == second
    # ties (equal ``low``) keep the access path's emission order (stable sort)
    access = coll.query(Range(6.0, 7.0)).all()
    assert first == [iv.uid for iv in access]


# --------------------------------------------------------------------------- #
# bulk accounting on the prepared fast path
# --------------------------------------------------------------------------- #
def test_prepared_bulk_accounting_matches_per_record(disk):
    engine = Engine(disk)
    engine.create_collection("c", make_intervals(300, seed=19))
    prepared = engine.prepare("c", Stab(Param("x")))
    fine = engine.query("c", Stab(444.0))
    fine.all()
    fast = prepared.run(x=444.0)
    fast.all()
    assert fast.ios == fine.ios
    assert _uids(fast.all()) == _uids(fine.all())


def test_prepared_partial_consumption_reports_ios(disk):
    """``first()``/early-break on a bulk-accounted result still reports the
    I/Os performed so far (the open bracket settles on ``ios`` reads)."""
    engine = Engine(disk)
    engine.create_collection("c", make_intervals(300, seed=23))
    prepared = engine.prepare("c", Stab(Param("x")))
    result = prepared.run(x=500.0)
    assert result.first() is not None
    partial = result.ios
    assert partial > 0
    result.all()
    full = engine.query("c", Stab(500.0))
    full.all()
    assert result.ios == full.ios


def test_prepare_unplannable_query_raises_at_prepare_time(disk):
    engine = Engine(disk)
    engine.create_key_index("kv", [(1, "a")])
    # a plain B+-tree has no scan fallback, so a bare Not is unservable;
    # without placeholders the error belongs at the prepare call site
    with pytest.raises(TypeError):
        engine.prepare("kv", Not(Stab(1)))
    # with placeholders the failure cannot be told apart from a
    # placeholder-rejecting index, so it surfaces on run() instead
    prepared = engine.prepare("kv", Not(Stab(Param("x"))))
    with pytest.raises(TypeError):
        prepared.run(x=1)


def test_prepared_result_replays_cache_without_new_io(disk):
    engine = Engine(disk)
    engine.create_collection("c", make_intervals(120, seed=20))
    prepared = engine.prepare("c", Stab(Param("x")))
    result = prepared.run(x=300.0)
    first = result.all()
    ios = result.ios
    assert result.all() == first
    assert result.ios == ios


@pytest.mark.parametrize("backend_kind", ["memory", "file"])
def test_prepared_survives_many_rounds_of_writes(tmp_path, backend_kind):
    """Oracle soak: cached answers stay identical to brute force while the
    collection churns through inserts, deletes and bulk loads."""
    import random

    rnd = random.Random(21)
    engine = Engine(_backend(backend_kind, tmp_path))
    items = make_intervals(80, seed=22)
    coll = engine.create_collection("c", items, dynamic=True)
    prepared = engine.prepare("c", Stab(Param("x")))
    live = list(items)
    for round_no in range(6):
        x = rnd.uniform(0, 1000)
        got = prepared.run(x=x)
        assert _uids(got.all()) == _uids(coll.oracle(Stab(x)))
        if round_no % 3 == 0:
            coll.bulk_load(make_intervals(20, seed=100 + round_no))
        elif live:
            for _ in range(min(10, len(live))):
                coll.delete(live.pop(rnd.randrange(len(live))))
