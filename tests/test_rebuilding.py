"""The global-rebuilding core (``repro.rebuilding``) held from outside.

Every kind whose index wraps the core — interval (static and dynamic),
collection, constraint, point, and class under ``combined`` and ``simple``
— runs one generated write mix through the engine: inserts, deletes,
re-inserts of the very object deleted, same-uid updates and bulk loads,
over tie-heavy grid domains at small ``B``.  After every step the answers
equal a brute-force oracle record by record (each reported once, in its
current version), ``live_count`` is right, every block in use is counted
(``block_count() == blocks_in_use``: nothing leaks across a swap), and the
core's ``generation`` moved exactly when its structure was replaced.

The first half pins the re-insert path on its own: a deleted uid inserted
again — the same object, or a same-uid update — used to cost a global
rebuild of the whole structure; it now costs an insert.
"""

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.classes.hierarchy import ClassObject
from repro.constraints.terms import Constraint, GeneralizedTuple, Variable
from repro.engine import ClassRange, EndpointRange, Engine, Range, Stab
from repro.engine.core import KINDS
from repro.errors import DomainError
from repro.interval import Interval
from repro.io import FileDisk, SimulatedDisk
from repro.metablock.geometry import PlanarPoint, ThreeSidedQuery
from repro.workloads import balanced_hierarchy, random_class_objects

HIERARCHY = balanced_hierarchy(2, 2)
CLASSES = HIERARCHY.classes()
X = Variable("x")


def _core(kind, index):
    """The global-rebuilding core inside an index of ``kind``."""
    if kind == "collection":
        index = index.planner.accessors[0].index
    if kind == "constraint":
        index = index.manager
    return index if kind == "point" else index._core


def _version(record):
    """What a reader must see once: the uid and every field (payload too)."""
    if isinstance(record, GeneralizedTuple):
        return (record.name,)
    return (record.uid, repr(record))


def _versions(records):
    return sorted(map(_version, records), key=repr)


# --------------------------------------------------------------------------- #
# re-inserting a uid: an insert, not a rebuild
# --------------------------------------------------------------------------- #
B = 8


def _reinsert_case(kind, seed):
    """``(records, create-params, queries, same-uid change, fresh copy)``."""
    rnd = random.Random(seed)
    if kind == "collection":
        records = [Interval(lo, lo + rnd.uniform(0, 60)) for lo in (rnd.uniform(0, 1000) for _ in range(400))]
        queries = [Stab(300.0), Range(450.0, 520.0), EndpointRange("low", 100.0, 400.0),
                   EndpointRange("high", 600.0, 900.0)]
        return (
            records, {}, queries,
            lambda r, i: dataclasses.replace(r, high=r.high + 1.0) if i % 2
            else dataclasses.replace(r, payload=("v", i)),
            lambda r: Interval(r.low, r.high + 1.0),
        )
    records = random_class_objects(HIERARCHY, 400, seed=seed)
    queries = [ClassRange(c, 100.0, 800.0) for c in CLASSES[:3]]
    return (
        records, {"method": "combined", "hierarchy": HIERARCHY}, queries,
        lambda r, i: dataclasses.replace(r, key=r.key + 1.0) if i % 2
        else dataclasses.replace(r, payload=("v", i)),
        lambda r: ClassObject(r.key + 1.0, r.class_name),
    )


def _check(engine, kind, queries, model):
    for q in queries:
        oracle = dataclasses.replace(q, hierarchy=HIERARCHY) if kind == "class" else q
        want = [r for r in model.values() if oracle.matches(r)]
        assert _versions(engine.query("ix", q)) == _versions(want), q


@pytest.mark.parametrize("backend", ["memory", "file"])
@pytest.mark.parametrize("kind", ["collection", "class"])
def test_reinserting_a_deleted_uid_answers_right_without_a_rebuild(kind, backend, tmp_path):
    records, params, queries, change, _ = _reinsert_case(kind, 11)
    path = str(tmp_path / "db.pages")
    engine = (Engine(block_size=B) if backend == "memory"
              else Engine.open_or_create(path, block_size=B))
    engine.create("ix", kind, records, **params)
    model = {r.uid: r for r in records}

    def cycle(engine, victims):
        for i, old in enumerate(victims):
            assert engine.delete("ix", old)  # the same object, straight back
            del model[old.uid]
            _check(engine, kind, queries, model)
            engine.insert("ix", old)
            model[old.uid] = old
            _check(engine, kind, queries, model)
            new = change(old, i)  # same uid, new endpoints or payload
            engine.update("ix", old, new)
            model[old.uid] = new
            _check(engine, kind, queries, model)
            assert engine.delete("ix", new)  # the re-inserted record, deleted again
            del model[old.uid]
            _check(engine, kind, queries, model)
            engine.insert("ix", old)  # a version equal to a dead one
            model[old.uid] = old
            _check(engine, kind, queries, model)
        index = engine["ix"]
        manager = index.planner.accessors[0].index if kind == "collection" else index
        assert manager.generation == 0  # not one rebuild
        assert index.live_count == len(model)
        assert engine.block_count() == engine.backend.blocks_in_use - len(
            engine.backend.meta.get("catalog_blocks", ())
        )

    cycle(engine, records[:6])
    if backend == "file":
        engine.close()
        engine = Engine.open(path)
        cycle(engine, records[6:12])
    engine.close()


class Opaque:
    """A payload with identity equality: no decoded copy of it equals it."""

    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return f"Opaque({self.tag})"


@pytest.mark.parametrize("backend", ["memory", "file"])
@pytest.mark.parametrize("payload", [Opaque, lambda tag: float("nan")], ids=["opaque", "nan"])
@pytest.mark.parametrize("kind", ["collection", "class"])
def test_payloads_a_copy_never_equals_keep_dead_versions_out(kind, payload, backend):
    """A payload whose ``==`` a stored copy does not keep (an object without
    ``__eq__``, NaN) is outside the value domain: the record refuses it when
    built, so no index ever holds a version its dead copies cannot be told
    apart from — and the index is untouched."""
    records, params, queries, _, _ = _reinsert_case(kind, 13)
    engine = Engine(SimulatedDisk(B) if backend == "memory" else FileDisk(block_size=B))
    engine.create("ix", kind, records, **params)
    core = _core(kind, engine["ix"])
    for i, old in enumerate(records[:4]):
        with pytest.raises(DomainError, match="NaN|outside the value domain"):
            # the new version is refused while it is built: update never runs
            engine.update("ix", old, dataclasses.replace(old, payload=payload(i)))
    _check(engine, kind, queries, {r.uid: r for r in records})
    assert (core.generation, core.live_count) == (0, len(records))
    engine.close()


@pytest.mark.parametrize("backend", ["memory", "file"])
@pytest.mark.parametrize("payload", [lambda tag: tag, lambda tag: {"v": [tag, (tag,)]}],
                         ids=["plain", "structured"])
@pytest.mark.parametrize("kind", ["collection", "class"])
def test_payload_only_updates_never_rebuild(kind, payload, backend):
    """Equality tells a dead copy from a live version on every backend, so
    no write sweeps — a structured payload no more than a plain one: a
    payload-only update inserts, and a version equal to a dead one (the
    very object deleted, or a payload changed back) revives that one."""
    records, params, queries, _, _ = _reinsert_case(kind, 13)
    records = [dataclasses.replace(r, payload=payload(i)) for i, r in enumerate(records)]
    engine = Engine(SimulatedDisk(B) if backend == "memory" else FileDisk(block_size=B))
    engine.create("ix", kind, records, **params)
    core = _core(kind, engine["ix"])
    model = {r.uid: r for r in records}
    field = "high" if kind == "collection" else "key"

    def write(op, *args):
        getattr(engine, op)("ix", *args)
        assert core.generation == 0, op
        here = [Stab(r.low) if kind == "collection" else ClassRange(r.class_name, r.key, r.key + 1.0)
                for r in args]
        _check(engine, kind, queries + here, model)

    def update(old, new):
        model[old.uid] = new
        write("update", old, new)

    for i, old in enumerate(records[:4]):
        moved = dataclasses.replace(old, **{field: getattr(old, field) + 1.0})
        update(old, moved)  # the stale copy still matches the query
        repaid = dataclasses.replace(moved, payload=payload(1000 + i))
        update(moved, repaid)  # the payload alone changed
        del model[old.uid]
        write("delete", repaid)
        model[old.uid] = repaid
        write("insert", repaid)  # the very object deleted: revived
        back = dataclasses.replace(repaid, payload=payload(i))
        update(repaid, back)  # equal to ``moved``, dead: revived
        again = dataclasses.replace(back, payload=payload(2000 + i))
        update(back, again)
        del model[old.uid]
        write("delete", again)
    engine.close()


@pytest.mark.parametrize("backend", ["memory", "file"])
@pytest.mark.parametrize("kind", ["collection", "class"])
def test_a_payload_update_that_changes_only_a_type_is_seen(kind, backend):
    """``==`` calls ``1``, ``1.0`` and ``True`` one value, and ``0.0`` and
    ``-0.0``; the pages keep them apart, and so does the match of a dead
    copy: such an update inserts the new version instead of reviving the
    old one, and changing back revives the very version that died."""
    records, params, queries, _, _ = _reinsert_case(kind, 13)
    engine = Engine(SimulatedDisk(B) if backend == "memory" else FileDisk(block_size=B))
    engine.create("ix", kind, records, **params)
    core = _core(kind, engine["ix"])
    model = {r.uid: r for r in records}
    runs = [[1, 1.0, True, 1], [0.0, -0.0, 0.0], [{"v": 1}, {"v": 1.0}, {"v": [-0.0]}, {"v": [0.0]}]]
    for old, payloads in zip(records, runs):
        for payload in payloads:
            new = dataclasses.replace(old, payload=payload)
            engine.update("ix", old, new)
            model[old.uid] = new
            here = Stab(new.low) if kind == "collection" else ClassRange(new.class_name, new.key, new.key)
            _check(engine, kind, queries + [here], model)
            old = new
    assert core.generation == 0
    engine.close()


@pytest.mark.parametrize("backend", ["memory", "file"])
@pytest.mark.parametrize("kind", ["collection", "class"])
def test_a_run_of_same_uid_writes_costs_at_most_twice_the_fresh_uid_run(kind, backend, tmp_path):
    """``2B`` writes: ``B/2`` delete + re-insert pairs and ``B`` same-uid updates."""
    def run(same_uid):
        records, params, _, change, fresh = _reinsert_case(kind, 12)
        path = str(tmp_path / f"{same_uid}.pages")
        if backend == "memory":
            engine = Engine(block_size=B)
            engine.create("ix", kind, records, **params)
        else:
            with Engine.open_or_create(path, block_size=B) as built:
                built.create("ix", kind, records, **params)
            engine = Engine.open(path)
        with engine.backend.measure() as m:
            for old in records[: B // 2]:
                engine.delete("ix", old)
                engine.insert("ix", old if same_uid else fresh(old))
            for i, old in enumerate(records[B: 2 * B]):
                engine.update("ix", old, change(old, i) if same_uid else fresh(old))
        engine.close()
        return m.ios

    same, fresh = run(True), run(False)
    assert same <= 2 * fresh, (same, fresh)


# --------------------------------------------------------------------------- #
# one generated oracle over every kind that wraps the core
# --------------------------------------------------------------------------- #
#: kind -> the parameter sets of its core-wrapping variants; ``key`` is a
#: plain B+-tree and deletes natively, so it has no row
VARIANTS = {
    "interval": [{"dynamic": True}, {"dynamic": False}],
    "collection": [{"dynamic": True}],
    "constraint": [{"attribute": "x", "dynamic": True, "variables": ["x"], "relation_name": "r"}],
    "point": [{}],
    "class": [{"method": "combined", "hierarchy": HIERARCHY},
              {"method": "simple", "hierarchy": HIERARCHY}],
}
CASES = [(kind, params) for kind in sorted(KINDS) if kind in VARIANTS for params in VARIANTS[kind]]
CASE_IDS = [
    "-".join([kind] + [str(v) for k, v in p.items() if k in ("dynamic", "method")])
    for kind, p in CASES
]


def test_every_kind_but_the_b_tree_wraps_the_core():
    assert set(KINDS) - set(VARIANTS) == {"key"}


def _make(kind, a, b, tag):
    lo, hi = min(a, b), max(a, b)
    if kind in ("interval", "collection"):
        return Interval(lo, hi, payload=tag)
    if kind == "constraint":
        return GeneralizedTuple([Constraint(X, ">=", lo), Constraint(X, "<=", hi)], name=tag)
    if kind == "point":
        return PlanarPoint(a, b, payload=tag)
    return ClassObject(a, CLASSES[b % len(CLASSES)], payload=tag)


def _changed(kind, record, a, b, tag, payload_only):
    """A new version of ``record`` under its uid (a new tuple for ``constraint``,
    whose records have no uid of their own)."""
    if kind == "constraint":
        return _make(kind, a, b, tag)
    if payload_only:
        return dataclasses.replace(record, payload=tag)
    return dataclasses.replace(_make(kind, a, b, record.payload), uid=record.uid)


def _query(kind, a, b, c):
    lo, hi = min(a, b), max(a, b)
    if kind == "point":
        return ThreeSidedQuery(lo, hi, c)
    if kind == "class":
        return ClassRange(CLASSES[c % len(CLASSES)], lo, hi)
    if kind == "constraint" or c % 2:
        return Stab(a)
    return Range(lo, hi)


def _matches(kind, q, record):
    if kind == "constraint":
        lo, hi = record.projection("x")
        return lo <= q.x <= hi
    if kind == "class":
        q = dataclasses.replace(q, hierarchy=HIERARCHY)
    return q.matches(record)


#: the drawn op mix, delete-heavy so that tombstones reach the rebuild threshold
OPS = ["insert", "insert", "delete", "delete", "delete", "delete", "reinsert", "reinsert", "update"]


@st.composite
def core_case(draw):
    """A block size, a bulk-built prefix, an op script and queries.

    Coordinates come from a grid of 5, 20 or 1 000 cells (ties at the two
    small ones); the script holds two bulk loads at least, so every case
    crosses two global rebuilds whatever else it triggers.
    """
    grid = draw(st.sampled_from([5, 20, 1000]))
    coord = st.integers(0, grid)
    block_size = draw(st.sampled_from([2, 3, 4, 8]))
    prefix = draw(st.integers(0, 30))
    n_ops = draw(st.integers(3 * block_size, 80))
    ops = draw(st.lists(
        st.tuples(st.sampled_from(OPS), coord, coord, st.integers(0, 2 ** 16), st.booleans()),
        min_size=n_ops, max_size=n_ops,
    ))
    for position in draw(st.lists(st.integers(0, n_ops), min_size=2, max_size=2)):
        ops.insert(position, ("bulk", 0, grid, position, False))
    corner = st.integers(-1, grid + 1)
    queries = draw(st.lists(st.tuples(corner, corner, corner), min_size=1, max_size=4))
    return block_size, [(draw(coord), draw(coord)) for _ in range(prefix)], ops, queries


def _drive(kind, params, backend, case):
    block_size, prefix, ops, raw_queries = case
    static = params.get("dynamic") is False
    tags = iter(range(10 ** 6))
    disk = SimulatedDisk(block_size) if backend == "memory" else FileDisk(block_size=block_size)
    engine = Engine(disk)
    try:
        built = [_make(kind, a, b, next(tags)) for a, b in prefix]
        index = engine.create("ix", kind, built, **params)
        core = _core(kind, index)
        live = {id(r): r for r in built}  # model: what a reader must see
        dead = []  # deleted objects, candidates for re-insertion
        queries = [_query(kind, *q) for q in raw_queries]

        def put(record):
            if static:  # a static structure absorbs writes by reconstruction
                engine.bulk_load("ix", [record])
            else:
                engine.insert("ix", record)
            live[id(record)] = record

        for op, a, b, pick, flag in ops:
            inner, generation = core.inner, core.generation
            if op == "insert":
                put(_make(kind, a, b, next(tags)))
            elif op == "delete" and live:
                victim = list(live.values())[pick % len(live)]
                assert engine.delete("ix", victim)
                dead.append(live.pop(id(victim)))
            elif op == "reinsert" and dead:
                put(dead.pop(pick % len(dead)))
            elif op == "update" and live:
                old = list(live.values())[pick % len(live)]
                new = _changed(kind, old, a, b, next(tags), flag)
                if static:
                    assert engine.delete("ix", old)
                    engine.bulk_load("ix", [new])
                else:
                    engine.update("ix", old, new)
                del live[id(old)]
                live[id(new)] = new
            elif op == "bulk":
                batch = [_make(kind, a + i, b, next(tags)) for i in range(1 + pick % 4)]
                if dead and flag:
                    batch.append(dead.pop())
                assert engine.bulk_load("ix", batch) == len(batch)
                live.update((id(r), r) for r in batch)
                assert core.inner is not inner  # a bulk load is a rebuild
            # the generation moves by one exactly when the structure was replaced
            assert core.generation - generation == (core.inner is not inner)
            assert engine.block_count() == engine.backend.blocks_in_use
            assert index.live_count == len(live)
            for q in queries:
                want = [r for r in live.values() if _matches(kind, q, r)]
                assert _versions(engine.query("ix", q)) == _versions(want), (op, q)
    finally:
        engine.close()


CORE_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.mark.parametrize("backend", ["memory", "file"])
@pytest.mark.parametrize("kind,params", CASES, ids=CASE_IDS)
def test_every_rebuilding_kind_matches_the_oracle(kind, params, backend):
    @settings(**CORE_SETTINGS)
    @given(case=core_case())
    def check(case):
        _drive(kind, params, backend, case)

    check()
