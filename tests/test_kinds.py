"""Everything the engine knows about an index kind, driven by ``KINDS``.

One fixture row per key of :data:`repro.engine.core.KINDS` — records to
build with, construction parameters, a query the kind answers, one more
record to insert — and every test below runs over ``sorted(KINDS)``, so a
seventh kind cannot skip persistence, recovery, the one query route or the
uid horizon: :func:`test_the_fixture_table_covers_every_kind` fails until
it has a row.
"""

import os
import random

import pytest

from repro.classes.hierarchy import ClassObject
from repro.cli import main
from repro.constraints.relation import GeneralizedRelation
from repro.constraints.terms import Constraint, GeneralizedTuple, Variable
from repro.durability.wal import WriteAheadLog
from repro.engine import ClassRange, Engine, Param, Range, Stab
from repro.engine.collection import Collection
from repro.engine.core import KINDS
from repro.errors import StalePreparedError
from repro.interval import Interval
from repro.io import FileDisk, SimulatedDisk
from repro.metablock.geometry import PlanarPoint, ThreeSidedQuery
from repro.records import record_key
from repro.server import ReproServer
from repro.server.core import SessionExecutor
from repro.workloads import balanced_hierarchy, random_class_objects

HIERARCHY = balanced_hierarchy(2, 3)
X = Variable("x")


def _intervals(rnd, n):
    return [Interval(lo, lo + rnd.uniform(0, 40)) for lo in (rnd.uniform(0, 100) for _ in range(n))]


def _tuples(start, stop):
    return [
        GeneralizedTuple([Constraint(X, ">=", i), Constraint(X, "<=", i + 10)], name=f"t{i}")
        for i in range(start, stop)
    ]


ROOT = HIERARCHY.roots()[0]

#: kind -> ``rnd -> (records, params, a query the kind answers, one more record)``
CASES = {
    "interval": lambda rnd: (
        _intervals(rnd, 60), {"dynamic": True}, Stab(50.0), Interval(49, 51),
    ),
    "collection": lambda rnd: (
        _intervals(rnd, 60), {"dynamic": True}, Stab(50.0), Interval(49, 51),
    ),
    "key": lambda rnd: (
        [(rnd.uniform(0, 100), i) for i in range(60)], {}, Range(20.0, 60.0), (50.0, 999),
    ),
    "point": lambda rnd: (
        [PlanarPoint(rnd.uniform(0, 100), rnd.uniform(0, 100)) for _ in range(60)],
        {}, ThreeSidedQuery(20.0, 80.0, 30.0), PlanarPoint(50.0, 50.0),
    ),
    "class": lambda rnd: (
        random_class_objects(HIERARCHY, 60, seed=rnd.randrange(99)),
        {"method": "combined", "hierarchy": HIERARCHY},
        ClassRange(ROOT, 100.0, 700.0),
        ClassObject(500.0, ROOT),
    ),
    "constraint": lambda rnd: (
        _tuples(0, 40),
        {"attribute": "x", "dynamic": True, "variables": ["x"], "relation_name": "r"},
        Range(5.0, 25.0),
        _tuples(100, 101)[0],
    ),
}


def _case(kind):
    return CASES[kind](random.Random(len(kind)))


def _args(kind, record):
    """``engine.insert`` / ``delete`` arguments: a key index takes ``key, value``."""
    return record if kind == "key" else (record,)


def _keys(records):
    """Records by identity: their uid, or a constraint tuple's name (it has no uid)."""
    return sorted(
        (r.name if isinstance(r, GeneralizedTuple) else record_key(r) for r in records),
        key=repr,
    )


def _read(engine, name):
    kind = next(e["kind"] for e in engine.catalog() if e["name"] == name)
    return KINDS[kind][1](engine[name])


def test_the_fixture_table_covers_every_kind():
    assert set(CASES) == set(KINDS)
    assert all(len(row) == 2 for row in KINDS.values())  # build, read: no third column


@pytest.mark.parametrize("backend", [SimulatedDisk, FileDisk])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_build_writes_each_page_once_and_reads_none(kind, backend):
    """The paper's bottom-up build: ``O(n/B)`` writes, one per block it leaves.
    At ``B = 4`` the fixture's 60 records span several metablocks, so the
    sibling (TS) structures and every B+-tree level are part of the count."""
    records, params, _, _ = _case(kind)
    with Engine(backend(block_size=4)) as engine:
        with engine.backend.measure() as m:
            engine.create("ix", kind, records, **params)
        assert (m.reads, m.writes) == (0, engine.block_count())
        assert engine.block_count() == engine.backend.blocks_in_use


@pytest.mark.parametrize("backend", [SimulatedDisk, FileDisk])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_bulk_load_into_an_index_writes_each_page_once(kind, backend):
    """A bulk load into a built index is a global rebuild: every kind on
    the rebuilding core repacks its structure and each tree beside it from
    the versions it stores, so it writes each block it leaves once and
    reads none.  ``key`` stores no versions (a bare B+-tree), so it reads
    its pairs back in one leaf scan (the descent to its first leaf, then
    each leaf it held) and nothing else."""
    records, params, _, _ = _case(kind)
    half = len(records) // 2
    with Engine(backend(block_size=4)) as engine:
        engine.create("ix", kind, records[:half], **params)
        with engine.backend.measure() as scan:
            if kind == "key":
                list(engine["ix"].iter_pairs())
        with engine.backend.measure() as m:
            assert engine.bulk_load("ix", records[half:]) == len(records) - half
        assert (m.reads, m.writes) == (scan.reads, engine.block_count())
        assert engine.block_count() == engine.backend.blocks_in_use


# --------------------------------------------------------------------------- #
# (i) persistence: checkpoint + open, and WAL-only recovery
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_checkpoint_and_open_round_trip(tmp_path, kind):
    records, params, _, extra = _case(kind)
    path = str(tmp_path / "db.pages")
    with Engine.open_or_create(path, block_size=8) as engine:
        engine.create("ix", kind, records, **params)
        engine.checkpoint()
        engine.insert("ix", *_args(kind, extra))  # rides the WAL past the checkpoint
        model = _keys(_read(engine, "ix"))
        assert len(model) == len(records) + 1
    with Engine.open(path) as reopened:
        assert reopened.catalog()[0]["kind"] == kind
        assert _keys(_read(reopened, "ix")) == model
        assert reopened.block_count() == reopened.backend.blocks_in_use - len(
            reopened.backend.meta["catalog_blocks"]
        )


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_wal_only_recovery(tmp_path, kind):
    """A crash before the first checkpoint: the ``create`` op is all there is."""
    records, params, _, extra = _case(kind)
    log = str(tmp_path / "only.wal")
    crashed = Engine(block_size=8)
    crashed.attach_wal(log, fsync=False)
    crashed.create("ix", kind, records, **params)
    crashed.insert("ix", *_args(kind, extra))
    crashed.wal.close()  # the state is abandoned; the log is the only survivor
    recovered = Engine(block_size=8)
    assert recovered.attach_wal(log, fsync=False) == 2
    assert _keys(_read(recovered, "ix")) == _keys(_read(crashed, "ix"))
    assert recovered.catalog() == crashed.catalog()


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_database_and_a_log_in_the_parents_shape_reopen(tmp_path, kind):
    """Catalog chain, root entry and ``create`` op written by hand, field for
    field as the commit before ``Engine.create`` wrote them — but for the
    root entry's hierarchy, which a page header (JSON since page format 2)
    holds as its ordered pairs; the logged ``create`` keeps the object."""
    records, params, _, extra = _case(kind)
    path = str(tmp_path / "old.pages")
    disk = FileDisk(path, block_size=8)
    head, blocks = None, []
    for start in reversed(range(0, len(records), 8)):
        block = disk.allocate(records=records[start : start + 8], header={"next": head})
        head = block.block_id
        blocks.append(head)
    entry = {"name": "old", "kind": kind, "params": dict(params)}
    stored = {**entry, "params": {k: v.edges() if k == "hierarchy" else v for k, v in params.items()}}
    root = disk.allocate(
        records=[],
        header={"entries": [{**stored, "head": head, "count": len(records)}], "format": 1},
    )
    disk.meta.update(
        catalog_root=root.block_id, catalog_blocks=blocks + [root.block_id], durable_epoch=3
    )
    disk.close()
    wal = WriteAheadLog(path + ".wal", fsync=False)
    wal.append(3, ("insert", "old", _args(kind, extra)))  # covered by the checkpoint: skipped
    more, _, _, late = _case(kind)
    wal.append(4, ("create", {**entry, "name": "new"}, more))
    wal.append(5, ("insert", "new", _args(kind, late)))
    wal.close()
    with Engine.open(path) as engine:
        assert engine.names() == ["new", "old"]
        assert _keys(_read(engine, "old")) == _keys(records)
        assert _keys(_read(engine, "new")) == _keys(list(more) + [late])


# --------------------------------------------------------------------------- #
# (ii) one planner per index, one query route
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", [SimulatedDisk, FileDisk])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_query_explain_and_the_index_itself_agree(kind, backend):
    records, params, q, _ = _case(kind)
    with Engine(backend(block_size=8)) as engine:
        index = engine.create("ix", kind, records, **params)
        planner = engine.planner("ix")  # there from creation, before any query
        assert engine.plan_cache_info()["per_index"].keys() == {"ix"}
        if isinstance(index, Collection):
            assert planner is index.planner
        routed, direct = engine.query("ix", q), index.query(q)
        assert routed.plan == engine.explain("ix", q)
        assert _keys(routed.all()) == _keys(direct.all()) != []
        assert (routed.ios, routed.bound) == (direct.ios, direct.bound)
        assert routed.ios > 0 and routed.bound is not None
        assert engine.planner("ix") is planner


#: kind -> a descriptor the kind does not serve (a collection's scan fallback
#: serves anything with a ``matches`` oracle, so it gets a bare object)
UNSERVED = {
    "interval": ClassRange(ROOT, 0.0, 1.0),
    "collection": object(),
    "key": ThreeSidedQuery(0.0, 1.0, 2.0),
    "point": Stab(1.0),
    "class": Stab(1.0),
    "constraint": ThreeSidedQuery(0.0, 1.0, 2.0),
}


@pytest.mark.parametrize("backend", [SimulatedDisk, FileDisk])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_route_returns_the_same_records_ios_and_bound(kind, backend):
    """``index.query``, ``engine.query``, a prepared run and a session read
    build one result over ``index.stream``, counted one way."""
    assert set(UNSERVED) == set(KINDS)
    records, params, q, _ = _case(kind)
    with Engine(backend(block_size=8)) as engine:
        index = engine.create("ix", kind, records, **params)
        routes = [
            index.query(q),
            engine.query("ix", q),
            engine.prepare("ix", q).run(),
            engine.session().query("ix", q),
        ]
        answers = [(_keys(list(r)), r.stats.total, r.bound) for r in routes]
        assert answers[0][0] != [] and answers[0][1] > 0 and answers[0][2] is not None
        assert answers.count(answers[0]) == len(routes), answers
        assert _keys(index.stream(q)) == answers[0][0]
        before = engine.io_stats().total
        for route in (index.query, lambda bad: engine.query("ix", bad)):
            with pytest.raises(TypeError):
                route(UNSERVED[kind])  # at the call, not at the drain
        assert engine.io_stats().total == before


def test_plan_cache_info_lists_every_index_and_a_recreated_name_is_stale():
    engine = Engine(block_size=8)
    for kind in sorted(KINDS):
        records, params, _, _ = _case(kind)
        engine.create(kind, kind, records, **params)
    assert list(engine.plan_cache_info()["per_index"]) == engine.names() == sorted(KINDS)
    prepared = engine.prepare("interval", Stab(Param("x")))
    assert prepared.run(x=50.0).all()
    before = engine.planner("interval")
    engine.drop_index("interval")
    assert "interval" not in engine.plan_cache_info()["per_index"]
    engine.create("interval", "interval", _intervals(random.Random(1), 10), dynamic=True)
    assert engine.planner("interval") is not before
    with pytest.raises(StalePreparedError):
        prepared.run(x=50.0)
    with pytest.raises(ValueError, match="unknown index kind"):
        engine.create("x", "trie")


# --------------------------------------------------------------------------- #
# (iii) the typed constructors are calls to ``create``
# --------------------------------------------------------------------------- #
def test_create_constraint_index_indexes_the_callers_relation():
    engine = Engine(block_size=8)
    relation = GeneralizedRelation(["x"], _tuples(0, 20), name="r")
    index = engine.create_constraint_index("c", relation, "x")
    assert index.relation is relation
    assert engine.catalog()[0]["params"] == {
        "attribute": "x", "dynamic": True, "variables": ["x"], "relation_name": "r",
    }
    one_shot = (iv for iv in _intervals(random.Random(2), 10))
    assert len(engine.create_interval_index("g", one_shot)) == 10
    assert engine.uid_horizon() == max(iv.uid for iv in engine["g"].intervals())


# --------------------------------------------------------------------------- #
# (iv) ``repro catalog`` reads, and only reads
# --------------------------------------------------------------------------- #
def test_repro_catalog_leaves_a_live_database_untouched(tmp_path, capsys):
    path = str(tmp_path / "live.pages")
    engine = Engine.open_or_create(path, block_size=8)  # held open, like a server
    try:
        engine.create_collection("c", _intervals(random.Random(3), 200))
        engine.create_class_index("k", HIERARCHY, random_class_objects(HIERARCHY, 30, seed=1))
        engine.checkpoint()
        engine.insert("c", Interval(1, 2))
        engine.delete("c", engine["c"].records()[0])
        files = [path, path + ".meta", path + ".wal"]

        def state():
            return [(open(f, "rb").read(), os.stat(f).st_mtime_ns) for f in files]

        before = state()
        assert main(["catalog", "--db", path]) == 0
        assert state() == before
        out = capsys.readouterr().out
        assert "kind=collection records=200" in out and "kind=class" in out
        assert "2 record(s) past the checkpoint" in out and "1 I/O" in out
    finally:
        engine.close()
    assert main(["catalog", "--db", path]) == 0
    assert "records=200" in capsys.readouterr().out  # 200 + 1 - 1, now checkpointed
    assert main(["catalog", "--db", str(tmp_path / "typo.pages")]) == 2


# --------------------------------------------------------------------------- #
# (v) the uid horizon is kept, not recomputed
# --------------------------------------------------------------------------- #
def _brute_force_horizon(engine):
    uids = [
        getattr(value, "uid", None)
        for name in engine.names()
        for record in _read(engine, name)
        for value in (record[1] if isinstance(record, tuple) else record,)
    ]
    return max((uid for uid in uids if isinstance(uid, int)), default=-1)


def test_uid_horizon_is_a_floor_above_every_resident_uid(tmp_path):
    path = str(tmp_path / "h.pages")
    rnd = random.Random(4)
    with Engine.open_or_create(path, block_size=8) as engine:
        assert engine.uid_horizon() == -1
        for kind in sorted(KINDS):
            records, params, _, extra = _case(kind)
            engine.create(kind, kind, records, **params)
            assert engine.uid_horizon() == _brute_force_horizon(engine)
            engine.insert(kind, *_args(kind, extra))
            assert engine.uid_horizon() == _brute_force_horizon(engine)
        engine.create_key_index("by-low", [(iv.low, iv) for iv in _intervals(rnd, 5)])
        engine.bulk_load("collection", _intervals(rnd, 20))
        newest = Interval(0, 1)
        engine.update("interval", engine["interval"].intervals()[0], newest)
        assert engine.uid_horizon() == _brute_force_horizon(engine) >= newest.uid
        high = engine.uid_horizon()
        for name in engine.names():  # whichever record holds the maximum goes
            for record in _read(engine, name)[-3:]:
                engine.delete(name, *(record if name in ("key", "by-low") else (record,)))
        assert engine.uid_horizon() == high > _brute_force_horizon(engine)
        engine.checkpoint()
        engine.insert("collection", Interval(2, 3))  # replayed from the WAL on open
        resident = _brute_force_horizon(engine)
    with Engine.open(path) as reopened:
        assert reopened.uid_horizon() == _brute_force_horizon(reopened) == resident


def test_stats_reads_no_records(monkeypatch):
    engine = Engine(block_size=8)
    engine.create_collection("c", _intervals(random.Random(5), 50))
    calls = []
    original = Collection.records
    monkeypatch.setattr(
        Collection, "records", lambda self: calls.append(1) or original(self)
    )
    with ReproServer(engine) as server:
        stats = SessionExecutor(server, engine.session()).stats()
    assert stats["engine"]["uid_horizon"] == max(iv.uid for iv in original(engine["c"]))
    assert calls == []
