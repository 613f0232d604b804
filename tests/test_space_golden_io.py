"""Golden space-and-write table for the engine kinds built of several structures.

``tests/test_metablock_golden_io.py`` pins the metablock trees on their
own; nothing pinned what an engine *kind* stores and rewrites — a
collection (interval manager + endpoint trees) or a class index (a range
tree of B+-trees, or the rake-and-contract pieces over 3-sided trees).  A
structure that is built and kept in sync but never read shows up only
here: in ``block_count()`` and in the I/Os of a build, of a fixed insert
run, of a fixed delete run and of one ``bulk_load``, on a
:class:`SimulatedDisk` with seeded records.

Recorded at PR 17, which removed three such structures (the collection's
second low-endpoint tree, the 3-sided metablock's two blockings, the
uncovered nodes of the Theorem 2.6 range tree); CHANGES.md (PR 17) has the
parent's values beside these.  A row may change only together with such a
line.  The build rows were re-pinned when the B+-tree bulk build stopped
writing its leaves twice and reading them back: since then every build
writes each block once, so ``build_ios == built_blocks`` in every row (and
a combined index's delete run, whose global rebuild is a build, went down
with it).  The ``point`` rows (a blocked PST under global rebuilding: side-log
inserts, tombstoned deletes) were recorded before the global-rebuilding
core was shared by the interval manager and the class indexer, and pin
that it moved nothing for its first user; their ``insert_ios`` went down
(the parent's value beside each) when a side-log append stopped reading
its page back before writing it.  The collection ``bulk_ios`` rows went
down (the parent's value beside each) when the high-endpoint tree stopped
merging a bulk load into its leaves, read back, and was repacked from the
core's stored versions like the low one: since then ``bulk_ios ==
final_blocks`` in every collection row.  The collection and ``combined``
rows were re-pinned (the parent's values beside each) when the metablock
build stopped cutting a small remainder into ``B`` thin leaves and packed
it into just enough leaves of at most ``B^2`` points: fewer blocks built
and kept, at a few more I/Os per insert (a fuller leaf splits sooner).
The collection and class-index ``insert_ios`` went down (the parent's
value beside each; the ``was`` beside a delete, bulk or block entry is
still the value before that earlier re-pin) when a B+-tree split stopped
reading again the parent blocks the descent had read, and a metablock's
pending update points moved into its control block (no update block of
its own to write, and a level I reorganisation one rewrite cheaper).

The second half holds the same designs structurally: every block in use is
owned by exactly one index (``block_count() == blocks_in_use`` for all six
kinds, after writes too), and the collection's ``low-endpoints`` accessor
reads the manager's own tree.
"""

import dataclasses
import random

import pytest

from repro.btree import BPlusTree
from repro.classes.hierarchy import ClassObject
from repro.constraints.relation import GeneralizedRelation
from repro.constraints.terms import Constraint, GeneralizedTuple, Variable
from repro.engine import EndpointRange, Engine, Stab
from repro.engine.core import KINDS
from repro.interval import Interval
from repro.metablock.geometry import PlanarPoint
from repro.workloads import balanced_hierarchy, chain_hierarchy, random_class_objects

HIERARCHIES = {"balanced": balanced_hierarchy(3, 3), "chain": chain_hierarchy(16)}


def _intervals(rnd, n):
    lows = [rnd.uniform(0, 1000) for _ in range(n)]
    return [Interval(lo, lo + rnd.uniform(0, 60)) for lo in lows]


def _points(rnd, n):
    return [PlanarPoint(rnd.uniform(0, 100), rnd.uniform(0, 100)) for _ in range(n)]


def _ios(engine, fn):
    with engine.backend.measure() as m:
        fn()
    return m.ios


def collection_row(B):
    """``create_collection`` at block size ``B``: three metablock levels' worth."""
    rnd = random.Random(9000 + B)
    engine = Engine(block_size=B)
    items = _intervals(rnd, 6 * B * B + 50)
    row = {"build_ios": _ios(engine, lambda: engine.create_collection("c", items))}
    row["built_blocks"] = engine.block_count()
    fresh = _intervals(rnd, 2 * B * B)
    row["insert_ios"] = _ios(engine, lambda: [engine.insert("c", iv) for iv in fresh])
    # half the initial records: far enough to cross the tombstone threshold
    victims = items[: len(items) // 2]
    row["delete_ios"] = _ios(engine, lambda: [engine.delete("c", iv) for iv in victims])
    batch = _intervals(rnd, B * B)
    row["bulk_ios"] = _ios(engine, lambda: engine.bulk_load("c", batch))
    row["final_blocks"] = engine.block_count()
    assert engine.block_count() == engine.backend.blocks_in_use
    return row


def class_row(method, shape):
    """``create_class_index`` with ``method`` over one hierarchy shape, ``B = 8``."""
    hierarchy = HIERARCHIES[shape]
    engine = Engine(block_size=8)
    objects = random_class_objects(hierarchy, 1500, seed=31)
    row = {
        "build_ios": _ios(
            engine, lambda: engine.create_class_index("k", hierarchy, objects, method=method)
        )
    }
    row["built_blocks"] = engine.block_count()
    rnd = random.Random(32)
    classes = hierarchy.classes()
    fresh = [
        ClassObject(rnd.uniform(0, 1000), rnd.choice(classes), payload=1500 + i)
        for i in range(200)
    ]
    row["insert_ios"] = _ios(engine, lambda: [engine.insert("k", o) for o in fresh])
    # far enough for the tombstoning scheme (combined) to rebuild once
    row["delete_ios"] = _ios(engine, lambda: [engine.delete("k", o) for o in objects[:700]])
    row["final_blocks"] = engine.block_count()
    assert engine.block_count() == engine.backend.blocks_in_use
    return row


def point_row(B):
    """``create_point_index`` (a blocked PST under global rebuilding) at ``B``."""
    rnd = random.Random(9100 + B)
    engine = Engine(block_size=B)
    points = _points(rnd, 6 * B * B + 50)
    row = {"build_ios": _ios(engine, lambda: engine.create_point_index("p", points))}
    row["built_blocks"] = engine.block_count()
    index = engine["p"]
    # three side-log fills (three rebuilds) and half a log still pending,
    # which the delete run's threshold must not count as resident
    fresh = _points(rnd, 3 * B + B // 2)
    row["insert_ios"] = _ios(engine, lambda: [engine.insert("p", p) for p in fresh])
    row["insert_rebuilds"] = index.generation
    victims = points[: len(points) // 2]  # crosses the tombstone threshold once
    row["delete_ios"] = _ios(engine, lambda: [engine.delete("p", p) for p in victims])
    row["delete_rebuilds"] = index.generation - row["insert_rebuilds"]
    batch = _points(rnd, B * B)
    row["bulk_ios"] = _ios(engine, lambda: engine.bulk_load("p", batch))
    row["final_blocks"] = engine.block_count()
    assert engine.block_count() == engine.backend.blocks_in_use
    return row


#: kind -> I/Os of the build and of each fixed run, blocks after the build and at the end
GOLDEN = {
    ("collection", 4): {
        "build_ios": 302, "built_blocks": 302, "insert_ios": 845,  # was 915
        "delete_ios": 1026, "bulk_ios": 235, "final_blocks": 235,  # was 1050, 270, 270
    },
    ("collection", 8): {
        "build_ios": 425, "built_blocks": 425, "insert_ios": 2763,  # was 2903
        "delete_ios": 2424, "bulk_ios": 414, "final_blocks": 414,  # was 2447, 426, 426
    },
    ("collection", 16): {
        "build_ios": 755, "built_blocks": 755, "insert_ios": 9897,  # was 10174
        "delete_ios": 8407, "bulk_ios": 755, "final_blocks": 755,  # was 8586, 945, 945
    },
    ("simple", "balanced"): {
        "build_ios": 731, "built_blocks": 731, "insert_ios": 3566,  # was 3982
        "delete_ios": 9988, "final_blocks": 1169,
    },
    ("simple", "chain"): {
        "build_ios": 681, "built_blocks": 681, "insert_ios": 3593,  # was 4045
        "delete_ios": 10000, "final_blocks": 1137,
    },
    ("combined", "balanced"): {
        "build_ios": 1639, "built_blocks": 1639, "insert_ios": 2908,  # was 2999
        "delete_ios": 1160, "final_blocks": 1160,  # was 2125, 2125
    },
    ("combined", "chain"): {
        "build_ios": 757, "built_blocks": 757, "insert_ios": 1878,  # was 1885
        "delete_ios": 632, "final_blocks": 632,  # was 1150, 1150
    },
    ("point", 4): {
        "build_ios": 50, "built_blocks": 50, "insert_ios": 173, "insert_rebuilds": 3,  # was 183
        "delete_ios": 32, "delete_rebuilds": 1, "bulk_ios": 33, "final_blocks": 33,
    },
    ("point", 8): {
        "build_ios": 66, "built_blocks": 66, "insert_ios": 225, "insert_rebuilds": 3,  # was 249
        "delete_ios": 59, "delete_rebuilds": 1, "bulk_ios": 61, "final_blocks": 61,
    },
    ("point", 16): {
        "build_ios": 127, "built_blocks": 127, "insert_ios": 437, "insert_rebuilds": 3,  # was 489
        "delete_ios": 109, "delete_rebuilds": 1, "bulk_ios": 108, "final_blocks": 108,
    },
}


@pytest.mark.parametrize("B", [4, 8, 16])
def test_collection_space_and_write_ios_match_the_recorded_table(B):
    assert collection_row(B) == GOLDEN["collection", B]


@pytest.mark.parametrize("shape", sorted(HIERARCHIES))
@pytest.mark.parametrize("method", ["simple", "combined"])
def test_class_index_space_and_write_ios_match_the_recorded_table(method, shape):
    assert class_row(method, shape) == GOLDEN[method, shape]


@pytest.mark.parametrize("B", [4, 8, 16])
def test_point_space_and_write_ios_match_the_recorded_table(B):
    assert point_row(B) == GOLDEN["point", B]


def test_every_recorded_collection_bulk_load_writes_each_block_once():
    """Both endpoint trees are repacked from the core's stored versions, as
    the metablock tree is rebuilt: a bulk load reads nothing back."""
    rows = {row: cells for row, cells in GOLDEN.items() if row[0] == "collection"}
    assert {row: cells["bulk_ios"] for row, cells in rows.items()} == {
        row: cells["final_blocks"] for row, cells in rows.items()
    }


def test_every_recorded_build_writes_each_block_once():
    assert {row: cells["build_ios"] for row, cells in GOLDEN.items()} == {
        row: cells["built_blocks"] for row, cells in GOLDEN.items()
    }


# --------------------------------------------------------------------------- #
# every block is owned, and counted once
# --------------------------------------------------------------------------- #
def _constraint_tuples(x, start, stop):
    return [
        GeneralizedTuple([Constraint(x, ">=", i), Constraint(x, "<=", i + 10)], name=f"t{i}")
        for i in range(start, stop)
    ]


def _pairs(rnd, n, first):
    return [(rnd.uniform(0, 100), first + i) for i in range(n)]


def _six_kinds(engine, rnd):
    """One index of each kind; per name its ``(inserts, deletes, bulk)`` run.

    Inserts and deletes are argument tuples for ``engine.insert`` /
    ``engine.delete`` (a key index takes ``key, value``), ``bulk`` the items
    of one ``engine.bulk_load``.
    """
    hierarchy = HIERARCHIES["balanced"]
    x = Variable("x")
    built = {
        "interval": _intervals(rnd, 300),
        "collection": _intervals(rnd, 300),
        "class": random_class_objects(hierarchy, 300, seed=33),
        "point": _points(rnd, 300),
        "key": _pairs(rnd, 300, 0),
        "constraint": _constraint_tuples(x, 0, 120),
    }
    assert set(built) == set(KINDS)  # a new kind must join the block audit
    engine.create_interval_index("interval", built["interval"])
    engine.create_collection("collection", built["collection"])
    engine.create_class_index("class", hierarchy, built["class"], method="combined")
    engine.create_point_index("point", built["point"])
    engine.create_key_index("key", built["key"])
    engine.create_constraint_index(
        "constraint", GeneralizedRelation(["x"], built["constraint"], name="r"), "x"
    )
    fresh = {
        "interval": (_intervals(rnd, 60), _intervals(rnd, 40)),
        "collection": (_intervals(rnd, 60), _intervals(rnd, 40)),
        "class": (random_class_objects(hierarchy, 60, seed=34),
                  random_class_objects(hierarchy, 40, seed=35)),
        "point": (_points(rnd, 37), _points(rnd, 40)),
        "key": (_pairs(rnd, 60, 1000), _pairs(rnd, 40, 2000)),
        "constraint": (_constraint_tuples(x, 200, 230), _constraint_tuples(x, 300, 320)),
    }

    def args(name, records):
        return [r if name == "key" else (r,) for r in records]

    return {
        name: (args(name, inserts), args(name, built[name][: 2 * len(built[name]) // 3]), bulk)
        for name, (inserts, bulk) in fresh.items()
    }


@pytest.mark.parametrize("B", [4, 8])
def test_every_block_in_use_is_counted_by_exactly_one_index(B):
    engine = Engine(block_size=B)
    runs = _six_kinds(engine, random.Random(B))
    assert engine.names() == sorted(KINDS)
    assert engine.block_count() == engine.backend.blocks_in_use

    for name, (inserts, deletes, bulk) in runs.items():
        for record in inserts:
            engine.insert(name, *record)
        for record in deletes:
            assert engine.delete(name, *record)
        assert engine.bulk_load(name, bulk) == len(bulk)
        assert engine.block_count() == engine.backend.blocks_in_use, name

    for name in engine.names():
        engine.drop_index(name)
    assert engine.block_count() == engine.backend.blocks_in_use == 0


@pytest.mark.parametrize("method", ["simple", "single", "full-extent", "extent"])
def test_every_class_scheme_counts_every_block_it_uses(method):
    hierarchy = HIERARCHIES["chain"]
    engine = Engine(block_size=4)
    objects = random_class_objects(hierarchy, 200, seed=36)
    engine.create_class_index("k", hierarchy, objects, method=method)
    for obj in random_class_objects(hierarchy, 50, seed=37):
        engine.insert("k", obj)
    for obj in objects[:120]:
        engine.delete("k", obj)
    engine.bulk_load("k", random_class_objects(hierarchy, 30, seed=38))
    assert engine.block_count() == engine.backend.blocks_in_use


# --------------------------------------------------------------------------- #
# one low-endpoint tree per collection
# --------------------------------------------------------------------------- #
def _low_and_manager(coll):
    accessors = {acc.name: acc for acc in coll.planner.accessors}
    return accessors["low-endpoints"], accessors["interval-manager"].index


@pytest.mark.parametrize("dynamic", [True, False])
def test_low_endpoints_reads_the_managers_own_tree_across_bulk_loads(dynamic):
    rnd = random.Random(40)
    engine = Engine(block_size=4)
    coll = engine.create_collection("c", _intervals(rnd, 120), dynamic=dynamic)
    low, manager = _low_and_manager(coll)
    tree = low.index
    assert tree is manager.endpoints
    # an accessor only reads: the manager writes its tree
    assert {"insert", "delete", "bulk"}.isdisjoint(f.name for f in dataclasses.fields(low))

    if dynamic:
        coll.insert(Interval(5.0, 6.0))
    else:
        blocks, size = engine.backend.blocks_in_use, tree.size
        with pytest.raises(NotImplementedError):
            coll.insert(Interval(5.0, 6.0))
        # the manager raised before anything changed
        assert (engine.backend.blocks_in_use, tree.size, len(coll)) == (blocks, size, 120)
    for _ in range(2):
        coll.bulk_load(_intervals(rnd, 40))
        low, manager = _low_and_manager(coll)
        assert low.index is tree is manager.endpoints
        assert tree.size == len(coll)
        q = EndpointRange("low", 100.0, 400.0)
        assert sorted(iv.uid for iv in coll.query(q)) == sorted(iv.uid for iv in coll.oracle(q))
        scan = coll.query(~Stab(500.0))
        assert scan.plan.kind == "scan" and scan.plan.index == "low-endpoints"
        assert sorted(iv.uid for iv in scan) == sorted(iv.uid for iv in coll.oracle(~Stab(500.0)))
    assert coll.block_count() == engine.backend.blocks_in_use


def test_a_collection_bulk_builds_one_endpoint_tree_of_its_own(monkeypatch):
    built = []
    build = BPlusTree._bulk_build.__func__

    def counting(cls, disk, pairs, name="bptree"):
        built.append(name)
        return build(cls, disk, pairs, name=name)

    monkeypatch.setattr(BPlusTree, "_bulk_build", classmethod(counting))
    engine = Engine(block_size=8)
    engine.create_collection("c", _intervals(random.Random(41), 100))
    # the manager's left-endpoint tree, and the collection's high side
    assert built == ["left-endpoints", "high-endpoints"]

