"""Oracle tests for the lifecycle-complete write API.

Random interleavings of ``insert`` / ``delete`` / ``update`` /
``bulk_load`` (plus batched variants) run against every index kind and
both storage backends, with a brute-force in-memory model as the
correctness oracle; a separate suite closes an engine on a real page file
and reopens it in (effectively) another process, asserting identical
answers *and* identical I/O accounting.
"""

import random

import pytest

from repro.classes.hierarchy import ClassHierarchy, ClassObject
from repro.constraints.relation import GeneralizedRelation
from repro.constraints.terms import Constraint, GeneralizedTuple, Variable
from repro.engine import (
    BOUND_SLACK,
    BOUND_SLACK_PAGES,
    ClassRange,
    EndpointRange,
    Engine,
    Range,
    Stab,
    supports_bulk_load,
    supports_deletes,
)
from repro.interval import Interval, intervals_stabbed
from repro.io import FileDisk, SimulatedDisk
from repro.metablock.geometry import PlanarPoint, ThreeSidedQuery
from repro.workloads import balanced_hierarchy, chain_hierarchy, star_hierarchy

B = 8


def _backend(kind, tmp_path):
    if kind == "memory":
        return SimulatedDisk(B)
    return FileDisk(str(tmp_path / "pages.bin"), block_size=B)


def _random_interval(rnd):
    lo = rnd.uniform(0, 100)
    return Interval(lo, lo + rnd.uniform(0.5, 25))


def _uids(items):
    return sorted(iv.uid for iv in items)


# --------------------------------------------------------------------------- #
# collections: the full write surface against a model list
# --------------------------------------------------------------------------- #
class TestCollectionOracle:
    QUERIES = [
        Stab(10.0), Stab(50.0), Stab(90.0),
        Range(20.0, 30.0), Range(0.0, 100.0),
        EndpointRange("low", 10.0, 60.0), EndpointRange("high", 40.0, 80.0),
    ]

    def _check(self, coll, model):
        assert coll.live_count == len(model)
        for q in self.QUERIES:
            want = _uids(r for r in model if q.matches(r))
            assert _uids(coll.query(q)) == want, q

    @pytest.mark.parametrize("backend_kind", ["memory", "file"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_interleavings_match_brute_force(self, backend_kind, seed, tmp_path):
        rnd = random.Random(seed)
        disk = _backend(backend_kind, tmp_path)
        engine = Engine(disk)
        model = [_random_interval(rnd) for _ in range(80)]
        coll = engine.create_collection("c", model)
        model = list(model)

        graveyard = []
        for step in range(120):
            op = rnd.random()
            if op < 0.35 and model:
                victim = rnd.choice(model)
                assert coll.delete(victim) is True
                model.remove(victim)
                graveyard.append(victim)
                assert coll.delete(victim) is False
            elif op < 0.55 and model:
                old = rnd.choice(model)
                new = _random_interval(rnd)
                coll.update(old, new)
                model.remove(old)
                model.append(new)
            elif op < 0.7 and graveyard:
                revived = graveyard.pop(rnd.randrange(len(graveyard)))
                coll.insert(revived)  # re-insert after delete, pre-rebuild
                model.append(revived)
            elif op < 0.8:
                iv = _random_interval(rnd)
                coll.insert(iv)
                model.append(iv)
            else:
                batch = [_random_interval(rnd) for _ in range(rnd.randrange(1, 8))]
                assert coll.bulk_load(batch) == len(batch)
                model.extend(batch)
            if step % 30 == 29:
                self._check(coll, model)
        self._check(coll, model)
        engine.close()

    @pytest.mark.parametrize("backend_kind", ["memory", "file"])
    def test_write_batch_defers_and_flushes_grouped(self, backend_kind, tmp_path):
        rnd = random.Random(9)
        engine = Engine(_backend(backend_kind, tmp_path))
        model = [_random_interval(rnd) for _ in range(40)]
        coll = engine.create_collection("c", model)

        staged = [_random_interval(rnd) for _ in range(20)]
        victim = model[0]
        with coll.batch(max_size=100) as batch:
            for iv in staged[:10]:
                coll.insert(iv)
            assert coll.delete(victim) is True
            for iv in staged[10:]:
                coll.insert(iv)
            # nothing has been applied yet: queries still see the old state
            assert coll.live_count == len(model)
            assert len(batch) == 21
        model = [iv for iv in model if iv.uid != victim.uid] + staged
        self._check(coll, model)
        engine.close()

    def test_write_batch_autoflushes_at_max_size(self):
        engine = Engine(block_size=B)
        coll = engine.create_collection("c")
        with coll.batch(max_size=5) as batch:
            for i in range(7):
                coll.insert(Interval(i, i + 1))
            # 5 flushed at the bound, 2 still pending
            assert coll.live_count == 5
            assert len(batch) == 2
        assert coll.live_count == 7

    def test_batch_staged_validation(self):
        engine = Engine(block_size=B)
        iv = Interval(1, 2)
        coll = engine.create_collection("c", [iv])
        with coll.batch() as _:
            fresh = Interval(3, 4)
            coll.insert(fresh)
            with pytest.raises(ValueError, match="already indexed"):
                coll.insert(fresh)
            assert coll.delete(fresh) is True  # staged insert cancelled
            with pytest.raises(KeyError):
                coll.update(fresh, Interval(5, 6))  # no longer staged
        assert coll.live_count == 1

    def test_update_failure_restores_the_old_record(self):
        engine = Engine(block_size=B)
        kept = Interval(0, 10)
        coll = engine.create_collection("s", [kept], dynamic=False)
        # static collections reject single inserts; the update must fail
        # WITHOUT losing the record it already deleted
        with pytest.raises(NotImplementedError):
            coll.update(kept, Interval(1, 11))
        assert coll.live_count == 1
        assert _uids(coll.query(Stab(5.0))) == [kept.uid]
        # colliding target uid fails before anything is touched
        other = Interval(20, 30)
        engine2 = Engine(block_size=B)
        coll2 = engine2.create_collection("d", [kept, other])
        with pytest.raises(ValueError, match="already indexed"):
            coll2.update(kept, other)
        assert coll2.live_count == 2

    def test_engine_update_on_key_index_pairs(self):
        engine = Engine(block_size=B)
        engine.create_key_index("kv", [(1, "a"), (2, "b")])
        engine.update("kv", (1, "a"), (1, "z"))
        assert engine["kv"].search(1) == ["z"]
        with pytest.raises(KeyError):
            engine.update("kv", (9, "x"), (9, "y"))

    def test_bulk_load_inside_batch_is_deferred_and_validated(self):
        engine = Engine(block_size=B)
        coll = engine.create_collection("c")
        iv = Interval(0, 1)
        with coll.batch() as batch:
            assert coll.bulk_load([iv, Interval(2, 3)]) == 2
            assert coll.live_count == 0  # deferred, not applied
            with pytest.raises(ValueError, match="already indexed"):
                coll.insert(iv)  # staged state sees the bulk-loaded record
            assert len(batch) == 2
        assert coll.live_count == 2

    def test_batched_single_insert_works_on_static_collections(self):
        engine = Engine(block_size=B)
        coll = engine.create_collection("s", [Interval(0, 10)], dynamic=False)
        with coll.batch():
            coll.insert(Interval(5, 15))  # a 1-record run: bulk fallback
        assert coll.live_count == 2

    def test_duplicate_uid_insert_raises(self):
        engine = Engine(block_size=B)
        iv = Interval(1, 2)
        coll = engine.create_collection("c", [iv])
        with pytest.raises(ValueError, match="uid"):
            coll.insert(iv)
        with pytest.raises(ValueError, match="uid"):
            engine.insert("c", iv)
        with pytest.raises(ValueError, match="uid"):
            coll.bulk_load([iv])
        twin = Interval(7, 8)
        with pytest.raises(ValueError, match="uid"):
            coll.bulk_load([twin, twin])
        # the interval manager guards direct engine inserts the same way
        engine.create_interval_index("plain", [iv])
        with pytest.raises(ValueError, match="uid"):
            engine.insert("plain", iv)


# --------------------------------------------------------------------------- #
# every index kind, delete-heavy
# --------------------------------------------------------------------------- #
class TestDeleteHeavyEveryKind:
    @pytest.mark.parametrize("backend_kind", ["memory", "file"])
    @pytest.mark.parametrize("dynamic", [True, False])
    def test_interval_manager(self, backend_kind, dynamic, tmp_path):
        rnd = random.Random(3)
        engine = Engine(_backend(backend_kind, tmp_path))
        model = [_random_interval(rnd) for _ in range(120)]
        index = engine.create_interval_index("ivs", model, dynamic=dynamic)
        assert supports_deletes(index) and supports_bulk_load(index)
        for victim in rnd.sample(model, 90):  # deep into rebuild territory
            assert engine.delete("ivs", victim)
            model.remove(victim)
        for q in (10.0, 40.0, 77.0):
            assert _uids(engine.query("ivs", Stab(q))) == _uids(
                intervals_stabbed(model, q)
            )
        assert index.live_count == len(model)
        engine.close()

    @pytest.mark.parametrize("backend_kind", ["memory", "file"])
    def test_point_index_via_rebuilding_adapter(self, backend_kind, tmp_path):
        rnd = random.Random(4)
        engine = Engine(_backend(backend_kind, tmp_path))
        model = [PlanarPoint(rnd.uniform(0, 100), rnd.uniform(0, 100))
                 for _ in range(100)]
        index = engine.create_point_index("pts", model)
        assert supports_deletes(index) and supports_bulk_load(index)
        for victim in rnd.sample(model, 70):
            assert engine.delete("pts", victim)
            model.remove(victim)
        extra = [PlanarPoint(rnd.uniform(0, 100), rnd.uniform(0, 100))
                 for _ in range(10)]
        assert engine.bulk_load("pts", extra) == 10
        model.extend(extra)
        q = ThreeSidedQuery(20.0, 80.0, 30.0)
        want = sorted(p.uid for p in model if q.matches(p))
        assert sorted(p.uid for p in engine.query("pts", q)) == want
        engine.close()

    @pytest.mark.parametrize("method", ["simple", "combined", "single",
                                        "extent", "full-extent"])
    def test_class_indexer(self, method):
        rnd = random.Random(5)
        hierarchy = ClassHierarchy()
        hierarchy.add_class("Root")
        for name in "AB":
            hierarchy.add_class(name, "Root")
        engine = Engine(block_size=B)
        model = [ClassObject(rnd.uniform(0, 100), rnd.choice(["Root", "A", "B"]))
                 for _ in range(80)]
        index = engine.create_class_index("cls", hierarchy, model, method=method)
        assert supports_deletes(index) and supports_bulk_load(index)
        for victim in rnd.sample(model, 60):  # past the tombstone threshold
            assert engine.delete("cls", victim)
            model.remove(victim)
        extra = [ClassObject(rnd.uniform(0, 100), "A") for _ in range(8)]
        assert engine.bulk_load("cls", extra) == 8
        model.extend(extra)
        for cls in ("Root", "A"):
            want = sorted(o.uid for o in model
                          if o.class_name in hierarchy.descendants(cls)
                          and 20 <= o.key <= 70)
            got = sorted(o.uid for o in index.iter_query(cls, 20, 70))
            assert got == want, (method, cls)
        assert index.live_count == len(model)

        # the same run interleaved with inserts, over the shapes that decide
        # which range-tree nodes and path pieces exist; every class is asked
        two_roots = ClassHierarchy()
        for root in ("R", "S"):
            two_roots.add_class(root)
            for child in "abc":
                two_roots.add_class(root + child, root)
            two_roots.add_class(root + "a1", root + "a")
        shapes = {
            "chain": chain_hierarchy(9),
            "star": star_hierarchy(7),
            "balanced": balanced_hierarchy(2, 3),
            "two-root": two_roots,
        }
        for shape, hierarchy in shapes.items():
            classes = hierarchy.classes()
            model = [ClassObject(rnd.uniform(0, 100), rnd.choice(classes)) for _ in range(80)]
            index = engine.create_class_index(shape, hierarchy, model, method=method)
            for step, victim in enumerate(rnd.sample(model, 60)):
                assert engine.delete(shape, victim)
                model.remove(victim)
                if step % 3 == 0:
                    model.append(ClassObject(rnd.uniform(0, 100), rnd.choice(classes)))
                    engine.insert(shape, model[-1])
            for cls in classes:
                lo = rnd.uniform(0, 60)
                q = ClassRange(cls, lo, lo + 40)
                want = sorted(o.uid for o in model
                              if o.class_name in hierarchy.descendants(cls)
                              and q.low <= o.key <= q.high)
                assert sorted(o.uid for o in engine.query(shape, q)) == want, (method, shape, cls)
            assert index.live_count == len(model)

    def test_key_index_btree(self):
        rnd = random.Random(6)
        engine = Engine(block_size=B)
        pairs = [(rnd.randrange(0, 50), i) for i in range(100)]
        tree = engine.create_key_index("kv", pairs)
        assert supports_deletes(tree) and supports_bulk_load(tree)
        for key, value in rnd.sample(pairs, 70):
            assert engine.delete("kv", key, value)
            pairs.remove((key, value))
        assert engine.bulk_load("kv", [(100 + i, i) for i in range(5)]) == 5
        pairs += [(100 + i, i) for i in range(5)]
        want = sorted(v for k, v in pairs if 10 <= k <= 30)
        assert sorted(v for _, v in tree.range_search(10, 30)) == want
        assert tree.size == len(pairs)

    def test_constraint_index(self):
        x = Variable("x")
        engine = Engine(block_size=B)
        tuples = [
            GeneralizedTuple(
                [Constraint(x, ">=", i), Constraint(x, "<=", i + 10)], name=f"t{i}"
            )
            for i in range(0, 60, 2)
        ]
        relation = GeneralizedRelation(["x"], tuples, name="r")
        index = engine.create_constraint_index("cons", relation, "x")
        assert supports_deletes(index) and supports_bulk_load(index)
        live = list(tuples)
        for victim in list(live)[::2]:
            assert engine.delete("cons", victim)
            live.remove(victim)
            assert engine.delete("cons", victim) is False
        got = sorted(gt.name for gt in index.stabbing_tuples(25))
        want = sorted(
            gt.name for gt in live
            if gt.projection("x")[0] <= 25 <= gt.projection("x")[1]
        )
        assert got == want
        assert index.live_count == len(live)


# --------------------------------------------------------------------------- #
# persistence: close on a page file, reopen, same answers and bounds
# --------------------------------------------------------------------------- #
class TestCatalogPersistence:
    def _populate(self, engine, intervals):
        engine.create_collection("temporal", intervals)
        engine.create_key_index("kv", [(i, f"v{i}") for i in range(40)])
        rnd = random.Random(8)
        engine.create_point_index(
            "pts",
            [PlanarPoint(rnd.uniform(0, 50), rnd.uniform(0, 50)) for _ in range(30)],
        )
        hierarchy = ClassHierarchy()
        hierarchy.add_class("Root")
        hierarchy.add_class("A", "Root")
        engine.create_class_index(
            "cls",
            hierarchy,
            [ClassObject(float(i), "A" if i % 2 else "Root") for i in range(30)],
        )

    def test_reopen_answers_within_the_same_bound(self, tmp_path):
        path = str(tmp_path / "db.pages")
        rnd = random.Random(7)
        intervals = [_random_interval(rnd) for _ in range(300)]

        reference = Engine(SimulatedDisk(B))
        self._populate(reference, intervals)
        ref = reference.query("temporal", Stab(42.0))
        ref_uids, ref_ios, ref_bound = _uids(ref), ref.ios, ref.bound

        with Engine(FileDisk(path, block_size=B)) as first:
            self._populate(first, intervals)
        # and the sidecar makes it a database: a fresh process reopens it
        with Engine.open(path) as engine:
            assert sorted(engine.names()) == ["cls", "kv", "pts", "temporal"]
            result = engine.query("temporal", Stab(42.0))
            assert _uids(result) == ref_uids
            # identical structure => identical accounting, not merely close
            assert result.ios == ref_ios
            assert result.bound == ref_bound
            assert result.ios <= BOUND_SLACK * result.bound + BOUND_SLACK_PAGES
            assert engine["kv"].search(7) == ["v7"]
            assert len(engine.query("pts", ThreeSidedQuery(0, 50, 0)).all()) == 30

    def test_reopened_engine_stays_writable_and_repersists(self, tmp_path):
        path = str(tmp_path / "db.pages")
        rnd = random.Random(10)
        intervals = [_random_interval(rnd) for _ in range(100)]
        with Engine(FileDisk(path, block_size=B)) as engine:
            engine.create_collection("temporal", intervals)

        with Engine.open(path) as engine:
            coll = engine["temporal"]
            survivors = coll.records()
            for victim in survivors[:40]:
                assert engine.delete("temporal", victim)
            added = [_random_interval(rnd) for _ in range(25)]
            assert engine.bulk_load("temporal", added) == 25
            model = survivors[40:] + added
            assert coll.live_count == len(model)

        # third process: the post-write state survived the second close
        with Engine.open(path) as engine:
            assert engine["temporal"].live_count == len(model)
            for q in (15.0, 55.0):
                want = _uids(intervals_stabbed(model, q))
                assert _uids(engine.query("temporal", Stab(q))) == want

    def test_fresh_uids_do_not_collide_after_restore(self, tmp_path):
        path = str(tmp_path / "db.pages")
        with Engine(FileDisk(path, block_size=B)) as engine:
            engine.create_collection("temporal", [Interval(0, 10), Interval(5, 15)])
        with Engine.open(path) as engine:
            restored_uids = set(_uids(engine["temporal"].records()))
            fresh = Interval(5.5, 6.5)
            assert fresh.uid not in restored_uids
            engine.insert("temporal", fresh)
            assert len(engine.query("temporal", Stab(6.0)).all()) == 3

    def test_catalog_listing_and_checkpoint_reclaims_space(self, tmp_path):
        path = str(tmp_path / "db.pages")
        disk = FileDisk(path, block_size=B)
        engine = Engine(disk)
        engine.create_collection("temporal", [Interval(i, i + 1) for i in range(50)])
        entries = engine.catalog()
        assert [e["name"] for e in entries] == ["temporal"]
        assert entries[0]["kind"] == "collection"
        assert entries[0]["records"] == 50
        engine.checkpoint()
        blocks_after_first = disk.blocks_in_use
        engine.checkpoint()  # supersedes, must not leak catalog blocks
        assert disk.blocks_in_use == blocks_after_first
        engine.close()

    def test_simulated_disk_checkpoint_roundtrips_in_process(self):
        engine = Engine(block_size=B)
        engine.create_interval_index("ivs", [Interval(0, 5)])
        root = engine.checkpoint()
        assert engine.backend.meta["catalog_root"] == root

    def test_dropped_index_stays_dropped_across_reopen(self, tmp_path):
        path = str(tmp_path / "db.pages")
        with Engine(FileDisk(path, block_size=B)) as engine:
            engine.create_collection("doomed", [Interval(0, 1)])
            engine.create_collection("kept", [Interval(2, 3)])
            engine.checkpoint()  # persists both...
            engine.drop_index("doomed")  # ...then close() must supersede it
        with Engine.open(path) as engine:
            assert engine.names() == ["kept"]

    def test_key_pair_values_advance_the_uid_counters(self, tmp_path):
        path = str(tmp_path / "db.pages")
        with Engine(FileDisk(path, block_size=B)) as engine:
            # uid-bearing records hidden inside (key, value) pairs only
            engine.create_key_index("kv", [(iv.low, iv) for iv in
                                           (Interval(0, 1), Interval(2, 3))])
        with Engine.open(path) as engine:
            restored = {iv.uid for _, iv in engine["kv"].iter_pairs()}
            assert Interval(9, 10).uid not in restored


class TestFailedWritesLeaveStructuresIntact:
    def test_bulk_load_with_incomparable_records_raises_cleanly(self):
        engine = Engine(block_size=B)
        manager = engine.create_interval_index("ivs", [Interval(i, i + 5)
                                                       for i in range(10)])
        with pytest.raises(TypeError):
            manager.bulk_load([Interval("a", "b")])  # unorderable vs ints
        # nothing mutated, nothing lost
        assert manager.live_count == 10
        assert len(manager.stabbing_query(5)) == 6

    def test_class_bulk_load_unknown_class_raises_cleanly(self):
        hierarchy = ClassHierarchy()
        hierarchy.add_class("Root")
        engine = Engine(block_size=B)
        index = engine.create_class_index(
            "cls", hierarchy, [ClassObject(float(i), "Root") for i in range(10)]
        )
        with pytest.raises(KeyError):
            index.bulk_load([ClassObject(1.0, "NoSuchClass")])
        assert index.live_count == 10
        assert len(index.query("Root", 0, 100)) == 10

    def test_engine_close_is_idempotent_on_persistent_backends(self, tmp_path):
        path = str(tmp_path / "db.pages")
        engine = Engine(FileDisk(path, block_size=B))
        engine.create_collection("c", [Interval(0, 1)])
        engine.close()
        engine.close()  # second close: no-op, no checkpoint on a closed disk
        with Engine.open(path) as reopened:
            assert reopened["c"].live_count == 1

    def test_rebuilding_index_survives_a_failing_fold_in(self):
        from repro.engine import RebuildingIndex
        from repro.pst import ExternalPST

        disk = SimulatedDisk(4)
        pts = [PlanarPoint(float(i), float(i)) for i in range(20)]
        index = RebuildingIndex(disk, lambda items: ExternalPST(disk, items), pts)
        # three clean pending records, then an incomparable one as the
        # log-full trigger: the rebuild must fail without bricking the index
        for i in range(3):
            index.insert(PlanarPoint(100.0 + i, 100.0 + i))
        with pytest.raises(TypeError):
            index.insert(PlanarPoint("g", "h"))  # 4th = B: triggers rebuild
        # still answering queries (old structure + overlay), bad insert undone
        assert len(index.query(ThreeSidedQuery(0.0, 300.0, 0.0)).all()) == 23
        assert index.live_count == 23

    def test_failed_single_insert_leaves_no_phantom_record(self):
        engine = Engine(block_size=B)
        manager = engine.create_interval_index("ivs", [Interval(float(i), i + 2.0)
                                                       for i in range(10)])
        with pytest.raises(TypeError):
            manager.insert(Interval("a", "b"))  # incomparable endpoints
        assert manager.live_count == 10
        # later batch work must not choke on a phantom from the failed insert
        manager.bulk_load([Interval(50.0, 55.0)])
        assert manager.live_count == 11

    def test_failed_static_constraint_insert_does_not_leak_into_relation(self):
        x = Variable("x")
        engine = Engine(block_size=B)
        gt0 = GeneralizedTuple([Constraint(x, ">=", 0), Constraint(x, "<=", 1)])
        relation = GeneralizedRelation(["x"], [gt0], name="r")
        index = engine.create_constraint_index("cons", relation, "x", dynamic=False)
        gt = GeneralizedTuple([Constraint(x, ">=", 5), Constraint(x, "<=", 6)])
        with pytest.raises(NotImplementedError):
            index.insert(gt)  # static manager refuses single inserts
        assert len(relation.tuples) == 1  # the catalog must not persist gt
        assert index.live_count == 1

    def test_bulk_load_into_batch_validates_whole_batch_first(self):
        engine = Engine(block_size=B)
        live = Interval(0, 1)
        coll = engine.create_collection("c", [live])
        with coll.batch() as batch:
            with pytest.raises(ValueError, match="uid"):
                coll.bulk_load([Interval(2, 3), live])  # dup mid-batch
            assert len(batch) == 0  # nothing partially staged
        assert coll.live_count == 1

    def test_constraint_bulk_load_rejects_intra_batch_duplicates(self):
        x = Variable("x")
        engine = Engine(block_size=B)
        relation = GeneralizedRelation(["x"], [], name="r")
        index = engine.create_constraint_index("cons", relation, "x")
        gt = GeneralizedTuple([Constraint(x, ">=", 0), Constraint(x, "<=", 1)])
        with pytest.raises(ValueError, match="repeats"):
            index.bulk_load([gt, gt])
        assert index.live_count == 0 and len(relation.tuples) == 0


class TestReinsertAfterDelete:
    def test_interval_manager_reinsert_is_visible(self):
        iv = Interval(0, 10)
        engine = Engine(block_size=B)
        manager = engine.create_interval_index("ivs", [iv, Interval(2, 4)])
        assert manager.delete(iv)
        manager.insert(iv)  # before any sweeping rebuild
        assert iv.uid in _uids(manager.stabbing_query(5))
        assert manager.live_count == 2

    def test_combined_class_reinsert_is_visible_exactly_once(self):
        hierarchy = ClassHierarchy()
        hierarchy.add_class("Root")
        objs = [ClassObject(float(i), "Root") for i in range(5)]
        from repro.core import ClassIndexer

        index = ClassIndexer(SimulatedDisk(B), hierarchy, objs, method="combined")
        victim = objs[2]
        assert index.delete(victim)  # tombstoned; stale copy still physical
        index.insert(victim)
        hits = [o.uid for o in index.iter_query("Root", 0, 10)]
        assert hits.count(victim.uid) == 1
        assert len(hits) == 5

    def test_collection_delete_then_reinsert_roundtrip(self):
        iv = Interval(0, 10)
        engine = Engine(block_size=B)
        coll = engine.create_collection("c", [iv])
        assert coll.delete(iv)
        coll.insert(iv)
        assert _uids(coll.query(Stab(5.0))) == [iv.uid]


class TestEagerQueryTombstones:
    def test_combined_eager_query_filters_deleted_records(self):
        from repro.core import ClassIndexer

        hierarchy = ClassHierarchy()
        hierarchy.add_class("Root")
        objs = [ClassObject(float(i), "Root") for i in range(5)]
        index = ClassIndexer(SimulatedDisk(B), hierarchy, objs, method="combined")
        victim = objs[2]
        assert index.delete(victim)  # combined has no native delete: tombstoned
        eager = index.query("Root", 0.0, 10.0)
        assert victim.uid not in {o.uid for o in eager}
        assert len(eager) == 4
