"""Tests for the file-backed storage backend (``repro.io.filedisk``)."""

import os
import pickle
import random
import sys
import threading

import pytest

from repro.io import BufferManager, FileDisk, SimulatedDisk, StorageBackend
from repro.btree import BPlusTree
from repro.pst import ExternalPST
from repro.metablock.geometry import PlanarPoint, ThreeSidedQuery
from repro.rebuilding import RebuildingIndex


@pytest.fixture
def fdisk(tmp_path):
    disk = FileDisk(str(tmp_path / "pages.bin"), block_size=4)
    yield disk
    disk.close()


class TestContract:
    def test_satisfies_storage_backend_protocol(self, fdisk):
        assert isinstance(fdisk, StorageBackend)
        assert isinstance(SimulatedDisk(4), StorageBackend)

    def test_round_trip_and_accounting(self, fdisk):
        block = fdisk.allocate(records=[1, 2], header={"leaf": True})
        assert fdisk.stats.writes == 1 and fdisk.stats.allocations == 1
        got = fdisk.read(block.block_id)
        assert got.records() == [1, 2] and got.header == {"leaf": True}
        assert fdisk.stats.reads == 1

    def test_reads_return_fresh_copies_until_write(self, fdisk):
        block = fdisk.allocate(records=["a"])
        copy = fdisk.read(block.block_id).records()
        copy.append("b")                               # mutation not persisted
        assert fdisk.read(block.block_id).records() == ["a"]
        fdisk.write(block.replace(copy))               # now it is
        assert fdisk.read(block.block_id).records() == ["a", "b"]

    def test_capacity_enforced_on_write(self, fdisk):
        block = fdisk.allocate(records=[1, 2, 3, 4])
        with pytest.raises(ValueError):
            fdisk.write(block.replace([1, 2, 3, 4, 5]))
        assert fdisk.read(block.block_id).records() == [1, 2, 3, 4]

    def test_free_and_missing_blocks(self, fdisk):
        block = fdisk.allocate(records=[1])
        fdisk.free(block.block_id)
        assert fdisk.blocks_in_use == 0
        with pytest.raises(KeyError):
            fdisk.read(block.block_id)
        with pytest.raises(KeyError):
            fdisk.write(block)

    def test_measure_scopes_ios(self, fdisk):
        block = fdisk.allocate(records=[1])
        with fdisk.measure() as m:
            fdisk.read(block.block_id)
        assert m.ios == 1 and m.reads == 1

    def test_peek_costs_nothing(self, fdisk):
        block = fdisk.allocate(records=[7])
        before = fdisk.stats.total
        assert fdisk.peek(block.block_id).records() == [7]
        assert fdisk.stats.total == before


class TestLifecycle:
    def test_compact_reclaims_superseded_versions(self, fdisk):
        block = fdisk.allocate(records=[0])
        for i in range(10):
            fdisk.write(block.replace([i]))
        grown = fdisk.file_bytes
        reclaimed = fdisk.compact()
        assert reclaimed > 0 and fdisk.file_bytes < grown
        assert fdisk.read(block.block_id).records() == [9]

    def test_temporary_file_cleanup(self):
        disk = FileDisk(block_size=4)
        path = disk.path
        assert os.path.exists(path)
        disk.close()
        assert not os.path.exists(path)
        with pytest.raises(ValueError):
            disk.read(0)

    def test_context_manager_closes(self, tmp_path):
        path = str(tmp_path / "x.bin")
        with FileDisk(path, block_size=4) as disk:
            disk.allocate(records=[1])
        assert os.path.exists(path)    # named files are kept

    def test_block_size_validation(self):
        with pytest.raises(ValueError):
            FileDisk(block_size=1)

    def test_refuses_to_truncate_existing_page_file(self, tmp_path):
        path = str(tmp_path / "precious.bin")
        with FileDisk(path, block_size=4) as disk:
            disk.allocate(records=[1, 2, 3])
        assert os.path.getsize(path) > 0
        with pytest.raises(ValueError, match="refusing to truncate"):
            FileDisk(path, block_size=4)
        assert os.path.getsize(path) > 0          # untouched
        with FileDisk(path, block_size=4, overwrite=True) as disk:
            assert disk.blocks_in_use == 0        # explicit opt-in truncates


class TestPageReads:
    """Reads are one ``os.pread``; appends stay in the write buffer until a
    read reaches them, a sync, or a compaction."""

    def test_a_page_still_in_the_write_buffer_reads_back_intact(self, fdisk):
        first = fdisk.allocate(records=[1, 2], header={"leaf": True})
        assert os.path.getsize(fdisk.path) == 0           # nothing flushed yet
        assert fdisk.read(first.block_id).records() == [1, 2]
        second = fdisk.allocate(records=["x"])            # appended after the flush
        fdisk.write(first.replace([3]))                   # a newer version, buffered too
        assert os.path.getsize(fdisk.path) < fdisk.file_bytes
        assert fdisk.read(second.block_id).records() == ["x"]
        assert [b.records() for b in fdisk.read_run([first.block_id, second.block_id])] == [[3], ["x"]]
        assert fdisk.read(first.block_id).header == {"leaf": True}

    def test_appends_after_reopen_and_compaction_land_at_the_end(self, tmp_path):
        path = str(tmp_path / "pages.bin")
        with FileDisk(path, block_size=4) as disk:
            kept = disk.allocate(records=[1]).block_id
        disk = FileDisk.open(path)
        try:
            added = disk.allocate(records=[2]).block_id
            disk.write(disk.read(kept).replace([3]))
            disk.compact()
            last = disk.allocate(records=[4]).block_id
            assert [disk.read(b).records() for b in (kept, added, last)] == [[3], [2], [4]]
        finally:
            disk.close()

    @pytest.mark.parametrize("pooled", [False, True], ids=["plain", "buffer_manager"])
    def test_readers_racing_compaction_get_the_page_they_asked_for(self, tmp_path, pooled):
        disk = FileDisk(str(tmp_path / "pages.bin"), block_size=4)
        pages = {}
        for i in range(24):
            block = disk.allocate(records=[i, -i], header={"block": i})
            pages[block.block_id] = ([i, -i], {"block": i})
        store = BufferManager(disk, capacity_pages=3) if pooled else disk
        errors, done = [], threading.Event()

        def reader(seed):
            rnd = random.Random(seed)
            try:
                while not done.is_set():
                    bid = rnd.choice(list(pages))
                    block = store.read(bid)
                    assert (block.records(), block.header) == pages[bid]
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        for thread in threads:
            thread.start()
        try:
            for round_ in range(30):
                # superseded versions for compact() to drop, then the swap
                for bid in list(pages)[round_ % 4::4]:
                    block = disk.read(bid)
                    disk.write(block)
                disk.compact()
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
            disk.close()
        assert errors == [] and not any(thread.is_alive() for thread in threads)


class TestStructuresOnFileDisk:
    def test_btree_insert_search_delete(self, fdisk):
        tree = BPlusTree(fdisk, name="t")
        for i in range(200):
            tree.insert(i % 37, i)
        assert sorted(tree.search(5)) == sorted(v for v in range(200) if v % 37 == 5)
        assert tree.delete(5)
        assert len(tree.search(5)) == len([v for v in range(200) if v % 37 == 5]) - 1

    def test_pst_query_and_rebuild_insert(self, fdisk):
        pts = [PlanarPoint(i, 100 - i, payload=i) for i in range(60)]
        pst = ExternalPST(fdisk, pts)
        got = sorted(p.payload for p in pst.query_3sided(10, 20, 0))
        assert got == list(range(10, 21))
        index = RebuildingIndex(fdisk, lambda items: ExternalPST(fdisk, items), pts)
        index.insert(PlanarPoint(15, 1000, payload="new"))
        got = sorted(str(p.payload) for p in index.query(ThreeSidedQuery(10, 20, 90)))
        assert got == [str(v) for v in range(10, 11)] + ["new"]

    def test_identical_io_counts_across_backends(self, tmp_path):
        """The I/O *model* is backend-independent: counts must match exactly."""
        pairs = [(i, str(i)) for i in range(300)]
        sim = SimulatedDisk(8)
        fil = FileDisk(str(tmp_path / "pages.bin"), block_size=8)
        t1 = BPlusTree.bulk_load(sim, pairs)
        t2 = BPlusTree.bulk_load(fil, pairs)
        with sim.measure() as m1:
            r1 = t1.range_search(40, 160)
        with fil.measure() as m2:
            r2 = t2.range_search(40, 160)
        assert r1 == r2
        assert m1.ios == m2.ios
        fil.close()
