"""Unit tests for the LRU buffer pool."""

import pytest

from repro.io import BufferManager, SimulatedDisk


@pytest.fixture
def pool():
    disk = SimulatedDisk(block_size=4)
    return BufferManager(disk, capacity_pages=3)


class TestCaching:
    def test_repeated_read_hits_cache(self, pool):
        block = pool.allocate([1])
        pool.drop()
        pool.read(block.block_id)  # miss
        before = pool.stats.reads
        pool.read(block.block_id)  # hit
        assert pool.stats.reads == before
        assert pool.stats.cache_hits >= 1

    def test_capacity_defaults_to_block_size(self):
        disk = SimulatedDisk(block_size=16)
        pool = BufferManager(disk)
        assert pool.capacity_pages == 16

    def test_eviction_follows_lru_order(self, pool):
        blocks = [pool.allocate([i]) for i in range(3)]
        pool.drop()
        for b in blocks:
            pool.read(b.block_id)
        pool.read(blocks[0].block_id)  # refresh block 0
        extra = pool.allocate([99])  # evicts block 1 (least recently used)
        before = pool.stats.reads
        pool.read(blocks[0].block_id)  # still resident
        assert pool.stats.reads == before
        pool.read(blocks[1].block_id)  # evicted -> miss
        assert pool.stats.reads == before + 1
        assert extra.block_id in [b.block_id for b in [extra]]

    def test_cold_reads_always_cost_io(self, pool):
        blocks = [pool.allocate([i]) for i in range(10)]
        pool.drop()
        before = pool.stats.reads
        for b in blocks:
            pool.read(b.block_id)
        assert pool.stats.reads == before + 10


class TestWriteBack:
    def test_write_is_deferred_until_flush(self, pool):
        block = pool.allocate([1])
        before = pool.stats.writes
        pool.write(block.replace([1, 2]))
        assert pool.stats.writes == before  # not yet written through
        assert pool.disk.peek(block.block_id).records() == [1]
        pool.flush()
        assert pool.stats.writes == before + 1
        assert pool.disk.peek(block.block_id).records() == [1, 2]

    def test_eviction_writes_dirty_page(self, pool):
        block = pool.allocate([1])
        pool.write(block.replace([1, 2]))
        before = pool.stats.writes
        for i in range(5):  # force eviction
            pool.allocate([i])
        assert pool.stats.writes >= before + 1

    def test_free_drops_cache_entry(self, pool):
        block = pool.allocate([1])
        pool.free(block.block_id)
        with pytest.raises(KeyError):
            pool.read(block.block_id)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            BufferManager(SimulatedDisk(4), capacity_pages=0)


class TestDiskCompatibility:
    """Structures accept either a raw disk or a buffer manager."""

    def test_block_size_passthrough(self, pool):
        assert pool.block_size == pool.disk.block_size

    def test_measure_passthrough(self, pool):
        block = pool.allocate([1])
        pool.drop()
        with pool.measure() as m:
            pool.read(block.block_id)
        assert m.ios == 1

    def test_btree_works_through_buffer_pool(self):
        from repro.btree import BPlusTree

        disk = SimulatedDisk(block_size=8)
        pool = BufferManager(disk, capacity_pages=8)
        tree = BPlusTree(pool)
        for i in range(200):
            tree.insert(i % 37, i)
        assert sorted(v for _, v in tree.range_search(0, 100)) == sorted(range(200))

    def test_buffered_btree_uses_fewer_ios_than_cold(self):
        from repro.btree import BPlusTree

        def build_and_query(storage):
            tree = BPlusTree.bulk_load(storage, ((i, i) for i in range(500)))
            with storage.measure() as m:
                for q in range(0, 500, 25):
                    tree.search(q)
            return m.ios

        cold = build_and_query(SimulatedDisk(block_size=8))
        warm = build_and_query(BufferManager(SimulatedDisk(block_size=8), capacity_pages=64))
        assert warm < cold
