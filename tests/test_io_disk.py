"""Unit tests for the simulated disk (the I/O cost model substrate)."""

import threading
from pathlib import Path

import pytest

import repro.io
from repro.analysis.lint import lint_paths, render_report
from repro.io import BufferManager, FileDisk, IOStats, Page, SimulatedDisk
from repro.io.counters import Measurement


class TestAllocation:
    def test_allocate_returns_block_with_capacity(self, disk):
        block = disk.allocate([1, 2, 3])
        assert isinstance(block, Page)
        assert block.capacity == disk.block_size
        assert block.records() == [1, 2, 3]

    def test_allocate_counts_one_write(self, disk):
        before = disk.stats.writes
        disk.allocate([1])
        assert disk.stats.writes == before + 1
        assert disk.stats.allocations == 1

    def test_allocate_rejects_overfull_payload(self, disk):
        with pytest.raises(ValueError):
            disk.allocate(list(range(disk.block_size + 1)))

    def test_allocate_with_custom_capacity(self, disk):
        block = disk.allocate(list(range(20)), capacity=32)
        assert block.capacity == 32

    def test_block_ids_are_unique(self, disk):
        ids = {disk.allocate([]).block_id for _ in range(50)}
        assert len(ids) == 50

    def test_free_releases_block(self, disk):
        block = disk.allocate([1])
        disk.free(block.block_id)
        assert disk.blocks_in_use == 0
        with pytest.raises(KeyError):
            disk.read(block.block_id)

    def test_free_is_idempotent(self, disk):
        block = disk.allocate([1])
        disk.free(block.block_id)
        disk.free(block.block_id)
        assert disk.stats.frees == 1


class TestReadWrite:
    def test_read_counts_one_io(self, disk):
        block = disk.allocate([1, 2])
        before = disk.stats.reads
        disk.read(block.block_id)
        assert disk.stats.reads == before + 1

    def test_write_counts_one_io(self, disk):
        block = disk.allocate([1])
        before = disk.stats.writes
        disk.write(block.replace([1, 2]))
        assert disk.stats.writes == before + 1

    def test_write_rejects_overfull_block(self, disk):
        block = disk.allocate([])
        with pytest.raises(ValueError):
            disk.write(block.replace(list(range(disk.block_size + 1))))
        assert disk.read(block.block_id).records() == []

    def test_read_unknown_block_raises(self, disk):
        with pytest.raises(KeyError):
            disk.read(999)

    def test_write_unknown_block_raises(self, disk):
        with pytest.raises(KeyError):
            disk.write(Page.of(123456, 4, []))

    def test_peek_does_not_count_io(self, disk):
        block = disk.allocate([1])
        before = disk.stats.total
        disk.peek(block.block_id)
        assert disk.stats.total == before

    def test_roundtrip_preserves_records(self, disk):
        block = disk.allocate(["a", "b"])
        disk.write(block.replace(block.records() + ["c"]))
        assert disk.read(block.block_id).records() == ["a", "b", "c"]


class TestMeasurement:
    def test_measure_scopes_io_counts(self, disk):
        block = disk.allocate([1])
        with disk.measure() as m:
            disk.read(block.block_id)
            disk.read(block.block_id)
        assert m.ios == 2
        assert m.reads == 2
        assert m.writes == 0

    def test_measure_ignores_outside_ios(self, disk):
        block = disk.allocate([1])
        with disk.measure() as m:
            disk.read(block.block_id)
        disk.read(block.block_id)
        assert m.ios == 1

    def test_stats_snapshot_and_diff(self, disk):
        first = disk.stats.snapshot()
        disk.allocate([1])
        diff = disk.stats.diff(first)
        assert diff.writes == 1
        assert diff.allocations == 1

    def test_stats_reset(self, disk):
        disk.allocate([1])
        disk.stats.reset()
        assert disk.stats.total == 0

    def test_total_is_reads_plus_writes(self):
        stats = IOStats(reads=3, writes=4)
        assert stats.total == 7


class TestValidation:
    def test_block_size_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            SimulatedDisk(block_size=1)

    def test_blocks_in_use_tracks_allocations_and_frees(self, disk):
        blocks = [disk.allocate([]) for _ in range(5)]
        assert disk.blocks_in_use == 5
        disk.free(blocks[0].block_id)
        assert disk.blocks_in_use == 4
        assert set(disk.block_ids()) == {b.block_id for b in blocks[1:]}

    def test_block_overfull_constructor_check(self):
        with pytest.raises(ValueError):
            Page.of(0, 2, [1, 2, 3])

    def test_a_full_page_counts_its_capacity(self, disk):
        block = disk.allocate(list(range(disk.block_size)))
        assert block.count == block.capacity == disk.block_size


class TestReadRun:
    """``read_run`` is ``k`` reads in one charge, on every backend."""

    BACKENDS = ["memory", "file", "buffer"]

    @staticmethod
    def _backend(kind):
        """A backend holding five blocks; the pool (three pages) holds two
        of them, one dirty, so a run meets hits, misses and a write-back."""
        disk = {
            "memory": lambda: SimulatedDisk(4),
            "file": lambda: FileDisk(block_size=4),
            "buffer": lambda: BufferManager(SimulatedDisk(4), capacity_pages=3),
        }[kind]()
        ids = [disk.allocate(records=[i, i + 1]).block_id for i in range(5)]
        if kind == "buffer":
            disk.drop()
            disk.read(ids[1])
            disk.write(disk.read(ids[3]).replace([9]))
        return disk, ids

    @pytest.mark.parametrize("kind", BACKENDS)
    @pytest.mark.parametrize("run", [[], [0], [0, 1, 2], [3, 1, 3, 0, 4, 2], [4, 4, 4]], ids=str)
    def test_a_run_counts_as_its_single_reads(self, kind, run):
        (single, ids), (batched, _) = self._backend(kind), self._backend(kind)
        try:
            before = single.stats.snapshot(), batched.stats.snapshot()
            one = [single.read(ids[i]).records() for i in run]
            with batched.measure() as mine:
                many = [block.records() for block in batched.read_run([ids[i] for i in run])]
            assert many == one
            moved = [d.stats.diff(b) for d, b in zip((single, batched), before)]
            assert [(m.reads, m.cache_hits, m.writes) for m in moved] == [
                (moved[0].reads, moved[0].cache_hits, moved[0].writes)
            ] * 2
            assert (mine.reads, mine.cache_hits) == (moved[1].reads, moved[1].cache_hits)
        finally:
            for disk in (single, batched):
                if kind == "file":
                    disk.close()

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_a_run_is_one_charge_and_empty_is_none(self, kind, monkeypatch):
        disk, ids = self._backend(kind)
        charges = []
        count = type(disk.stats).count
        monkeypatch.setattr(
            type(disk.stats), "count",
            lambda stats, **kw: (charges.append(kw), count(stats, **kw))[1],
        )
        try:
            disk.read_run([])
            assert charges == []
            disk.read_run(ids)
            # in the pool block 1 hits; block 3 was resident too, but block
            # 2's miss evicts it (a write-back, charged on its own) first
            reads = [c for c in charges if set(c) & {"reads", "cache_hits"}]
            assert len(reads) == 1
            hits, misses = reads[0].get("cache_hits", 0), reads[0].get("reads", 0)
            assert (hits, misses) == ((1, 4) if kind == "buffer" else (0, 5))
        finally:
            monkeypatch.undo()
            if kind == "file":
                disk.close()

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_a_run_is_attributed_to_the_calling_thread_only(self, kind):
        disk, ids = self._backend(kind)
        other = Measurement()
        registered, finished = threading.Event(), threading.Event()

        def elsewhere():
            with disk.stats.attributed(other):
                registered.set()
                finished.wait(10)

        thread = threading.Thread(target=elsewhere)
        thread.start()
        try:
            registered.wait(10)
            with disk.measure() as mine:
                disk.read_run(ids)
        finally:
            finished.set()
            thread.join()
            if kind == "file":
                disk.close()
        assert mine.reads + mine.cache_hits == len(ids)
        assert (other.reads, other.cache_hits) == (0, 0)

    def test_the_backends_lint_clean(self):
        linter = lint_paths([Path(repro.io.__file__).parent])
        assert linter.findings == [], render_report(linter)


def _store(kind):
    """A fresh backend: ``memory``, ``file``, or a two-page pool over either."""
    base = FileDisk(block_size=4) if kind.startswith("file") else SimulatedDisk(4)
    return base, BufferManager(base, 2) if kind.endswith("pool") else base


class TestImmutablePages:
    """A page is a value: what a reader does with it never reaches the
    store, and ``write`` of a new page is the only way a block changes."""

    KINDS = ["memory", "file", "memory_pool", "file_pool"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_page_changes_only_through_write(self, kind):
        base, disk = _store(kind)
        try:
            given_records, given_header = [1, 2], {"leaf": True, "next": None}
            page = disk.allocate(given_records, given_header)
            given_records.append(3)                  # the caller's lists stay theirs
            given_header["leaf"] = False
            read = disk.read(page.block_id)
            records = read.records()
            assert records == [1, 2] and records is not read.records()   # fresh each call
            records.append(9)
            records[0] = -1
            with pytest.raises(TypeError):
                read.header["leaf"] = False
            with pytest.raises(TypeError):
                page.header["next"] = 4
            for again in (disk.read(page.block_id), disk.peek(page.block_id), read, page):
                assert again.records() == [1, 2]
                assert again.header == {"leaf": True, "next": None}
            disk.write(read.replace(records, {**read.header, "next": 4}))
            assert read.records() == [1, 2]          # the old page is still the old value
            latest = disk.read(page.block_id)
            assert latest.records() == [-1, 2, 9] and latest.header == {"leaf": True, "next": 4}
        finally:
            if isinstance(base, FileDisk):
                base.close()

    @pytest.mark.parametrize("kind", KINDS)
    def test_an_overfull_page_is_refused_before_any_backend_holds_it(self, kind):
        """A block of 5 records at ``B = 4`` is refused where it is written,
        not at a later, unrelated eviction that would drop the dirty page."""
        base, disk = _store(kind)
        try:
            page = disk.allocate([1])
            with pytest.raises(ValueError, match="overfull"):
                disk.write(page.replace([1, 2, 3, 4, 5]))
            with pytest.raises(ValueError, match="overfull"):
                Page(page.block_id, 4, 5, page.header, page.columns, page.tally)
            with pytest.raises(ValueError, match="overfull"):
                disk.allocate([1, 2, 3, 4, 5])
            disk.allocate([2])                       # evictions in a pool: nothing to fail
            disk.allocate([3])
            getattr(disk, "flush", lambda: None)()
            assert disk.read(page.block_id).records() == [1]
            assert base.peek(page.block_id).records() == [1]
        finally:
            if isinstance(base, FileDisk):
                base.close()
