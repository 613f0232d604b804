"""Edge semantics of :class:`~repro.engine.result.QueryResult`.

Covers the satellite checklist: double iteration, ``len``/``bool`` before
and after consumption, ``ios`` monotonicity, the ``limit()``/``pages()``
cursors, and cross-backend (SimulatedDisk vs. FileDisk) equivalence of
composed ``And``/``Or`` queries checked against the ``matches`` oracles.
"""

import pytest

from repro import (
    EndpointRange,
    Engine,
    FileDisk,
    Interval,
    QueryResult,
    Range,
    SimulatedDisk,
    Stab,
)

from tests.conftest import make_intervals

B = 8


def _engine(kind="memory", tmp_path=None):
    backend = (
        FileDisk(str(tmp_path / "pages.bin"), block_size=B)
        if kind == "file"
        else SimulatedDisk(block_size=B)
    )
    engine = Engine(backend)
    engine.create_interval_index("ivs", make_intervals(300, seed=7, mean_length=80.0))
    return engine


class TestIterationSemantics:
    def test_double_iteration_replays_identical_hits_without_new_io(self):
        engine = _engine()
        result = engine.query("ivs", Stab(500.0))
        first = list(result)
        ios_after_first = result.ios
        assert first
        second = list(result)
        assert second == first
        assert result.ios == ios_after_first

    def test_interleaved_consumers_share_one_stream(self):
        engine = _engine()
        result = engine.query("ivs", Range(100.0, 900.0))
        it1, it2 = iter(result), iter(result)
        a, b = next(it1), next(it2)
        assert a == b
        rest1, rest2 = list(it1), list(it2)
        assert [a] + rest1 == [b] + rest2

    def test_len_and_bool_before_consumption(self):
        engine = _engine()
        hit = engine.query("ivs", Stab(500.0))
        assert not hit.started
        assert bool(hit)                  # reads at most a few blocks
        assert hit.count >= 1             # only what bool() needed
        assert len(hit) == len(hit.all())  # len() exhausts
        assert hit.exhausted

        empty = engine.query("ivs", Stab(-1e9))
        assert len(empty) == 0 and not bool(empty)
        assert list(empty) == []

    def test_len_and_bool_after_consumption_are_stable(self):
        engine = _engine()
        result = engine.query("ivs", Stab(500.0))
        n = len(result.all())
        ios = result.ios
        assert len(result) == n and bool(result) is (n > 0)
        assert result.ios == ios  # neither re-ran the query


class TestIosMonotonicity:
    def test_ios_never_decreases_while_streaming(self):
        engine = _engine()
        result = engine.query("ivs", Range(0.0, 1000.0))
        assert result.ios == 0  # lazy: nothing before iteration
        seen = 0
        last = 0
        for _ in result:
            seen += 1
            assert result.ios >= last
            last = result.ios
        assert result.exhausted and seen == result.count
        assert result.ios == last  # exhaustion adds no surprise I/Os

    def test_partial_consumption_costs_no_more_than_full(self):
        engine = _engine()
        partial = engine.query("ivs", Range(0.0, 1000.0))
        for i, _ in enumerate(partial):
            if i >= 5:
                break
        full = engine.query("ivs", Range(0.0, 1000.0))
        full.all()
        assert 0 < partial.ios <= full.ios


class TestCursors:
    def test_limit_is_lazy_and_cheaper_than_full_drain(self):
        engine = _engine()
        full = engine.query("ivs", Range(0.0, 1000.0))
        n_full = len(full.all())
        limited = engine.query("ivs", Range(0.0, 1000.0)).limit(3)
        hits = limited.all()
        assert len(hits) == 3 < n_full
        assert limited.ios < full.ios

    def test_limit_validates_and_handles_oversize(self):
        engine = _engine()
        with pytest.raises(ValueError):
            engine.query("ivs", Stab(500.0)).limit(-1)
        result = engine.query("ivs", Stab(-1e9)).limit(10)
        assert result.all() == []

    def test_pages_chunks_the_stream_lazily(self):
        engine = _engine()
        result = engine.query("ivs", Range(0.0, 1000.0))
        pages = result.pages(7)
        first = next(pages)
        assert len(first) == 7
        ios_after_first_page = result.ios
        rest = list(pages)
        assert result.ios >= ios_after_first_page
        flattened = first + [r for page in rest for r in page]
        assert flattened == result.all()
        assert all(len(page) <= 7 for page in rest)

    def test_pages_size_validated(self):
        engine = _engine()
        with pytest.raises(ValueError):
            next(engine.query("ivs", Stab(0.0)).pages(0))


class TestCrossBackendComposedEquivalence:
    @pytest.mark.parametrize(
        "q",
        [
            Stab(400.0) & Range(350.0, 450.0),
            Stab(100.0) | Stab(800.0),
            (Range(0.0, 500.0) & ~Stab(250.0)) | EndpointRange("low", 700.0, 750.0),
        ],
        ids=repr,
    )
    def test_collections_agree_with_the_oracle_on_both_backends(self, tmp_path, q):
        intervals = make_intervals(200, seed=13, mean_length=100.0)
        want = sorted(iv.payload for iv in intervals if q.matches(iv))
        for kind in ("memory", "file"):
            backend = (
                FileDisk(str(tmp_path / f"{kind}.bin"), block_size=B)
                if kind == "file"
                else SimulatedDisk(block_size=B)
            )
            with Engine(backend) as engine:
                engine.create_collection("c", intervals)
                got = sorted(iv.payload for iv in engine.query("c", q))
                assert got == want, kind


class TestErrorReplay:
    def test_error_reraised_from_limit_view(self):
        def boom():
            yield Interval(0, 1)
            raise RuntimeError("mid-stream")

        result = QueryResult(boom)
        limited = result.limit(5)
        with pytest.raises(RuntimeError):
            limited.all()
        with pytest.raises(RuntimeError):
            list(limited)


class TestConsumptionContract:
    """The documented double-iteration contract (see result.py docstring):

    decorated consumption (``iter``/``all``/``first``/``pages``) replays
    the cache; ``raw()`` on a pristine result is one-shot — anything after
    it raises :class:`ResultConsumedError` instead of silently re-running
    the query or yielding nothing.
    """

    def test_all_then_iter_replays_cached_rows(self):
        engine = _engine()
        result = engine.query("ivs", Stab(500.0))
        first = result.all()
        assert list(result) == first
        assert result.all() == first

    def test_iter_after_exhaustion_replays_not_empty(self):
        engine = _engine()
        result = engine.query("ivs", Stab(500.0))
        first = list(result)
        assert first  # the workload guarantees hits at 500.0
        assert list(result) == first  # not silently empty

    def test_raw_after_start_replays_cache(self):
        engine = _engine()
        result = engine.query("ivs", Stab(500.0))
        first = result.all()
        assert list(result.raw()) == first

    def test_raw_on_pristine_result_is_one_shot(self):
        from repro import ResultConsumedError

        calls = []

        def source():
            calls.append(1)
            return iter([1, 2, 3])

        result = QueryResult(source)
        assert list(result.raw()) == [1, 2, 3]
        with pytest.raises(ResultConsumedError, match="raw\\(\\)"):
            list(result)
        with pytest.raises(ResultConsumedError):
            result.all()
        with pytest.raises(ResultConsumedError):
            result.raw()
        assert calls == [1]  # the query never silently re-ran

    def test_raw_consumption_never_double_runs_the_query(self):
        engine = _engine()
        result = engine.query("ivs", Stab(500.0))
        hits = list(result.raw())
        assert hits
        before = engine.io_stats().total
        from repro import ResultConsumedError

        with pytest.raises(ResultConsumedError):
            result.all()
        assert engine.io_stats().total == before  # no I/O on the failure path


class TestTheOneAccountingMode:
    """Thread-local attribution into the result's own counters: lazy, exact
    while suspended or interleaved, and nothing left registered afterwards."""

    @staticmethod
    def _sinks(engine):
        """The attribution sinks registered on this thread right now."""
        return getattr(engine.io_stats()._local, "sinks", [])

    @staticmethod
    def _alone(q):
        """``ios`` of ``q`` drained on its own on a fresh, identical engine."""
        result = _engine().query("ivs", q)
        return result.all(), result.ios

    def test_pristine_all_counts_the_whole_drain_in_one_scope(self):
        engine = _engine()
        result = engine.query("ivs", Stab(500.0))
        assert result.ios == 0 and not result.started  # building is free
        with engine.measure() as m:
            hits = result.all()
        assert hits and result.ios == m.ios > 0
        assert result.stats.writes == 0 and result.stats.reads == m.reads
        assert self._sinks(engine) == []

    def test_partial_drain_then_stats_reports_exactly_what_was_read(self):
        engine = _engine()
        result = engine.query("ivs", Range(100.0, 900.0))
        it = iter(result)
        with engine.measure() as m:
            for _ in range(3):
                next(it)
        assert 0 < result.ios == m.ios
        assert self._sinks(engine) == []  # suspended: nothing registered
        with engine.measure() as rest:
            result.all()
        assert result.ios == m.ios + rest.ios

    def test_two_results_interleaved_record_by_record_stay_exact(self):
        qa, qb = Stab(500.0), Range(100.0, 900.0)
        (hits_a, alone_a), (hits_b, alone_b) = self._alone(qa), self._alone(qb)
        engine = _engine()
        a, b = engine.query("ivs", qa), engine.query("ivs", qb)
        ia, ib = iter(a), iter(b)
        done = object()
        while True:
            ra, rb = next(ia, done), next(ib, done)
            if ra is done and rb is done:
                break
        assert (a.all(), b.all()) == (hits_a, hits_b)
        assert (a.ios, b.ios) == (alone_a, alone_b)

    def test_limit_child_and_parent_both_count_the_prefix_they_read(self):
        engine = _engine()
        parent = engine.query("ivs", Range(100.0, 900.0))
        with engine.measure() as m:
            head = parent.limit(5).all()
        assert len(head) == 5 and parent.count == 5
        child = parent.limit(5)
        assert child.all() == head and child.ios == 0  # replayed from the cache
        assert parent.ios == m.ios > 0

    def test_abandoned_iterator_leaves_no_sink_registered(self):
        engine = _engine()
        result = engine.query("ivs", Range(100.0, 900.0))
        it = iter(result)
        next(it)
        read = result.ios
        del it  # abandoned mid-stream, never closed explicitly
        assert self._sinks(engine) == []
        engine.query("ivs", Stab(500.0)).all()  # someone else's pages
        assert result.ios == read

    def test_source_raising_mid_stream_counts_what_was_read_and_re_raises(self):
        engine = _engine()
        manager = engine["ivs"]

        def failing():
            for i, iv in enumerate(manager.stream(Range(100.0, 900.0))):
                if i == 20:
                    raise RuntimeError("mid-stream")
                yield iv

        for drain in (lambda r: r.all(), list):
            result = QueryResult(failing, disk=engine.disk)
            with engine.measure() as m:
                with pytest.raises(RuntimeError, match="mid-stream"):
                    drain(result)
            assert result.ios == m.ios > 0
            with pytest.raises(RuntimeError, match="mid-stream"):
                list(result)  # re-iteration re-raises, it does not re-run
            assert result.ios == m.ios and self._sinks(engine) == []
