"""Lazy, I/O-accounted query results.

Every query issued through the :class:`~repro.engine.Engine` (or directly
through an index's uniform ``query()`` method) returns a
:class:`QueryResult`: an iterable that

* performs **no I/O until iteration starts** — building a result is free,
  which is what makes ``query_many`` batches cheap to set up;
* **streams** hits as the underlying structure produces them, block by
  block, instead of materialising a Python list up front;
* carries its own **per-query I/O accounting** (``result.ios``,
  ``result.stats``), counted one way: its own counters are a *thread-local
  attribution sink* on the backend's, registered only while the source
  stream runs, so mid-drain ``ios`` is exactly the pages read so far on
  this result's behalf — results interleaved on one thread, and queries
  other threads drain on the same backend, never count into each other; and
* knows the **paper's predicted bound** for the query (``result.bound``),
  computed from the structure's size, the page size ``B`` and the number of
  hits reported so far.

Once exhausted, results are cached: **re-iterating replays the hits without
touching the disk again** — that is the documented double-iteration
contract, and it holds for every decorated consumption path (``__iter__``,
``all``, ``first``, ``pages``, ``limit``).  The one exception is
:meth:`QueryResult.raw`, which deliberately hands out the *undecorated*
source stream (no sink, no cache — a caller that measures does so itself,
e.g. under ``disk.measure()``): once a pristine result has been
consumed that way there is nothing to replay, and any further consumption
raises :class:`ResultConsumedError` instead of silently re-running the
query against the disk (double I/O, possibly different answers after a
write) or yielding nothing.
"""

from __future__ import annotations

from contextlib import nullcontext
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator, List, Optional

from repro.io.counters import IOStats

#: what ``next`` returns for an exhausted source (no try/except per record)
_DONE = object()


class ResultConsumedError(RuntimeError):
    """A lazy result's one-shot stream was already handed out via ``raw()``.

    Raised when iterating (or calling ``raw`` again on) a
    :class:`QueryResult` whose undecorated source stream was taken while
    the result was still pristine — there is no replay cache to serve, and
    silently re-executing the query would double its I/O and, after an
    intervening write, return different records than the first consumer
    saw.  Re-issue the query (or drain through ``all()``/iteration, which
    cache) instead.
    """


class RecordBatches:
    """A drained answer in the batches it was read in.

    A batch is a list of records, or a :class:`~repro.io.disk.Batch`: rows
    of a decoded page, not yet built as records.  :meth:`records` builds
    the flat list once — the same records in the same order as draining
    record by record — while ``len`` builds nothing, and a record frame
    packs the page columns as they are
    (:meth:`~repro.server.protocol.RecordFrame.of`).
    """

    __slots__ = ("batches", "_records")

    def __init__(self, batches: List[Any]) -> None:
        self.batches = batches
        self._records: Optional[List[Any]] = None

    def __len__(self) -> int:
        return sum(map(len, self.batches))

    def __iter__(self) -> Iterator[Any]:
        return iter(self.records())

    def records(self) -> List[Any]:
        if self._records is None:
            batches = self.batches
            if len(batches) == 1 and type(batches[0]) is list:
                self._records = batches[0]
            else:
                self._records = list(chain.from_iterable(batches))
        return self._records


class QueryResult:
    """A lazy stream of query hits with per-query I/O accounting.

    One accounting mode: ``stats`` is registered on ``disk.stats`` for the
    current thread (:meth:`~repro.io.counters.IOStats.attributed`) around
    each resumption of the source — once around a pristine ``all()`` — and
    never while an iteration is suspended, abandoned or finished.
    :meth:`raw` remains the undecorated stream.

    Parameters
    ----------
    source:
        Zero-argument callable returning the hit iterator.  It is invoked on
        first iteration, never earlier — laziness is the contract.
    disk:
        The storage backend whose counters attribute this query's I/Os.
        ``None`` disables accounting (``stats`` stays zero).
    bound:
        Optional callable ``t -> predicted I/Os`` implementing the paper's
        bound for this query shape (e.g. ``O(log_B n + t/B)``).
    label:
        Cosmetic tag used in ``repr`` and engine diagnostics.
    blocks:
        Optional zero-argument callable returning the same hits as
        ``source``, a batch per block read: what :meth:`batches` drains.
    """

    def __init__(
        self,
        source: Callable[[], Iterable[Any]],
        disk: Any = None,
        bound: Optional[Callable[[int], float]] = None,
        label: str = "query",
        blocks: Optional[Callable[[], Iterable[Any]]] = None,
    ) -> None:
        self._source = source
        self._blocks = blocks
        #: what :meth:`batches` drained, until a record is asked for
        self._batched: Optional[RecordBatches] = None
        self._disk = disk
        self._bound_fn = bound
        self.label = label
        self._pump_iter: Optional[Iterator[Any]] = None
        self._cache: List[Any] = []
        self._exhausted = False
        self._started = False
        #: the undecorated source stream was handed out by :meth:`raw`;
        #: nothing is cached, so no other consumption path may follow
        self._raw_consumed = False
        self._error: Optional[BaseException] = None
        #: per-query I/O counters: what this result's source has read so far
        self.stats = IOStats()
        #: the re-enterable scope that registers ``stats`` on this thread
        self._scope: Any = nullcontext() if disk is None else disk.stats.attributed(self.stats)
        #: the executed :class:`~repro.engine.planner.Plan` when this result
        #: came out of the query planner; ``None`` for direct index queries
        self.plan: Optional[Any] = None

    @classmethod
    def of(cls, index: Any, q: Any, **stream_args: Any) -> "QueryResult":
        """The one builder of a structure's result: what ``index.query(q)`` is.

        ``index.supports(q)`` is checked here, so an unsupported shape
        raises :class:`TypeError` at the call, before any read;
        ``index.stream(q, **stream_args)`` is the source, ``index.cost(q)``
        the bound (a :class:`~repro.engine.protocols.Bound` is callable) and
        ``<Class>:<Shape>`` the label.
        """
        kind, shape = type(index).__name__, type(q).__name__
        if not index.supports(q):
            raise TypeError(f"{kind} cannot answer {shape} queries")
        return cls(
            lambda: index.stream(q, **stream_args), index.disk, index.cost(q), f"{kind}:{shape}"
        )

    # ------------------------------------------------------------------ #
    # iteration
    # ------------------------------------------------------------------ #
    def _pump(self) -> Iterator[Any]:
        """Drain the source, the sink registered around each resumption only
        (a suspended or abandoned pump leaves nothing registered)."""
        self._started = True
        scope, cache = self._scope, self._cache
        try:
            with scope:
                iterator = iter(self._source())
            while True:
                with scope:
                    item = next(iterator, _DONE)
                if item is _DONE:
                    self._exhausted = True
                    return
                cache.append(item)
                yield item
        except GeneratorExit:
            raise
        except BaseException as exc:
            # remember the failure: a generator dies on the first raise, and a
            # later re-iteration must re-raise instead of silently serving the
            # truncated cache as if the query had completed
            self._error = exc
            raise

    def _check_not_raw_consumed(self) -> None:
        if self._raw_consumed:
            raise ResultConsumedError(
                f"result {self.label!r} was consumed through raw() — the "
                "undecorated one-shot stream — so there is no cache to "
                "replay; re-issue the query instead"
            )

    def __iter__(self) -> Iterator[Any]:
        # replay what is cached, then continue streaming; supports several
        # (even interleaved) consumers without re-running the query
        self._check_not_raw_consumed()
        self._unbatch()
        i = 0
        while True:
            if i < len(self._cache):
                yield self._cache[i]
                i += 1
                continue
            if self._exhausted:
                return
            if self._error is not None:
                raise self._error
            if self._pump_iter is None:
                # one shared pump per result so concurrent iterations do not race
                self._pump_iter = self._pump()
            try:
                next(self._pump_iter)
            except StopIteration:
                return

    def raw(self) -> Iterator[Any]:
        """The undecorated hit stream: no accounting, no caching, one shot.

        For a consumer that measures and keeps the hits itself (the
        benchmark ladder times a physical index's answer this way): it
        pays for neither the sink nor the replay cache.  Nothing in the
        engine calls it.  If iteration already started, the cached
        prefix is replayed first (via :meth:`__iter__`); otherwise the
        source is consumed directly and this result is marked consumed:
        any later consumption attempt raises :class:`ResultConsumedError`
        rather than silently re-running the query (see the module
        docstring for the double-iteration contract).
        """
        if self._started:
            return iter(self)
        self._check_not_raw_consumed()
        self._raw_consumed = True
        return iter(self._source())

    # ------------------------------------------------------------------ #
    # materialisation helpers
    # ------------------------------------------------------------------ #
    def all(self) -> List[Any]:
        """Exhaust the stream and return every hit as a list.

        Exhausted results are cached: calling ``all()`` (or iterating)
        again replays the same records without touching the disk.
        """
        self._check_not_raw_consumed()
        self._unbatch()
        if not self._started and self._error is None:
            # a pristine result drains through ``list()`` directly — no
            # per-record generator hand-off — inside one attribution scope
            self._started = True
            try:
                with self._scope:
                    self._cache = list(self._source())
            except BaseException as exc:
                self._error = exc  # re-iterations must re-raise, not re-run
                raise
            self._exhausted = True
            return list(self._cache)
        for _ in self:
            pass
        return list(self._cache)

    to_list = all

    def batches(self) -> RecordBatches:
        """Drain the result in the batches its structure read it in.

        A pristine result with a block source drains that — a page's rows
        stay unbuilt (:class:`~repro.io.disk.Batch`) — inside one
        attribution scope; any other is drained by :meth:`all`, as one
        batch.  Either way the result is exhausted after, and iterating it
        replays the same records, built then.
        """
        if self._blocks is None or self._started or self._raw_consumed:
            return RecordBatches([self.all()])
        self._started = True
        try:
            with self._scope:
                batched = list(self._blocks())
        except BaseException as exc:
            self._error = exc  # re-iterations must re-raise, not re-run
            raise
        self._batched = RecordBatches(batched)
        self._exhausted = True
        return self._batched

    def _unbatch(self) -> None:
        """Build the record cache from what :meth:`batches` drained."""
        if self._batched is not None:
            self._cache = list(self._batched.records())
            self._batched = None

    def first(self, default: Any = None) -> Any:
        """The first hit, or ``default`` when the result is empty."""
        return next(iter(self), default)

    # ------------------------------------------------------------------ #
    # cursors
    # ------------------------------------------------------------------ #
    def limit(self, n: int) -> "QueryResult":
        """A lazy result over the first ``n`` hits.

        Shares this result's stream (and cache), so taking a limit after
        partial consumption replays cached hits for free; the underlying
        query is never drained past ``n`` records.
        """
        if n < 0:
            raise ValueError(f"limit must be non-negative, not {n}")
        return QueryResult(
            lambda: islice(iter(self), n), self._disk, self._bound_fn, f"{self.label}|limit({n})"
        )

    def pages(self, size: int):
        """Cursor-style pagination: yield successive lists of ``size`` hits.

        Lazy like iteration itself — each page's blocks are read only when
        that page is requested, so ``next(result.pages(100))`` pays for the
        first ~``100/B`` blocks only.
        """
        if size <= 0:
            raise ValueError(f"page size must be positive, not {size}")
        hits = iter(self)
        while page := list(islice(hits, size)):
            yield page

    def __len__(self) -> int:
        """Number of hits (exhausts the stream)."""
        return len(self.all())

    def __bool__(self) -> bool:
        """Whether the query reported at least one hit (may read one block)."""
        return self.first(_DONE) is not _DONE

    def __getitem__(self, index):
        """List-style access (materialises as far as needed; back-compat)."""
        if isinstance(index, slice) or index < 0:
            return self.all()[index]
        for item in islice(self, index, None):
            return item
        raise IndexError(index)

    def __eq__(self, other: Any) -> bool:
        """Compare by materialised contents, so pre-redesign callers that
        tested ``structure.query(q) == [...]`` keep working (exhausts the
        stream)."""
        if isinstance(other, QueryResult):
            return self.all() == other.all()
        if isinstance(other, (list, tuple)):
            return self.all() == list(other)
        return NotImplemented

    __hash__ = None  # mutable-by-iteration; equality is by contents

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    @property
    def started(self) -> bool:
        """Whether iteration (and therefore I/O) has begun."""
        return self._started

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    @property
    def count(self) -> int:
        """Hits reported so far (does not force materialisation)."""
        batched = self._batched
        return len(self._cache) if batched is None else len(batched)

    @property
    def ios(self) -> int:
        """I/Os performed on behalf of this query so far."""
        return self.stats.total

    @property
    def bound(self) -> Optional[float]:
        """The paper's predicted I/O bound at the current output size ``t``.

        ``None`` when the creating index supplied no bound.  For the final
        bound, exhaust the result first (e.g. ``result.all()``).
        """
        if self._bound_fn is None:
            return None
        return self._bound_fn(self.count)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "exhausted" if self._exhausted else ("streaming" if self._started else "pending")
        return f"QueryResult({self.label!r}, {state}, t={self.count}, ios={self.ios})"
