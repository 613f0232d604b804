"""The cost-aware query planner: *what* is the user's, *how* is ours.

Given a (possibly composed) query from the algebra of
:mod:`repro.engine.queries` and a set of physical indexes — either the
several indexes of a :class:`~repro.engine.collection.Collection` or a
single engine index — the :class:`QueryPlanner`

1. **enumerates** candidate ``(index, sub-query)`` plans: direct pushdown
   when an index ``supports`` the whole shape; for :class:`And`, one
   candidate per (index, conjunct) pair with the remaining conjuncts as a
   residual post-filter; for :class:`Or`, a union of recursively-planned
   parts with on-the-fly deduplication; and, where an accessor offers it,
   a full-scan fallback that serves *any* query through its ``matches``
   oracle;
2. **costs** each candidate with the paper's predicted bounds (the
   :meth:`~repro.engine.protocols.Index.cost` capability, compared at the
   output-independent ``t = 0`` point since output sizes are unknown before
   execution; ties go to the earlier-attached index — but see the plan
   cache below: a tie resolved once stays resolved for every query of the
   same shape until an invalidating write bumps the cache generation); and
3. **executes** the cheapest as one lazy
   :class:`~repro.engine.result.QueryResult` — residual predicates are
   applied as a streaming post-filter (records are already in memory, so
   the filter costs no I/O), :class:`OrderBy` sorts, :class:`Limit`
   truncates the stream lazily.

The chosen plan is a frozen :class:`Plan` dataclass.
``Engine.explain(name, q)`` returns it without executing anything;
executed results carry the identical plan as ``result.plan``, so callers
can verify the plan reported is the plan run.

The plan cache
--------------
Enumerating and costing candidates is pure in-memory work, but on hot
read paths it dominates wall-clock (the I/O-optimal access itself is
cheap).  The planner therefore keeps a size-bounded LRU cache mapping a
query's structural :meth:`~repro.algebra.AlgebraicQuery.signature` — its
shape with scalar parameters factored out — to the *strategy* it chose: a
:class:`PlanTemplate` recording which index served the query and which
conjunct was pushed down, compiled once against the accessors it names.
A later query with the same signature skips enumeration entirely; the
compiled template is re-instantiated (one ``translate`` + one ``cost``
call against the live structure), so predicted bounds always reflect
current structure sizes.

Cached strategies are validated against a **generation key**: the
planner's own ``generation`` counter (bumped by :meth:`invalidate`, which
owners call on attach/detach/bulk loads) combined with each accessor
index's optional ``generation`` attribute (bumped by structures on
threshold-triggered global rebuilds).  Any mismatch drops the entry and
re-plans, so no plan is ever served from cache across an invalidating
write event.

Bound accounting
----------------
The executed result's ``bound`` evaluates the plan's predicted formula at
the number of records the *access path* produced (before residual
filtering, deduplication or ``Limit``), which is the quantity the paper's
theorems bound.  Union plans track one raw count per subplan and evaluate
each subplan's formula at its own output size — summing, rather than
charging every branch for the whole union's ``t/B`` term.  Observed
``ios`` may exceed the prediction only by constant factors —
:data:`BOUND_SLACK` is the documented slack the test suite holds every
planner-chosen plan to.

``OrderBy`` is applied with Python's stable sort, exactly once per
executed result: ties keep the access path's emission order, and replays
of an exhausted result serve the already-sorted cache instead of
re-materialising the sort.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.engine.protocols import Bound
from repro.engine.queries import MODIFIERS, And, Limit, Or, OrderBy
from repro.engine.result import QueryResult
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs_tracer
from repro.records import record_key  # canonical home; re-exported for callers

#: Documented slack: a planner-chosen plan's observed I/Os never exceed
#: ``BOUND_SLACK * bound(t) + BOUND_SLACK_PAGES`` where ``t`` is the access
#: path's raw output size.  The paper's bounds are asymptotic — the
#: reproduction claims the shape, with this constant-factor allowance; the
#: additive term absorbs the fixed cost of touching a handful of root /
#: control blocks on queries whose output is tiny.
BOUND_SLACK = 4.0
BOUND_SLACK_PAGES = 8.0

#: Plan-cache capacity (distinct query signatures kept per planner).  A
#: workload rarely has more than a handful of query shapes; the bound only
#: guards against signature-churning adversaries.
PLAN_CACHE_SIZE = 128


@dataclass
class Accessor:
    """One physical index as the planner sees it.

    ``translate`` maps a *logical* query node to the query the index
    actually answers (``None`` when this index cannot serve the node);
    ``run`` streams logical records for a translated query.  ``scan``
    (optional) streams every record — the fallback that serves arbitrary
    ``matches`` oracles at full-scan cost.  ``rewrite`` (optional) binds
    index context onto residual oracle nodes (see
    :meth:`repro.core.ClassIndexer.bind`).

    ``blocks`` (optional) streams the same records as ``run``, a batch
    per block read (see :meth:`~repro.engine.result.QueryResult.batches`).
    An accessor only reads: writes go through the index's record store.
    """

    name: str
    index: Any
    translate: Callable[[Any], Optional[Any]]
    run: Callable[[Any], Iterable[Any]]
    scan: Optional[Callable[[], Iterable[Any]]] = None
    scan_bound: Optional[Callable[[], Bound]] = None
    rewrite: Optional[Callable[[Any], Any]] = None
    blocks: Optional[Callable[[Any], Iterable[Any]]] = None

    @classmethod
    def for_index(cls, name: str, index: Any) -> "Accessor":
        """The identity accessor a plain (single-index) engine entry gets."""
        return cls(
            name=name,
            index=index,
            translate=lambda q: q if index.supports(q) else None,
            run=index.stream,
            rewrite=getattr(index, "bind", None),
            blocks=getattr(index, "stream_blocks", None),
        )

    def supports(self, q: Any) -> bool:
        return self.translate(q) is not None

    def cost(self, q: Any) -> Bound:
        return self.index.cost(self.translate(q))


@dataclass(frozen=True)
class Plan:
    """The planner's chosen strategy for one query, as structured data.

    ``kind`` is ``"index"`` (pushdown + optional residual), ``"union"``
    (execute every subplan, deduplicate), or ``"scan"`` (full scan +
    oracle filter).  ``modifiers`` are the :class:`Limit`/:class:`OrderBy`
    nodes peeled off the top, outermost last, applied in order after the
    base plan's stream.
    """

    kind: str
    index: Optional[str]
    access: Any
    residual: Any
    bound: Bound
    modifiers: Tuple[Any, ...] = ()
    subplans: Tuple["Plan", ...] = ()

    def predicted(self, t: int = 0) -> float:
        """Predicted I/Os at access-path output size ``t``."""
        return self.bound(t)

    def describe(self, indent: str = "") -> str:
        """Human-readable rendering (what the CLI ``explain`` prints)."""
        lines: List[str] = []
        if self.kind == "union":
            lines.append(f"{indent}Union  [bound: {self.bound.formula}]")
            for sub in self.subplans:
                lines.append(sub.describe(indent + "  "))
        elif self.kind == "scan":
            lines.append(
                f"{indent}Scan({self.index})  filter: {self.residual!r}  "
                f"[bound: {self.bound.formula}]"
            )
        else:
            lines.append(
                f"{indent}Index({self.index})  access: {self.access!r}  "
                f"[bound: {self.bound.formula}]"
            )
            if self.residual is not None:
                lines.append(f"{indent}  residual filter: {self.residual!r}")
        for m in self.modifiers:
            if isinstance(m, Limit):
                lines.append(f"{indent}  then: limit {m.n}")
            else:
                lines.append(f"{indent}  then: order by {m.key!r}"
                             f"{' desc' if m.reverse else ''}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


#: a cached strategy compiled for one signature: query -> fresh plan, or
#: ``None`` when the query does not fit (see ``QueryPlanner._instantiator``)
Instantiator = Callable[[Any], Optional[Plan]]


@dataclass(frozen=True)
class PlanTemplate:
    """A cached planning *decision*, independent of parameter values.

    Where :class:`Plan` carries concrete access/residual query nodes and a
    snapshot bound, a template records only the strategy: which accessor
    serves the query (``index``), whether a specific conjunct of an
    :class:`And` was pushed down (``push`` is its position; ``None`` means
    the whole base query was translated), and the per-part templates of a
    union.  :meth:`QueryPlanner._instantiator` turns a template back into a
    full :class:`Plan` for any query of the matching signature — one
    ``translate`` + one ``cost`` call instead of a full enumeration.
    """

    kind: str
    index: Optional[str] = None
    push: Optional[int] = None
    subtemplates: Tuple["PlanTemplate", ...] = ()


class QueryPlanner:
    """Enumerate, cost and execute plans over a set of accessors.

    Planning consults the signature-keyed plan cache first (see the module
    docstring); :meth:`invalidate` bumps the cache generation, which owners
    call on every write-path event that changes candidates or relative
    costs (attach/detach of physical indexes, bulk loads).  Structures that
    reorganise themselves (threshold-triggered global rebuilds) advertise a
    ``generation`` attribute the cache key folds in, so their rebuilds
    invalidate cached strategies without the owner's help.
    """

    def __init__(self, accessors: Sequence[Accessor], disk: Any = None) -> None:
        # a list is kept by reference so owners (Collection) can attach
        # further physical indexes after constructing the planner
        self.accessors = accessors if isinstance(accessors, list) else list(accessors)
        self.disk = disk
        #: bumped by :meth:`invalidate`; part of every cache entry's key
        self.generation = 0
        #: signature -> (generation key, the chosen template compiled)
        self._cache: "OrderedDict[Any, Tuple[Any, Optional[Instantiator]]]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0
        #: guards the plan cache's read-modify-write sequences so concurrent
        #: reader sessions can plan on one shared planner; reentrant because
        #: union planning and prepared queries nest ``plan`` calls
        self._lock = threading.RLock()

    @classmethod
    def for_index(cls, name: str, index: Any, disk: Any = None) -> "QueryPlanner":
        """A single-index planner (what ``Engine`` keeps per plain index)."""
        return cls([Accessor.for_index(name, index)], disk=disk)

    # ------------------------------------------------------------------ #
    # the plan cache
    # ------------------------------------------------------------------ #
    def invalidate(self) -> None:
        """Drop every cached strategy and bump the generation counter.

        Called by owners on events that change the candidate set or the
        relative costs wholesale: attaching/detaching a physical index,
        bulk loads, global rebuilds.  Prepared queries holding plans from
        an older generation detect the bump and re-plan on their next run.
        """
        with self._lock:
            self.generation += 1
            self._cache.clear()

    def _generation_key(self) -> Tuple[Any, ...]:
        """What a cached strategy's validity is checked against.

        Folds in the explicit :attr:`generation` and each accessor index's
        own ``generation`` counter where the structure maintains one
        (threshold-triggered rebuilds bump it) — one per accessor, so an
        attach changes the key even without an ``invalidate`` call.
        """
        return (
            self.generation,
            *[getattr(acc.index, "generation", 0) for acc in self.accessors],
        )

    def cache_info(self) -> Dict[str, int]:
        """Live cache counters (entries, hits, misses, generation)."""
        return {
            "entries": len(self._cache),
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "generation": self.generation,
        }

    @staticmethod
    def _signature(q: Any) -> Optional[tuple]:
        sig = getattr(q, "signature", None)
        return sig() if callable(sig) else None

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def plan(self, q: Any, *, use_cache: bool = True) -> Plan:
        """The cheapest plan for ``q`` (pure: executes nothing).

        With ``use_cache`` (the default) a query whose signature was
        planned before — and whose cache generation still matches — skips
        candidate enumeration and re-instantiates the cached strategy
        against the live accessors.  ``use_cache=False`` forces a full
        enumeration (what benchmarks call "ad-hoc planning") and neither
        reads nor writes the cache.

        Thread-safe: the cache's read-modify-write runs under the
        planner's reentrant lock, so any number of concurrent reader
        sessions may plan on one shared planner.
        """
        with obs_tracer.span("planner.plan", query=type(q).__name__) as sp:
            with self._lock:
                sig = self._signature(q) if use_cache else None
                if sig is not None:
                    entry = self._cache.get(sig)
                    if entry is not None:
                        gen_key, instantiate = entry
                        if gen_key == self._generation_key():
                            plan = instantiate(q) if instantiate is not None else None
                            if plan is not None:
                                self.cache_hits += 1
                                obs_metrics.REGISTRY.counter(
                                    "planner.cache_hits"
                                ).inc()
                                sp.annotate(cache_hit=True)
                                self._cache.move_to_end(sig)
                                return plan
                        # stale generation or structural mismatch: drop and re-plan
                        self._cache.pop(sig, None)
                with obs_tracer.span("planner.enumerate"):
                    plan, template = self._plan_uncached(q)
                sp.annotate(cache_hit=False)
                if sig is not None and template is not None:
                    self.cache_misses += 1
                    obs_metrics.REGISTRY.counter("planner.cache_misses").inc()
                    self._cache[sig] = (
                        self._generation_key(), self._instantiator(template, q)
                    )
                    while len(self._cache) > PLAN_CACHE_SIZE:
                        self._cache.popitem(last=False)
                return plan

    def _plan_uncached(self, q: Any) -> Tuple[Plan, Optional[PlanTemplate]]:
        base, modifiers = self._peel(q)
        plan, template = self._plan_base(base)
        if modifiers:
            plan = self._with_modifiers(plan, modifiers)
        return plan, template

    @staticmethod
    def _with_modifiers(plan: Plan, modifiers: List[Any]) -> Plan:
        return Plan(
            kind=plan.kind,
            index=plan.index,
            access=plan.access,
            residual=plan.residual,
            bound=plan.bound,
            modifiers=tuple(modifiers),
            subplans=plan.subplans,
        )

    @staticmethod
    def _peel(q: Any) -> Tuple[Any, List[Any]]:
        """Strip Limit/OrderBy off the top; innermost modifier first."""
        modifiers: List[Any] = []
        while isinstance(q, MODIFIERS):
            modifiers.append(q)
            q = q.part
        modifiers.reverse()
        return q, modifiers

    def _plan_base(self, q: Any) -> Tuple[Plan, PlanTemplate]:
        candidates = self._candidates(q)
        if not candidates:
            raise TypeError(
                f"no index among {[a.name for a in self.accessors]} can serve "
                f"{type(q).__name__} queries (and no scan fallback is attached)"
            )
        return min(candidates, key=lambda c: c[0].bound.pages)

    def _candidates(self, q: Any) -> List[Tuple[Plan, PlanTemplate]]:
        plans: List[Tuple[Plan, PlanTemplate]] = []
        # direct pushdown of the whole shape
        for acc in self.accessors:
            if acc.supports(q):
                plans.append((
                    Plan("index", acc.name, acc.translate(q), None, acc.cost(q)),
                    PlanTemplate("index", acc.name),
                ))
        # conjunction: push one conjunct down, keep the rest as residual
        if isinstance(q, And):
            for i, part in enumerate(q.parts):
                rest = q.parts[:i] + q.parts[i + 1 :]
                residual = rest[0] if len(rest) == 1 else (And(*rest) if rest else None)
                for acc in self.accessors:
                    if acc.supports(part):
                        plans.append((
                            Plan(
                                "index",
                                acc.name,
                                acc.translate(part),
                                self._rewrite(acc, residual),
                                acc.cost(part),
                            ),
                            PlanTemplate("index", acc.name, push=i),
                        ))
        # disjunction: union of recursively planned parts
        if isinstance(q, Or) and q.parts:
            try:
                pairs = tuple(self._plan_base(p) for p in q.parts)
            except TypeError:
                pairs = None
            if pairs:
                subplans = tuple(p for p, _ in pairs)
                bound = subplans[0].bound
                for sub in subplans[1:]:
                    bound = bound + sub.bound
                plans.append((
                    Plan("union", None, q, None, bound, subplans=subplans),
                    PlanTemplate("union", subtemplates=tuple(t for _, t in pairs)),
                ))
        # scan fallback: any oracle-bearing query over a scannable accessor
        if hasattr(q, "matches"):
            for acc in self.accessors:
                if acc.scan is not None:
                    plans.append((
                        Plan("scan", acc.name, None, self._rewrite(acc, q),
                             self._scan_cost(acc)),
                        PlanTemplate("scan", acc.name),
                    ))
        return plans

    def _scan_cost(self, acc: Accessor) -> Bound:
        """The full-scan bound for ``acc`` — always finite when sizes are known.

        Accessors that advertise ``scan_bound`` are taken at their word;
        otherwise the bound is derived from the index's live record count
        and the page size ``B``: a scan touches every data block, at most
        ``2n/B`` of them when blocks are at least half full, plus one root /
        control block.  (The old behaviour — an *infinite* placeholder —
        made ``result.bound`` and ``predicted()`` vacuous whenever scan was
        the only candidate.)
        """
        if acc.scan_bound is not None:
            return acc.scan_bound()
        n = getattr(acc.index, "live_count", None)
        if n is None:
            try:
                n = len(acc.index)
            except TypeError:
                n = None
        B = getattr(self.disk, "block_size", None)
        if n is None or not B:
            # sizes unknowable: keep the conservative sentinel rather than
            # inventing a bound the test suite would hold the plan to
            return Bound("full scan", float("inf"))
        blocks = 1.0 + 2.0 * max(int(n), 1) / float(B)
        return Bound.of("1 + 2n/B (full scan)", lambda t, blocks=blocks: blocks)

    @staticmethod
    def _rewrite(acc: Accessor, residual: Any) -> Any:
        if residual is None or acc.rewrite is None:
            return residual
        return acc.rewrite(residual)

    # ------------------------------------------------------------------ #
    # template instantiation (the cached fast path)
    # ------------------------------------------------------------------ #
    def _instantiator(self, template: PlanTemplate, q: Any) -> Optional[Instantiator]:
        """Compile a cached strategy for queries of ``q``'s signature.

        Returns a function from such a query to a fresh :class:`Plan`, or
        to ``None`` when the query does not fit and the caller re-plans;
        ``None`` itself when an accessor the template names is gone.
        Accessors are resolved here, once — the compiled function is valid
        while the generation key holds — and whether modifiers are peeled
        is the signature's; each call still translates the query and costs
        it against the live structure.
        """
        base = self._base_instantiator(template)
        if base is None or not isinstance(q, MODIFIERS):
            return base
        peel, with_modifiers = self._peel, self._with_modifiers

        def instantiate(q: Any) -> Optional[Plan]:
            q, modifiers = peel(q)
            plan = base(q)
            return None if plan is None else with_modifiers(plan, modifiers)

        return instantiate

    def _base_instantiator(self, t: PlanTemplate) -> Optional[Instantiator]:
        """One template node compiled against the current accessors."""
        if t.kind == "union":
            makers = [self._base_instantiator(st) for st in t.subtemplates]
            if None in makers:
                return None

            def union(q: Any) -> Optional[Plan]:
                if not isinstance(q, Or) or len(q.parts) != len(makers):
                    return None
                subplans = tuple(make(p) for make, p in zip(makers, q.parts))
                if None in subplans:
                    return None
                bound = subplans[0].bound
                for sub in subplans[1:]:
                    bound = bound + sub.bound
                return Plan("union", None, q, None, bound, subplans=subplans)

            return union
        acc = self._accessor_or_none(t.index)
        if acc is None or (t.kind == "scan" and acc.scan is None):
            return None
        name, translate, rewrite = acc.name, acc.translate, self._rewrite
        if t.kind == "scan":
            scan_cost = self._scan_cost

            def scan(q: Any) -> Optional[Plan]:
                if not hasattr(q, "matches"):
                    return None
                return Plan("scan", name, None, rewrite(acc, q), scan_cost(acc))

            return scan
        cost, push = acc.index.cost, t.push
        if push is None:

            def index(q: Any) -> Optional[Plan]:
                pq = translate(q)
                return None if pq is None else Plan("index", name, pq, None, cost(pq))

            return index

        def pushdown(q: Any) -> Optional[Plan]:
            if not isinstance(q, And) or push >= len(q.parts):
                return None
            pq = translate(q.parts[push])
            if pq is None:
                return None
            rest = q.parts[:push] + q.parts[push + 1 :]
            residual = rest[0] if len(rest) == 1 else (And(*rest) if rest else None)
            return Plan("index", name, pq, rewrite(acc, residual), cost(pq))

        return pushdown

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def execute(self, plan: Plan) -> QueryResult:
        """Run a plan as one lazy, I/O-accounted :class:`QueryResult` — the
        only result of the query: accessors ``run`` plain streams.

        The result's ``bound`` evaluates the plan's predicted cost at the
        access path's raw output size — per subplan for unions, so each
        branch's formula sees only the records that branch produced (see
        the module docstring); the plan itself is attached as
        ``result.plan``.
        """
        if plan.kind == "index" and plan.residual is None and not plan.modifiers:
            # fast path: pure pushdown — no residual, no modifiers, no
            # union, so the raw output IS the yielded output and the
            # result's own count serves as ``t``; stream the access path
            # without the counting wrapper (one generator frame per record
            # saved on the hottest shape), and let a batch drain take the
            # access path's blocks as they were read
            acc = self._accessor(plan.index)
            access, blocks = plan.access, acc.blocks
            result = QueryResult(
                lambda: acc.run(access),
                disk=self.disk,
                bound=plan.bound,
                label=f"plan:index:{plan.index}",
                blocks=None if blocks is None else lambda: blocks(access),
            )
            result.plan = plan
            return result

        counts: Dict[int, List[int]] = {}
        self._count_cells(plan, counts)
        sorted_memo: Dict[int, List[Any]] = {}

        def source() -> Iterator[Any]:
            stream: Iterator[Any] = self._run(plan, counts)
            for i, m in enumerate(plan.modifiers):
                if isinstance(m, OrderBy):
                    # stable sort, materialised at most once per result:
                    # ties keep the access path's emission order, and a
                    # re-invoked source serves the memoised list instead of
                    # re-sorting (the QueryResult cache then replays it)
                    if i not in sorted_memo:
                        sorted_memo[i] = sorted(
                            stream, key=m.key_fn(), reverse=m.reverse
                        )
                    stream = iter(sorted_memo[i])
                elif isinstance(m, Limit):
                    stream = islice(stream, m.n)
            return stream

        def bound_at(p: Plan, t: int) -> float:
            if p.kind == "union":
                # each subplan's formula at its own raw output size; the
                # deduplicated yield count ``t`` never exceeds the sum
                return sum(bound_at(sub, 0) for sub in p.subplans)
            cell = counts.get(id(p))
            raw = cell[0] if cell else 0
            return p.bound(max(t, raw))

        result = QueryResult(
            source,
            disk=self.disk,
            bound=lambda t: bound_at(plan, t),
            label=f"plan:{plan.kind}:{plan.index or 'union'}",
        )
        result.plan = plan
        return result

    def query(self, q: Any) -> QueryResult:
        """Plan ``q`` (cache-aware) and execute the chosen plan."""
        return self.execute(self.plan(q))

    def _accessor(self, name: str) -> Accessor:
        acc = self._accessor_or_none(name)
        if acc is None:
            raise KeyError(f"plan references unknown index {name!r}")
        return acc

    def _accessor_or_none(self, name: Optional[str]) -> Optional[Accessor]:
        for acc in self.accessors:
            if acc.name == name:
                return acc
        return None

    def _count_cells(self, plan: Plan, counts: Dict[int, List[int]]) -> None:
        """One mutable raw-output counter per non-union plan node."""
        if plan.kind == "union":
            for sub in plan.subplans:
                self._count_cells(sub, counts)
        else:
            counts[id(plan)] = [0]

    def _run(self, plan: Plan, counts: Dict[int, List[int]]) -> Iterator[Any]:
        if plan.kind == "union":
            seen = set()
            rk = record_key
            for sub in plan.subplans:
                for rec in self._run(sub, counts):
                    key = rk(rec)
                    if key not in seen:
                        seen.add(key)
                        yield rec
            return
        acc = self._accessor(plan.index)
        cell = counts[id(plan)]  # execute() made one per non-union node
        # the executing QueryResult owns accounting and replay: accessors
        # hand over plain streams, never a result of their own
        stream = acc.scan() if plan.kind == "scan" else acc.run(plan.access)
        residual = plan.residual
        # hoist the per-record lookups out of the hot loop: one bound-method
        # fetch instead of two attribute chases per streamed record
        if residual is None:
            for rec in stream:
                cell[0] += 1
                yield rec
        else:
            matches = residual.matches
            # the residual span carries counts, not an I/O sink: the filter
            # itself does no I/O, and this generator can be abandoned by an
            # outer Limit — its late GC-driven close must not have to
            # unwind a sink registration
            sp = obs_tracer.span("plan.residual", index=plan.index)
            with sp:
                examined = emitted = 0
                try:
                    for rec in stream:
                        cell[0] += 1
                        examined += 1
                        if matches(rec):
                            emitted += 1
                            yield rec
                finally:
                    sp.annotate(examined=examined, emitted=emitted)
