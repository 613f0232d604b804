"""Prepared queries: plan once, execute many times with fresh bindings.

``Engine.prepare(name, q)`` plans ``q`` — which may contain
:class:`~repro.engine.queries.Param` placeholders in scalar operand
positions — against the named index and hands back a :class:`PreparedQuery`.
``run(**params)`` substitutes the bindings and re-instantiates the *cached
strategy* directly: no candidate enumeration, no costing of alternatives,
no signature lookup — the per-call work is one parameter substitution
(by a binder compiled once for the query's shape), one ``translate`` +
``cost`` call against the live structures (so predicted bounds always
reflect current sizes, even as plain inserts grow the index) through the
strategy compiled against the accessors once per generation, and the
execution itself — the same one result, counted the same way, as
an ad-hoc ``Engine.query``.

Correctness is guarded twice:

* the planner's **generation key** (see :mod:`repro.engine.planner`) —
  every ``run``/``plan`` call compares the generation captured at prepare
  time against the live one, and any invalidating write event in between
  (attaching or detaching a physical index, a bulk load, a
  threshold-triggered global rebuild) forces a full re-plan before
  execution; and
* an **identity check against the engine namespace** — running a prepared
  query whose index was dropped raises the engine's
  :class:`~repro.errors.UnknownIndexError`, and one whose name was re-bound
  to a *different* index object raises
  :class:`~repro.errors.StalePreparedError`, instead of silently answering
  from freed blocks.

The :attr:`PreparedQuery.last_from_cache` flag reports which path the most
recent call took, which is what the invalidation tests assert on.

>>> from repro import Engine, Interval, Param, Stab
>>> eng = Engine(block_size=16)
>>> _ = eng.create_collection("ivs", [Interval(1, 5), Interval(3, 9)])
>>> stab = eng.prepare("ivs", Stab(Param("x")))
>>> sorted(iv.low for iv in stab.run(x=4))
[1, 3]
>>> sorted(iv.low for iv in stab.run(x=8))
[3]
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.engine.planner import Instantiator, Plan, QueryPlanner
from repro.engine.queries import bind_exactly, compile_params
from repro.engine.result import QueryResult
from repro.errors import StalePreparedError


class PreparedQuery:
    """A named query planned once and re-executed with fresh bindings.

    Built by ``Engine.prepare``; not constructed directly in application
    code.  The prepared query may contain unbound
    :class:`~repro.engine.queries.Param` nodes — ``run``/``plan`` bind
    them and, while the planner's cache generation holds, re-instantiate
    the cached :class:`~repro.engine.planner.PlanTemplate` — compiled
    against the accessors once per generation — instead of planning from
    scratch.
    """

    def __init__(
        self,
        name: str,
        query: Any,
        planner: QueryPlanner,
        engine: Any = None,
        index: Any = None,
    ) -> None:
        self.name = name
        self.query = query
        self.planner = planner
        self._engine = engine
        self._index = index
        #: the query's placeholders, bound per run by one compiled binder
        self._compiled = compile_params(query)
        #: parameter names ``run()`` requires, sorted for the repr
        self.params: List[str] = sorted(self._compiled[1])
        self._owner = f"prepared query {name!r}"
        #: the cached strategy compiled against this generation's accessors
        self._instantiate: Optional[Instantiator] = None
        self._gen_key: Any = None
        #: whether the most recent ``run``/``plan`` served the cached
        #: strategy (``False`` means an invalidation forced a re-plan);
        #: ``None`` until the first call
        self.last_from_cache: Optional[bool] = None
        self._prime()

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def _prime(self) -> None:
        """Plan the (possibly parameterised) query; keep the chosen strategy.

        Planning an unbound query works for every standard shape — index
        capability checks and cost formulas never compare operand values —
        but an exotic index could reject a placeholder, in which case the
        prepared query plans per run instead (still through the planner's
        signature cache; ``_gen_key`` remembers the failure, so the failing
        enumeration is not retried until the next generation bump).  A
        query *without* placeholders that fails to plan is simply
        unservable — that error belongs at the ``prepare`` call site, not
        at the first ``run``.
        """
        # under the planner's (reentrant) lock: the cache peek after plan()
        # must see the entry that call wrote, not a concurrent eviction
        with self.planner._lock:
            self._gen_key = self.planner._generation_key()
            self._instantiate = None
            try:
                self.planner.plan(self.query)
            except Exception:
                if not self.params:
                    raise
                return
            sig = self.planner._signature(self.query)
            entry = self.planner._cache.get(sig) if sig is not None else None
            if entry is not None:
                self._instantiate = entry[1]

    def _check_live(self) -> None:
        """Fail loudly when the prepared index left the engine namespace."""
        if self._engine is None:
            return
        live = self._engine.index(self.name)  # UnknownIndexError if dropped
        if live is not self._index:
            raise StalePreparedError(
                f"index {self.name!r} was dropped and re-created since this "
                "query was prepared; call Engine.prepare again"
            )

    def plan(self, **params: Any) -> Plan:
        """The plan :meth:`run` would execute for these bindings (no I/O).

        Re-instantiates the cached strategy — fresh ``cost`` against the
        live structures, no enumeration — while the cache generation
        holds; re-plans otherwise.
        """
        self._check_live()
        bound_q = bind_exactly(self.query, self._compiled, params, self._owner)
        if self._gen_key != self.planner._generation_key():
            # an invalidating write event happened since the last plan
            self.last_from_cache = False
            self._prime()
        else:
            self.last_from_cache = self._instantiate is not None
        if self._instantiate is not None:
            plan = self._instantiate(bound_q)
            if plan is not None:
                return plan
            self.last_from_cache = False
        # no usable cached strategy at this generation: plan the bound
        # query (one signature-cache lookup; full enumeration at worst)
        return self.planner.plan(bound_q)

    def run(self, **params: Any) -> QueryResult:
        """Execute with these bindings; returns the usual lazy result.

        What a prepared query saves over ``Engine.query`` is planning —
        candidate enumeration and the signature lookup — not accounting:
        both return the planner's one result, safe to interleave.
        """
        return self.planner.execute(self.plan(**params))

    def explain(self, **params: Any) -> Plan:
        """Alias of :meth:`plan`, mirroring ``Engine.explain``."""
        return self.plan(**params)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        args = ", ".join(self.params) or "no params"
        return f"PreparedQuery({self.name!r}, {self.query!r}, {args})"
