"""The concurrency linter's rule catalog: one class per invariant.

The AST walker in :mod:`repro.analysis.lint` understands *mechanism* —
which lock tokens are held at every point, which calls happen, which
attributes are mutated.  The **rules** here decide *policy*: what the
commit kernel promised (PR 6) and what every later PR must keep true.

Adding an invariant is one subclass of :class:`Rule` registered with
:func:`register`; the CLI, the fixture corpus, the suppression syntax and
the README catalog all pick it up by its ``id``.

Rule ids (the names ``# lint: allow(...)`` takes):

``lock-order``
    Locks are ranked mutex(0) ≺ latch(1) ≺ wal(2) ≺ leaf(3); acquiring a
    lower rank while holding a higher one is an inversion, and same-rank
    locks must be acquired in one global order (A→B somewhere and B→A
    elsewhere is a cycle, i.e. a deadlock waiting for its interleaving).
``blocking-under-mutex``
    No blocking call — ``fsync``/``sync``/``sync_to``/``sleep``/socket
    or subprocess work — while holding a non-barrier lock.  The commit
    kernel fsyncs *outside* the mutex; the WAL's dedicated sync lock is a
    declared barrier lock (group commit happens under it, by design).
``unlocked-shared-mutation``
    No bare ``+=``/``-=`` on shared counters (:class:`~repro.io.counters.
    IOStats` fields, WAL/planner counters, anything a class declares in a
    ``_shared`` tuple) outside a lock context — a read-modify-write loses
    updates under concurrency.  Inside functions used as ``Thread``
    targets the rule also covers mutation of closure cells
    (``counter[0] += 1``).
``engine-lock-in-read-turn``
    Read turns pin an MVCC epoch and share one index latch; they must
    never take an engine-wide lock (``_write_mutex`` / ``write_turn()``)
    — that is what keeps readers unblockable by writers on other indexes.

The four rules below are **interprocedural**: they run over the
whole-program effect summaries of :mod:`repro.analysis.effects`
(phase 1: per-function effects; phase 2: call-graph closure), so they
fire on *transitive* effects — a generation bump inside a helper counts,
an fsync reached through two calls still violates the barrier rules.

``commit-protocol``
    The durability ordering the commit kernel promised: WAL appends only
    inside ``_commit`` (or the WAL itself); every append must reach the
    ``sync_to`` barrier before the commit can be acknowledged; an epoch
    ``publish`` in the same function as the barrier must come *after* it;
    every ``begin``-allocated epoch must reach a ``publish`` (ordered
    publication deadlocks forever on a leaked epoch).
``uncounted-io``
    Every raw file/`os` I/O (``seek``/``read``/``write``/``truncate`` on
    a file handle, ``os.fsync``) must be covered by an ``IOStats`` charge
    — in the same function, transitively through a callee, or in a
    resolved caller — or the paper's I/O bounds silently stop being
    checkable.  Test modules (:data:`VERIFICATION_MODULES`) are exempt.
``stale-plan-cache``
    A structural swap (a function that ``destroy()``\\ s an old structure
    and installs a replacement on ``self``) must bump a plan-cache
    generation (``self.generation += 1`` / ``planner.invalidate()``),
    directly or transitively — otherwise cached strategies keep pointing
    at freed blocks.
``wire-exhaustiveness``
    The wire contract's artifacts must agree: ``COMMANDS`` ↔ the rows of
    the one ``COMMAND_TABLE`` ↔ the ``Executor`` protocol's members ↔
    every class with an ``Executor`` base ↔ every protocol client class;
    ``_node_registry`` covers every ``AlgebraicQuery`` subclass in its
    module and names only resolvable types; ``ERROR_CODES`` ↔ the codes of
    ``ERROR_TABLE`` plus ``classify_error``'s literal returns.  The names
    are data (:data:`repro.analysis.effects.WIRE_NAMES`), not rule code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple, Type

from repro.analysis.effects import (
    TRANSPORT_COMMANDS, EffectSite, FunctionSummary, ModuleArtifacts, Program,
)
from repro.analysis.lockdep import RANK_LATCH, RANK_LEAF, RANK_MUTEX, RANK_WAL

# --------------------------------------------------------------------------- #
# lock-token classification (what the walker reports to the rules)
# --------------------------------------------------------------------------- #
#: attribute names that denote the engine-wide write mutex
MUTEX_ATTRS = {"_write_mutex"}
#: attribute names that denote the WAL's internal locks; ``_sync_lock`` is
#: a *barrier* lock — the group-commit fsync legitimately runs under it
WAL_LOCK_CLASSES = {"WriteAheadLog"}
BARRIER_LOCK_ATTRS = {"_sync_lock"}
#: the cluster router/supervisor latches: topology + namespace guard and
#: the shard-handle list guard — both rank *above* the per-link RPC lock,
#: a plain leaf lock that guards a connection pool and blocks on nothing
CLUSTER_LATCH_ATTRS = {"_topology_lock", "_spawn_lock"}
#: with-item method calls that are context managers but **not** locks:
#: ``Tracer.span(...)`` (PR 10) brackets a region for wall-clock and I/O
#: attribution only — it must never be treated as an acquisition, or every
#: instrumented site would fabricate lock-order edges and a span block
#: would silently shield shared-counter mutations from the linter
NONLOCK_CM = {"span"}
#: call names that block (syscalls, barriers, schedulers); matched against
#: the final attribute of a call chain
BLOCKING_CALLS = {
    "fsync",
    "sync",
    "sync_to",
    "sleep",
    "serve_forever",
    "accept",
    "recv",
    "sendall",
    "connect",
    "wait_for_clean_exit",
}
#: base names whose entire attribute surface blocks (``socket.create_...``)
BLOCKING_BASES = {"socket", "subprocess", "requests"}

#: counter fields that are shared across threads by contract; a bare
#: augmented assignment on any of these outside a lock loses updates
SHARED_COUNTER_FIELDS = {
    # IOStats
    "reads", "writes", "allocations", "frees", "cache_hits", "fsyncs",
    # WriteAheadLog
    "commits", "syncs", "group_absorbed",
    # QueryPlanner's plan cache
    "cache_hits", "cache_misses",
}


@dataclass(frozen=True)
class LockToken:
    """One syntactically-held lock: a key, its declared rank, barrier-ness."""

    key: str
    rank: int
    #: blocking calls are legitimate under barrier locks (WAL sync lock)
    barrier: bool = False


def classify_lock(owner: str, attr: str) -> LockToken:
    """The token for ``with <recv>.<attr>`` given the enclosing class name."""
    if attr in MUTEX_ATTRS:
        return LockToken(f"{owner}.{attr}", RANK_MUTEX)
    if attr in CLUSTER_LATCH_ATTRS:
        return LockToken(f"{owner}.{attr}", RANK_LATCH)
    if owner in WAL_LOCK_CLASSES:
        return LockToken(
            f"{owner}.{attr}", RANK_WAL, barrier=attr in BARRIER_LOCK_ATTRS
        )
    return LockToken(f"{owner}.{attr}", RANK_LEAF)


def latch_token(receiver: str) -> LockToken:
    """The token for an RWLock acquisition on ``receiver``."""
    return LockToken(f"latch:{receiver}", RANK_LATCH)


@dataclass(frozen=True)
class Finding:
    """One linter diagnostic, pinned to a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


class Context:
    """What the walker exposes to rules at each callback.

    ``held`` is the stack of lock tokens syntactically held at the current
    node; ``read_turn_depth`` counts enclosing ``with ...read_turn(...)``
    blocks; ``thread_targets`` are module functions passed to
    ``threading.Thread(target=...)``; ``shared_fields`` are the builtin
    counter names plus any ``_shared = (...)`` declarations in the module.
    """

    def __init__(
        self,
        path: str,
        emit: Callable[[int, int, str, str], None],
    ) -> None:
        self.path = path
        self._emit = emit
        self.held: List[LockToken] = []
        self.read_turn_depth = 0
        self.current_class: str = "<module>"
        self.current_function: str = "<module>"
        self.thread_targets: Set[str] = set()
        self.local_names: Set[str] = set()
        self.shared_fields: Set[str] = set(SHARED_COUNTER_FIELDS)

    def emit(self, node: ast.AST, rule: str, message: str) -> None:
        self._emit(
            getattr(node, "lineno", 0), getattr(node, "col_offset", 0),
            rule, message,
        )

    def holding_non_barrier(self) -> Optional[LockToken]:
        for token in self.held:
            if not token.barrier:
                return token
        return None


class Rule:
    """Base class: override the callbacks the invariant needs."""

    id: str = ""
    description: str = ""

    def on_acquire(self, ctx: Context, token: LockToken, node: ast.AST) -> None:
        """A lock token is being acquired with ``ctx.held`` still unchanged."""

    def on_call(self, ctx: Context, node: ast.Call, chain: str) -> None:
        """Any call expression; ``chain`` is the dotted callee (best effort)."""

    def on_augassign(self, ctx: Context, node: ast.AugAssign) -> None:
        """Any ``+=`` / ``-=`` statement."""

    def finalize(self, emit: Callable[[Finding], None]) -> None:
        """Called once after every file was walked (cross-file checks)."""

    def finalize_program(
        self, program: Program, emit: Callable[[Finding], None]
    ) -> None:
        """Called once with the whole-program effect model (phase-2 rules)."""


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the catalog under its ``id``."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    _REGISTRY[cls.id] = cls
    return cls


def rule_catalog() -> Dict[str, str]:
    """``{rule_id: description}`` for ``repro lint --rules`` and the README."""
    return {rid: _REGISTRY[rid].description for rid in sorted(_REGISTRY)}


def all_rules() -> List[Rule]:
    """Fresh rule instances (rules keep per-run state, e.g. the edge graph)."""
    return [_REGISTRY[rid]() for rid in sorted(_REGISTRY)]


# --------------------------------------------------------------------------- #
# the rules
# --------------------------------------------------------------------------- #
@register
class LockOrderRule(Rule):
    """mutex ≺ latch ≺ wal ≺ leaf; same-rank locks in one global order."""

    id = "lock-order"
    description = (
        "locks must be acquired in rank order (mutex < latch < wal < leaf); "
        "rank inversions and same-rank A/B-B/A cycles are deadlocks in waiting"
    )

    def __init__(self) -> None:
        #: (held_key, acquired_key) -> acquisition site
        self.edges: Dict[Tuple[str, str], Finding] = {}

    def on_acquire(self, ctx: Context, token: LockToken, node: ast.AST) -> None:
        if not ctx.held:
            return
        top = ctx.held[-1]
        if token.rank < top.rank:
            ctx.emit(
                node, self.id,
                f"acquiring {token.key!r} (rank {token.rank}) while holding "
                f"{top.key!r} (rank {top.rank}); declared order is "
                f"mutex < latch < wal < leaf",
            )
        for held in ctx.held:
            if held.key == token.key:
                continue
            edge = (held.key, token.key)
            if edge not in self.edges:
                self.edges[edge] = Finding(
                    ctx.path,
                    getattr(node, "lineno", 0),
                    getattr(node, "col_offset", 0),
                    self.id,
                    f"acquired {token.key!r} while holding {held.key!r}",
                )

    def finalize(self, emit: Callable[[Finding], None]) -> None:
        for (a, b), site in sorted(self.edges.items()):
            if a < b and (b, a) in self.edges:
                other = self.edges[(b, a)]
                emit(Finding(
                    site.path, site.line, site.col, self.id,
                    f"lock-order cycle: {a!r} -> {b!r} here, but "
                    f"{b!r} -> {a!r} at {other.path}:{other.line}",
                ))


@register
class BlockingUnderMutexRule(Rule):
    """No fsync/sync_to/socket/sleep while holding a non-barrier lock."""

    id = "blocking-under-mutex"
    description = (
        "no blocking calls (fsync, sync, sync_to, sleep, socket/subprocess "
        "work) while holding the commit mutex, a latch, or any non-barrier "
        "lock; the kernel fsyncs outside the mutex, then publishes"
    )

    def on_call(self, ctx: Context, node: ast.Call, chain: str) -> None:
        holder = ctx.holding_non_barrier()
        if holder is None:
            return
        leaf = chain.rsplit(".", 1)[-1]
        base = chain.split(".", 1)[0]
        if leaf in BLOCKING_CALLS or base in BLOCKING_BASES:
            ctx.emit(
                node, self.id,
                f"blocking call {chain}() while holding {holder.key!r}; "
                f"move the barrier outside the lock or declare a barrier "
                f"lock / add a justified suppression",
            )


@register
class UnlockedSharedMutationRule(Rule):
    """No bare ``+=``/``-=`` on shared counters outside a lock context."""

    id = "unlocked-shared-mutation"
    description = (
        "no bare += / -= on shared counters (IOStats fields, WAL/planner "
        "counters, _shared-declared attributes) or on closure cells inside "
        "Thread targets, outside a lock context; use IOStats.count() or "
        "hold the owning lock"
    )

    def on_augassign(self, ctx: Context, node: ast.AugAssign) -> None:
        if not isinstance(node.op, (ast.Add, ast.Sub)):
            return
        if ctx.held:
            return
        target = node.target
        if isinstance(target, ast.Attribute):
            if target.attr in ctx.shared_fields:
                ctx.emit(
                    node, self.id,
                    f"bare augmented assignment on shared counter "
                    f"'.{target.attr}' outside any lock; this "
                    f"read-modify-write loses updates under concurrency",
                )
            return
        if (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Name)
            and ctx.current_function in ctx.thread_targets
            and target.value.id not in ctx.local_names
        ):
            ctx.emit(
                node, self.id,
                f"augmented assignment on closure cell "
                f"{target.value.id!r} inside thread target "
                f"{ctx.current_function!r} without a lock",
            )


@register
class EngineLockInReadTurnRule(Rule):
    """Read turns must never take an engine-wide lock."""

    id = "engine-lock-in-read-turn"
    description = (
        "no engine-wide lock acquisition (_write_mutex, write_turn()) inside "
        "a read_turn scope; snapshot reads share one index latch and nothing "
        "else"
    )

    def on_acquire(self, ctx: Context, token: LockToken, node: ast.AST) -> None:
        if ctx.read_turn_depth > 0 and token.rank == RANK_MUTEX:
            ctx.emit(
                node, self.id,
                f"engine-wide lock {token.key!r} acquired inside a "
                f"read_turn scope; readers must share only the target "
                f"index's latch",
            )

    def on_call(self, ctx: Context, node: ast.Call, chain: str) -> None:
        if ctx.read_turn_depth > 0 and chain.rsplit(".", 1)[-1] == "write_turn":
            ctx.emit(
                node, self.id,
                "write_turn() entered inside a read_turn scope; upgrade by "
                "releasing the read turn and committing instead",
            )


# --------------------------------------------------------------------------- #
# the interprocedural rules (phase-2: whole-program effect summaries)
# --------------------------------------------------------------------------- #
#: function names allowed to append to the WAL (the commit kernel) —
#: everything else must route mutations through ``Engine._commit``
COMMIT_FUNCTIONS = {"_commit"}

#: teardown functions: destroying without installing a successor is not a
#: swap, and there is no planner left to invalidate
TEARDOWN_FUNCTIONS = {"destroy", "close", "clear", "__exit__", "__del__"}


@register
class CommitProtocolRule(Rule):
    """WAL append → fsync barrier → ordered publish, and nowhere else."""

    id = "commit-protocol"
    description = (
        "the commit ordering is append -> sync_to barrier -> publish -> ack: "
        "WAL appends only inside _commit (or the WAL itself), every append "
        "must transitively reach sync_to, publish must follow the barrier, "
        "and every begun epoch must reach a publish (even on failure)"
    )

    def finalize_program(
        self, program: Program, emit: Callable[[Finding], None]
    ) -> None:
        program.resolve()
        for fn in program.functions.values():
            for site in fn.wal_appends:
                if fn.name not in COMMIT_FUNCTIONS and fn.cls != "WriteAheadLog":
                    emit(Finding(
                        fn.path, site.line, site.col, self.id,
                        f"WAL append in {fn.name!r}, outside the commit "
                        f"kernel; route mutations through Engine._commit so "
                        f"the barrier/publish ordering applies",
                    ))
                if not program.reaches(fn.key, "wal_sync"):
                    emit(Finding(
                        fn.path, site.line, site.col, self.id,
                        f"WAL append in {fn.name!r} never reaches the "
                        f"sync_to durability barrier; an acknowledged commit "
                        f"must survive a crash",
                    ))
            if fn.wal_syncs and fn.epoch_publishes:
                barrier = min(s.line for s in fn.wal_syncs)
                for pub in fn.epoch_publishes:
                    if pub.line < barrier:
                        emit(Finding(
                            fn.path, pub.line, pub.col, self.id,
                            f"epoch published at line {pub.line} before the "
                            f"sync_to barrier at line {barrier}; readers "
                            f"would see a commit a crash can still lose",
                        ))
            for site in fn.epoch_begins:
                if not program.reaches(fn.key, "epoch_publish"):
                    emit(Finding(
                        fn.path, site.line, site.col, self.id,
                        f"epoch begun in {fn.name!r} never reaches a "
                        f"publish; ordered publication waits forever on a "
                        f"leaked epoch (publish in a finally, even on "
                        f"failure)",
                    ))


#: file-name patterns of *verification* modules: a test reading ``/proc`` or
#: damaging a page file on purpose is not the accounted system, so
#: ``uncounted-io`` does not hold it to the I/O-charging contract
VERIFICATION_MODULES = ("test_*.py", "conftest.py")


@register
class UncountedIORule(Rule):
    """Raw file/os I/O must be covered by an IOStats charge on some path."""

    id = "uncounted-io"
    description = (
        "raw file I/O (seek/read/write/truncate on a handle, os.fsync) must "
        "be covered by an IOStats charge — in the same function, through a "
        "callee, or in a resolved caller — so the paper's I/O bounds stay "
        "checkable"
    )

    def _covered(self, program: Program, fn: FunctionSummary) -> bool:
        if program.reaches(fn.key, "charge"):
            return True
        return any(
            program.reaches(caller, "charge") for caller in program.callers(fn.key)
        )

    def finalize_program(
        self, program: Program, emit: Callable[[Finding], None]
    ) -> None:
        program.resolve()
        for fn in program.functions.values():
            if not fn.raw_io or self._covered(program, fn):
                continue
            if any(fnmatch(Path(fn.path).name, pat) for pat in VERIFICATION_MODULES):
                continue
            for site in fn.raw_io:
                emit(Finding(
                    fn.path, site.line, site.col, self.id,
                    f"raw I/O {site.detail}() in {fn.name!r} is not covered "
                    f"by any IOStats charge (no charge in this function, its "
                    f"callees, or a resolved caller)",
                ))


@register
class StalePlanCacheRule(Rule):
    """Structural swaps must bump a plan-cache generation, transitively."""

    id = "stale-plan-cache"
    description = (
        "a structural swap (destroy an old structure + install a replacement "
        "on self) must bump a plan-cache generation (self.generation += 1 or "
        "planner.invalidate()), directly or via a callee — cached plans must "
        "not outlive the structure they reference"
    )

    def finalize_program(
        self, program: Program, emit: Callable[[Finding], None]
    ) -> None:
        program.resolve()
        for fn in program.functions.values():
            if (
                fn.name in TEARDOWN_FUNCTIONS
                or fn.name.startswith("drop")
                or fn.name.startswith("destroy")
            ):
                continue
            if not fn.destroys or not fn.self_assigns:
                continue
            if program.reaches(fn.key, "gen_bump"):
                continue
            site = min(fn.self_assigns, key=lambda s: s.line)
            emit(Finding(
                fn.path, site.line, site.col, self.id,
                f"structural swap in {fn.name!r} (destroys a structure and "
                f"installs 'self.{site.detail}') without a generation bump; "
                f"cached plans will keep referencing the destroyed structure",
            ))


_Found = Tuple[Set[str], EffectSite]


@register
class WireExhaustivenessRule(Rule):
    """COMMANDS, the command table, executors, clients and codecs must agree."""

    id = "wire-exhaustiveness"
    description = (
        "the wire artifacts must stay in lockstep: COMMANDS, the rows of the "
        "one COMMAND_TABLE, the Executor protocol's members, every Executor "
        "implementation and every protocol client; the serialization registry "
        "covers every AlgebraicQuery subclass and names only resolvable "
        "types; ERROR_TABLE's and classify_error's codes match ERROR_CODES"
    )

    def finalize_program(
        self, program: Program, emit: Callable[[Finding], None]
    ) -> None:
        def first(pick: Callable[[ModuleArtifacts], Optional[_Found]]) -> Set[str]:
            """The first module declaring an artifact speaks for the program."""
            return next(
                (found[0] for found in map(pick, program.modules) if found), set()
            )

        commands = first(lambda m: m.declared.get("commands"))
        members = first(lambda m: m.executor_protocol)
        for module in program.modules:
            for site, message in self._drift(program, module, commands, members):
                emit(Finding(module.path, site.line, site.col, self.id, message))

    @staticmethod
    def _drift(
        program: Program, module: ModuleArtifacts, commands: Set[str], members: Set[str]
    ) -> Iterator[Tuple[EffectSite, str]]:
        def serves(member: str, cmd: str) -> bool:
            return member == cmd or member.startswith(cmd + "_")

        if commands and "command_table" in module.declared:
            rows, site = module.declared["command_table"]
            for missing in sorted(commands - rows):
                yield site, f"the command table has no row for declared command {missing!r}"
            for extra in sorted(rows - commands):
                yield site, (
                    f"the command table serves {extra!r}, which COMMANDS does "
                    f"not declare (clients can never reach it)"
                )
        if commands and module.executor_protocol is not None:
            own, site = module.executor_protocol
            for cmd in sorted(commands - TRANSPORT_COMMANDS):
                if not any(serves(member, cmd) for member in own):
                    yield site, f"no Executor member serves declared command {cmd!r}"
            for member in sorted(own):
                if not any(serves(member, cmd) for cmd in commands):
                    yield site, f"Executor member {member!r} serves no declared command"
        for cls, (methods, site) in module.executor_classes.items():
            for missing in sorted(members - methods):
                yield site, f"executor {cls!r} does not implement Executor.{missing}"
        if commands and module.mentions_commands:
            for cls, (methods, site) in module.client_classes.items():
                for missing in sorted(commands - methods):
                    yield site, (
                        f"client class {cls!r} has no method for declared "
                        f"command {missing!r}"
                    )
        if module.registry is not None:
            names, site = module.registry
            for cls, line in sorted(module.node_classes.items()):
                if cls not in names:
                    yield EffectSite(line, 0), (
                        f"query node {cls!r} is missing from the serialization "
                        f"registry; it cannot cross the wire"
                    )
            defined = set(module.node_classes) | module.imported_names
            defined |= {
                fn.cls for fn in program.functions.values()
                if fn.path == module.path and fn.cls is not None
            }
            for name in sorted(names - defined):
                yield site, (
                    f"registry names {name!r}, which is neither defined nor "
                    f"imported in this module (deserialization would NameError)"
                )
        produced = [
            found for found in
            (module.declared.get("error_table"), module.classify_returns) if found
        ]
        if "error_codes" in module.declared and produced:
            codes, codes_site = module.declared["error_codes"]
            for missing in sorted(codes.difference(*(found[0] for found in produced))):
                yield codes_site, (
                    f"ERROR_CODES declares {missing!r} but neither ERROR_TABLE "
                    f"nor classify_error produces it"
                )
            for strings, site in produced:
                for extra in sorted(strings - codes):
                    yield site, (
                        f"the error classification produces {extra!r}, which "
                        f"ERROR_CODES does not declare"
                    )


# re-exported so a downstream rule module can extend the leaf set
__all__ = [
    "BLOCKING_BASES",
    "BLOCKING_CALLS",
    "CLUSTER_LATCH_ATTRS",
    "Context",
    "Finding",
    "LockToken",
    "NONLOCK_CM",
    "RANK_LATCH",
    "RANK_LEAF",
    "RANK_MUTEX",
    "RANK_WAL",
    "Rule",
    "SHARED_COUNTER_FIELDS",
    "all_rules",
    "classify_lock",
    "latch_token",
    "register",
    "rule_catalog",
]
