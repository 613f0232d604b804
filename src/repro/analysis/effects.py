"""Interprocedural effect summaries: phase 1/2 of the whole-program checker.

The intraprocedural walker in :mod:`repro.analysis.lint` sees one function
body at a time, which is enough for lock discipline but blind to the
protocols that *span* functions: the commit ordering (append → fsync
barrier → publish), the I/O-accounting contract (every raw block access is
charged to :class:`~repro.io.counters.IOStats` *somewhere* on the path),
and plan-cache invalidation (every structural swap bumps a generation,
possibly in a helper).  This module supplies the missing half:

* **Phase 1** — :meth:`Program.add_module` walks every function definition
  and records a :class:`FunctionSummary` of its *direct* effects: raw
  file/`os` I/O sites, ``IOStats`` charges, WAL appends and ``sync_to``
  barriers, epoch ``begin``/``publish`` calls, generation bumps,
  ``destroy()`` calls, ``self.<attr> = ...`` installs, and every call site.
* **Phase 2** — :meth:`Program.resolve` links call sites to definitions
  (best-effort, see below) and computes the **transitive closure** of the
  boolean effects, so a rule can ask "does this function *reach* a charge
  / a barrier / a bump?" (:meth:`Program.reaches`) and "is any caller of
  this function covered?" (:meth:`Program.callers`).

Call resolution is deliberately conservative, the same philosophy that
keeps the lock linter free of false positives: ``self.m()`` resolves
inside the enclosing class, a bare ``m()`` inside the enclosing module
(else to the program's one *function* of that name, never a method — a
bare name is a builtin or an import),
and ``obj.m()`` only when ``m`` is defined exactly once in the whole
program *and* is not a ubiquitous container/stdlib method name
(``append``, ``read``, ``get``, ...).  Unresolvable calls simply
contribute no edge — rules treat "no edge" as "no effect", and the rules
built on top are phrased so that a missing edge can only *suppress* a
finding, never invent one.

The module also collects the **wire artifacts** the cross-artifact rule
compares — the declared string sets (``COMMANDS``, ``ERROR_CODES``, the
rows of ``COMMAND_TABLE``, the codes of ``ERROR_TABLE``), the ``Executor``
protocol's members and its implementations, ``*Client`` method surfaces,
the serialization registry and the string literals ``classify_error``
returns — under the names :data:`WIRE_NAMES` declares.  Everything here
is pure data extraction — policy lives in :mod:`repro.analysis.lintrules`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

__all__ = [
    "CallRef",
    "EffectSite",
    "FunctionSummary",
    "ModuleArtifacts",
    "Program",
    "TRANSPORT_COMMANDS",
    "WIRE_NAMES",
    "dotted",
]

#: role -> the name the wire contract's artifact goes by in source: data,
#: so renaming an artifact edits this table, not the extraction or the rule
WIRE_NAMES = {
    "commands": "COMMANDS",            # tuple of command names
    "error_codes": "ERROR_CODES",      # tuple of error codes
    "command_table": "COMMAND_TABLE",  # dict: command -> row
    "error_table": "ERROR_TABLE",      # tuple of (exception class, code)
    "executor": "Executor",            # the protocol; bases name implementations
    "classify": "classify_error",
    "registry": "_node_registry",
    "node_base": "AlgebraicQuery",
    "client_suffix": "Client",
}
#: commands the transport answers itself: a table row, no executor member
TRANSPORT_COMMANDS = {"shutdown"}
_DECLARED = {
    WIRE_NAMES[role]: role
    for role in ("commands", "error_codes", "command_table", "error_table")
}

#: effect flags a summary can carry directly and a closure can propagate
EFFECTS = ("charge", "wal_sync", "epoch_publish", "gen_bump")

#: method names too common to resolve by bare name across the program —
#: ``self._ops.append`` must never link to ``WriteAheadLog.append``
_COMMON_METHODS = {
    "append", "add", "remove", "discard", "pop", "get", "update", "extend",
    "sort", "index", "count", "clear", "copy", "keys", "values", "items",
    "join", "split", "strip", "read", "write", "open", "close", "flush",
    "seek", "truncate", "encode", "decode", "format", "startswith",
    "endswith", "lower", "upper", "acquire", "release", "wait", "notify",
    "notify_all", "put", "send", "recv", "start", "run", "cancel",
    "submit", "result", "exists", "mkdir", "match", "search", "group",
    "sub", "findall", "dumps", "loads", "dump", "load", "insert", "delete",
    "query", "next", "send_all", "setdefault",
    # Tracer.span / tracing capture: instrumentation wrappers called from
    # hundreds of sites; linking them by bare name would smear the
    # tracer's effects (none) over the whole call graph
    "span", "capture", "annotate",
}

#: receiver names (sans leading underscores) that denote a raw file handle;
#: exact match on purpose — ``wfile``/``rfile`` are socket streams, whose
#: bytes are network traffic, not block I/O in the paper's model
_FILE_RECEIVERS = {"f", "fh", "fp", "file"}

#: final call attributes that are raw file I/O when the receiver is a handle
_RAW_FILE_VERBS = {"seek", "read", "write", "truncate", "readinto"}


def dotted(node: ast.expr) -> str:
    """Best-effort dotted repr of a receiver/callee expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{dotted(node.value)}.{node.attr}"
    if isinstance(node, ast.Call):
        return f"{dotted(node.func)}(...)"
    if isinstance(node, ast.Subscript):
        return f"{dotted(node.value)}[...]"
    return "<expr>"


def _receiver_leaf(chain: str) -> str:
    """The last receiver component of a dotted call chain (or '')."""
    parts = chain.split(".")
    return parts[-2] if len(parts) >= 2 else ""


def _is_file_receiver(name: str) -> bool:
    return name.lstrip("_").lower() in _FILE_RECEIVERS


@dataclass(frozen=True)
class EffectSite:
    """One direct effect occurrence, pinned to a source location."""

    line: int
    col: int
    detail: str = ""


@dataclass(frozen=True)
class CallRef:
    """One call site: the dotted callee chain plus its location."""

    chain: str
    line: int
    col: int


@dataclass
class FunctionSummary:
    """Phase-1 output: one function's direct effects."""

    key: str                  # "<path>::Class.fn" / "<path>::fn" (nested: dotted)
    name: str
    cls: Optional[str]
    path: str
    line: int
    raw_io: List[EffectSite] = field(default_factory=list)
    charges: List[EffectSite] = field(default_factory=list)
    wal_appends: List[EffectSite] = field(default_factory=list)
    wal_syncs: List[EffectSite] = field(default_factory=list)
    epoch_begins: List[EffectSite] = field(default_factory=list)
    epoch_publishes: List[EffectSite] = field(default_factory=list)
    gen_bumps: List[EffectSite] = field(default_factory=list)
    destroys: List[EffectSite] = field(default_factory=list)
    self_assigns: List[EffectSite] = field(default_factory=list)  # detail=attr
    calls: List[CallRef] = field(default_factory=list)

    def direct_effects(self) -> Set[str]:
        """The boolean effect flags this function exhibits directly."""
        flags: Set[str] = set()
        if self.charges:
            flags.add("charge")
        if self.wal_syncs:
            flags.add("wal_sync")
        if self.epoch_publishes:
            flags.add("epoch_publish")
        if self.gen_bumps:
            flags.add("gen_bump")
        return flags


@dataclass
class ModuleArtifacts:
    """Phase-1 output per module: the wire-contract artifacts."""

    path: str
    #: role (``commands`` / ``error_codes`` / ``command_table`` /
    #: ``error_table``) -> (the strings its module-level literal declares —
    #: a dict's keys, else every string in it —, site)
    declared: Dict[str, Tuple[Set[str], EffectSite]] = field(default_factory=dict)
    #: string literals ``classify_error`` returns -> (codes, def site)
    classify_returns: Optional[Tuple[Set[str], EffectSite]] = None
    #: the ``Executor`` protocol's public members -> (names, class site)
    executor_protocol: Optional[Tuple[Set[str], EffectSite]] = None
    #: class with an ``Executor`` base -> ({public method names}, class site)
    executor_classes: Dict[str, Tuple[Set[str], EffectSite]] = field(
        default_factory=dict
    )
    #: class name (endswith "Client") -> ({public method names}, class site)
    client_classes: Dict[str, Tuple[Set[str], EffectSite]] = field(
        default_factory=dict
    )
    #: node-type names listed inside ``_node_registry`` -> (names, site)
    registry: Optional[Tuple[Set[str], EffectSite]] = None
    #: classes in this module subclassing ``AlgebraicQuery`` -> def line
    node_classes: Dict[str, int] = field(default_factory=dict)
    #: every name bound by an import statement anywhere in the module
    imported_names: Set[str] = field(default_factory=set)
    #: whether the module mentions the name ``COMMANDS`` at all (clientish
    #: classes outside such modules are not held to the wire contract)
    mentions_commands: bool = False


class _EffectCollector(ast.NodeVisitor):
    """One module's phase-1 walk: fills summaries + artifacts."""

    def __init__(self, program: "Program", path: str) -> None:
        self.program = program
        self.path = path
        self.artifacts = ModuleArtifacts(path)
        self._class_stack: List[str] = []
        self._fn_stack: List[FunctionSummary] = []

    # -- scopes ----------------------------------------------------------- #
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        base_names = {dotted(b).rsplit(".", 1)[-1] for b in node.bases}
        if not self._fn_stack:
            surface = (
                {
                    stmt.name
                    for stmt in node.body
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not stmt.name.startswith("_")
                },
                EffectSite(node.lineno, node.col_offset),
            )
            if WIRE_NAMES["node_base"] in base_names:
                self.artifacts.node_classes[node.name] = node.lineno
            if node.name == WIRE_NAMES["executor"]:
                self.artifacts.executor_protocol = surface
            elif WIRE_NAMES["executor"] in base_names:
                self.artifacts.executor_classes[node.name] = surface
            if node.name.endswith(WIRE_NAMES["client_suffix"]):
                self.artifacts.client_classes[node.name] = surface
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        cls = self._class_stack[-1] if self._class_stack else None
        if self._fn_stack:
            qual = f"{self._fn_stack[-1].key.split('::', 1)[1]}.{node.name}"
        elif cls is not None:
            qual = f"{cls}.{node.name}"
        else:
            qual = node.name
        summary = FunctionSummary(
            key=f"{self.path}::{qual}",
            name=node.name,
            cls=cls,
            path=self.path,
            line=node.lineno,
        )
        if self._fn_stack:
            # a nested def *may* be called by its parent (thread workers,
            # local helpers): a conservative edge, used only for coverage
            self._fn_stack[-1].calls.append(
                CallRef(summary.key, node.lineno, node.col_offset)
            )
        self.program.functions[summary.key] = summary
        if node.name == WIRE_NAMES["classify"] and not self._fn_stack:
            self._collect_classify_returns(node)
        if node.name == WIRE_NAMES["registry"] and not self._fn_stack:
            self._collect_registry(node)
        self._fn_stack.append(summary)
        self.generic_visit(node)
        self._fn_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # -- wire artifacts --------------------------------------------------- #
    def _declare(self, target: ast.expr, value: Optional[ast.expr], node: ast.stmt) -> None:
        """A module-level ``<artifact> = <literal>``: record its strings."""
        if self._fn_stack or not isinstance(target, ast.Name):
            return
        role = _DECLARED.get(target.id)
        if role is None or not isinstance(value, (ast.Tuple, ast.List, ast.Dict)):
            return
        scope: Iterable[Optional[ast.AST]] = (
            value.keys if isinstance(value, ast.Dict) else ast.walk(value)
        )
        self.artifacts.declared[role] = (
            {
                n.value for n in scope
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            },
            EffectSite(node.lineno, node.col_offset),
        )

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._declare(node.target, node.value, node)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        fn = self._fn_stack[-1] if self._fn_stack else None
        for target in node.targets:
            self._declare(target, node.value, node)
            if (
                fn is not None
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                fn.self_assigns.append(
                    EffectSite(node.lineno, node.col_offset, target.attr)
                )
                if target.attr == "generation":
                    fn.gen_bumps.append(EffectSite(node.lineno, node.col_offset))
        self.generic_visit(node)

    def _collect_classify_returns(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        codes: Set[str] = set()
        for stmt in ast.walk(node):
            if (
                isinstance(stmt, ast.Return)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            ):
                codes.add(stmt.value.value)
        self.artifacts.classify_returns = (
            codes, EffectSite(node.lineno, node.col_offset)
        )

    def _collect_registry(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        names: Set[str] = set()
        # only tuples *assigned to a variable* count (``types = (...)``) —
        # walking every Tuple would pick up annotation subscripts too
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign) and isinstance(
                stmt.value, (ast.Tuple, ast.List)
            ):
                for elt in stmt.value.elts:
                    if isinstance(elt, ast.Name):
                        names.add(elt.id)
        if names:
            self.artifacts.registry = (
                names, EffectSite(node.lineno, node.col_offset)
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.artifacts.imported_names.add(
                (alias.asname or alias.name).split(".", 1)[0]
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            self.artifacts.imported_names.add(alias.asname or alias.name)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id == WIRE_NAMES["commands"]:
            self.artifacts.mentions_commands = True

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == WIRE_NAMES["commands"]:
            self.artifacts.mentions_commands = True
        self.generic_visit(node)

    # -- effect sites ----------------------------------------------------- #
    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        fn = self._fn_stack[-1] if self._fn_stack else None
        if (
            fn is not None
            and isinstance(node.target, ast.Attribute)
            and node.target.attr == "generation"
        ):
            fn.gen_bumps.append(EffectSite(node.lineno, node.col_offset))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        fn = self._fn_stack[-1] if self._fn_stack else None
        if fn is not None:
            chain = dotted(node.func)
            final = chain.rsplit(".", 1)[-1]
            recv = _receiver_leaf(chain)
            site = EffectSite(node.lineno, node.col_offset, chain)
            fn.calls.append(CallRef(chain, node.lineno, node.col_offset))
            if final == "count" and "stats" in recv.lower():
                fn.charges.append(site)
            elif final == "measure":
                # ``with disk.measure():`` registers a sink for the scope —
                # accounting coverage by construction
                fn.charges.append(site)
            if chain == "os.fsync":
                fn.raw_io.append(site)
            elif final in _RAW_FILE_VERBS and _is_file_receiver(recv):
                fn.raw_io.append(site)
            if final == "append" and recv.lstrip("_").lower() == "wal":
                fn.wal_appends.append(site)
            if final == "sync_to":
                fn.wal_syncs.append(site)
            if final in ("begin", "publish") and "epoch" in recv.lower():
                if final == "begin":
                    fn.epoch_begins.append(site)
                else:
                    fn.epoch_publishes.append(site)
            if final == "invalidate":
                fn.gen_bumps.append(site)
            if final == "destroy":
                fn.destroys.append(site)
        self.generic_visit(node)


class Program:
    """The whole-program model: summaries, artifacts, call graph, closures."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionSummary] = {}
        self.modules: List[ModuleArtifacts] = []
        self._edges: Dict[str, Set[str]] = {}
        self._callers: Dict[str, Set[str]] = {}
        self._closure: Dict[str, Set[str]] = {}
        self._resolved = False

    # -- phase 1 ---------------------------------------------------------- #
    def add_module(self, tree: ast.Module, path: str) -> None:
        collector = _EffectCollector(self, path)
        collector.visit(tree)
        self.modules.append(collector.artifacts)
        self._resolved = False

    # -- phase 2 ---------------------------------------------------------- #
    def _resolve_call(self, fn: FunctionSummary, chain: str) -> Optional[str]:
        parts = [p for p in chain.split(".") if p and "(" not in p and "[" not in p]
        if not parts:
            return None
        method = parts[-1]
        if "::" in chain:  # already a summary key (nested-def edge)
            return chain if chain in self.functions else None
        if len(parts) == 2 and parts[0] == "self" and fn.cls is not None:
            # exactly ``self.m()`` — ``self._file.truncate()`` is a call on
            # the *attribute*, not on this class
            key = f"{fn.path}::{fn.cls}.{method}"
            if key in self.functions:
                return key
        if len(parts) == 1:
            key = f"{fn.path}::{method}"
            if key in self.functions:
                return key
            nested = f"{fn.path}::{fn.key.split('::', 1)[1]}.{method}"
            if nested in self.functions:
                return nested
        if method in _COMMON_METHODS:
            return None
        matches = self._by_name.get(method, [])
        if len(parts) == 1:
            # a bare name is a builtin or an import, never a method: the
            # builtin ``all(...)`` must not link to a class's ``all``
            matches = [m for m in matches if self.functions[m].cls is None]
        if len(matches) == 1:
            return matches[0]
        return None

    def resolve(self) -> None:
        """Build the call graph and the transitive effect closure (idempotent)."""
        if self._resolved:
            return
        self._by_name: Dict[str, List[str]] = {}
        for key, fn in self.functions.items():
            self._by_name.setdefault(fn.name, []).append(key)
        self._edges = {key: set() for key in self.functions}
        self._callers = {key: set() for key in self.functions}
        for key, fn in self.functions.items():
            for call in fn.calls:
                callee = self._resolve_call(fn, call.chain)
                if callee is not None and callee != key:
                    self._edges[key].add(callee)
                    self._callers[callee].add(key)
        # propagate boolean effects to a fixpoint (the graph has cycles)
        closure = {key: set(fn.direct_effects()) for key, fn in self.functions.items()}
        changed = True
        while changed:
            changed = False
            for key, callees in self._edges.items():
                mine = closure[key]
                before = len(mine)
                for callee in callees:
                    mine |= closure[callee]
                if len(mine) != before:
                    changed = True
        self._closure = closure
        self._resolved = True

    # -- queries ---------------------------------------------------------- #
    def reaches(self, key: str, effect: str) -> bool:
        """Whether ``key`` exhibits ``effect`` directly or transitively."""
        self.resolve()
        return effect in self._closure.get(key, set())

    def callers(self, key: str) -> Set[str]:
        """Resolved direct callers of ``key`` (empty when none are known)."""
        self.resolve()
        return self._callers.get(key, set())

    def callees(self, key: str) -> Set[str]:
        self.resolve()
        return self._edges.get(key, set())

    def stats(self) -> Dict[str, int]:
        """Summary sizes for the JSON report."""
        self.resolve()
        return {
            "functions": len(self.functions),
            "call_edges": sum(len(v) for v in self._edges.values()),
            "modules": len(self.modules),
        }
