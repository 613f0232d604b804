"""Static concurrency linter: an AST pass over the engine's lock surface.

The walker extracts a *lock-acquisition graph* from the syntactic forms the
codebase actually uses —

* ``with self._lock:`` / ``with wal._sync_lock:`` (plain mutex/leaf locks),
* ``lock.acquire()`` … ``lock.release()`` pairs inside one function,
* RWLock latches: ``latch.acquire_read()`` / ``acquire_write()`` /
  ``with latch.read():`` / ``.write()``,
* the engine turns: ``with engine.write_turn():`` (an engine-wide lock) and
  ``with engine.read_turn(name) as (idx, stats):`` (a snapshot scope),

and replays every acquisition, call and augmented assignment through the
rule catalog in :mod:`repro.analysis.lintrules`.  Lock analysis is
**within-function and syntactic**: a lock acquired in one function and a
blocking call in another are connected only by the runtime witness
(:mod:`repro.analysis.lockdep`), never by this pass — that division is what
keeps the linter free of false positives on cross-object composition
(e.g. the buffer pool calling ``disk.write`` under its own leaf lock).

The *protocol* rules, by contrast, are **interprocedural**: every linted
file also feeds the effect-summary model of
:mod:`repro.analysis.effects`, and :meth:`Linter.finish` runs the
phase-2 rules (commit-protocol, uncounted-io, stale-plan-cache,
wire-exhaustiveness) over the resolved call graph, so an invariant
satisfied inside a helper function still counts and one violated across
a call chain is still caught.

Suppressions: ``# lint: allow(rule-name)`` on the offending line or on a
comment-only line directly above it.  Suppressed findings are counted in
the report so a review can audit them.

Token naming deliberately qualifies lock attributes by their owner
(``IOStats._lock`` vs ``BufferManager._lock``) so two classes that both
name their private lock ``_lock`` never produce a bogus cycle edge.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.effects import Program, dotted as _dotted
from repro.analysis.lintrules import (
    Context,
    Finding,
    LockToken,
    NONLOCK_CM,
    RANK_MUTEX,
    Rule,
    all_rules,
    classify_lock,
    latch_token,
    rule_catalog,
)

_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\(\s*([a-z0-9_,\s-]+?)\s*\)")

#: substrings that mark an attribute / name as a lock object
_LOCKY = ("lock", "mutex", "latch", "cond")
#: with-item method calls that acquire an RWLock latch
_LATCH_CM = {"read", "write"}
_LATCH_ACQUIRE = {"acquire_read": "read", "acquire_write": "write"}
_LATCH_RELEASE = {"release_read", "release_write"}


def _is_locky(name: str) -> bool:
    low = name.lower()
    return any(part in low for part in _LOCKY)


def _scan_suppressions(source: str) -> Tuple[Dict[int, Set[str]], Set[int]]:
    """``{lineno: {rule, ...}}`` plus the set of comment-only line numbers."""
    allows: Dict[int, Set[str]] = {}
    comment_only: Set[int] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("#"):
            comment_only.add(lineno)
        match = _ALLOW_RE.search(line)
        if match:
            rules = {part.strip() for part in match.group(1).split(",")}
            allows[lineno] = {r for r in rules if r}
    return allows, comment_only


def _scan_thread_targets(tree: ast.Module) -> Set[str]:
    """Function names passed as ``Thread(target=...)`` anywhere in the module."""
    targets: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = _dotted(node.func)
        if callee.rsplit(".", 1)[-1] != "Thread":
            continue
        for kw in node.keywords:
            if kw.arg == "target":
                if isinstance(kw.value, ast.Name):
                    targets.add(kw.value.id)
                elif isinstance(kw.value, ast.Attribute):
                    targets.add(kw.value.attr)
    return targets


def _scan_shared_decls(tree: ast.Module) -> Set[str]:
    """Fields listed in class-level ``_shared = ("a", "b")`` declarations."""
    fields: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if not isinstance(stmt, ast.Assign):
                continue
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            if "_shared" not in names:
                continue
            if isinstance(stmt.value, (ast.Tuple, ast.List)):
                for elt in stmt.value.elts:
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                        fields.add(elt.value)
    return fields


class _Walker(ast.NodeVisitor):
    """One file's traversal: scope tracking + held-lock bookkeeping."""

    def __init__(self, ctx: Context, rules: Sequence[Rule]) -> None:
        self.ctx = ctx
        self.rules = rules

    # ------------------------------------------------------------------ #
    # scopes
    # ------------------------------------------------------------------ #
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        prev = self.ctx.current_class
        self.ctx.current_class = node.name
        self.generic_visit(node)
        self.ctx.current_class = prev

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        ctx = self.ctx
        prev_fn, prev_held, prev_locals, prev_rt = (
            ctx.current_function, ctx.held, ctx.local_names, ctx.read_turn_depth,
        )
        ctx.current_function = node.name
        ctx.held = []
        ctx.read_turn_depth = 0
        ctx.local_names = self._bound_names(node)
        for stmt in node.body:
            self.visit(stmt)
        ctx.current_function = prev_fn
        ctx.held = prev_held
        ctx.local_names = prev_locals
        ctx.read_turn_depth = prev_rt

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    @staticmethod
    def _bound_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> Set[str]:
        """Names *assigned* in the body (excluding parameters): a list built
        locally is private; a parameter or closure cell is shared."""
        bound: Set[str] = set()
        for stmt in ast.walk(fn):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            bound.add(name.id)
            elif isinstance(stmt, (ast.AnnAssign, ast.For, ast.AsyncFor)):
                target = stmt.target
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        bound.add(name.id)
        return bound

    # ------------------------------------------------------------------ #
    # lock classification
    # ------------------------------------------------------------------ #
    def _owner_of(self, receiver: ast.expr) -> str:
        if isinstance(receiver, ast.Name) and receiver.id == "self":
            return self.ctx.current_class
        return _dotted(receiver)

    def _with_item_token(self, item: ast.expr) -> Optional[LockToken]:
        """The lock token a ``with`` item acquires, if it is a lock at all."""
        if isinstance(item, ast.Attribute) and _is_locky(item.attr):
            return classify_lock(self._owner_of(item.value), item.attr)
        if isinstance(item, ast.Name) and _is_locky(item.id):
            return LockToken(item.id, rank=3)
        if isinstance(item, ast.Call) and isinstance(item.func, ast.Attribute):
            method = item.func.attr
            if method in NONLOCK_CM:
                # Tracer.span(...) is instrumentation, not a lock — no
                # token, however locky the receiver happens to be named
                return None
            recv = _dotted(item.func.value)
            if method == "write_turn":
                return LockToken(f"{recv}.write_turn", RANK_MUTEX)
            if method in _LATCH_CM and _is_locky(recv):
                return latch_token(recv)
        return None

    # ------------------------------------------------------------------ #
    # acquisition / release events
    # ------------------------------------------------------------------ #
    def _acquire(self, token: LockToken, node: ast.AST) -> None:
        for rule in self.rules:
            rule.on_acquire(self.ctx, token, node)
        self.ctx.held.append(token)

    def _release(self, key: str) -> None:
        held = self.ctx.held
        for i in range(len(held) - 1, -1, -1):
            if held[i].key == key:
                del held[i]
                return

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        ctx = self.ctx
        pushed: List[LockToken] = []
        read_turns = 0
        for item in node.items:
            expr = item.context_expr
            call_attr = (
                expr.func.attr
                if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute)
                else None
            )
            if call_attr == "read_turn":
                ctx.read_turn_depth += 1
                read_turns += 1
                token = LockToken(f"latch:{_dotted(expr.func.value)}.read_turn", 1)
                self._acquire(token, expr)
                pushed.append(token)
                continue
            token_or_none = self._with_item_token(expr)
            if token_or_none is not None:
                self._acquire(token_or_none, expr)
                pushed.append(token_or_none)
            else:
                # not a lock: still walk the expression (calls inside it)
                self.visit(expr)
        for stmt in node.body:
            self.visit(stmt)
        for token in pushed:
            self._release(token.key)
        ctx.read_turn_depth -= read_turns

    # ------------------------------------------------------------------ #
    # calls and mutations
    # ------------------------------------------------------------------ #
    def visit_Call(self, node: ast.Call) -> None:
        chain = _dotted(node.func)
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            recv = node.func.value
            recv_repr = _dotted(recv)
            if method == "acquire" and _is_locky(recv_repr):
                token = (
                    classify_lock(self._owner_of(recv.value), recv.attr)
                    if isinstance(recv, ast.Attribute)
                    else LockToken(recv_repr, rank=3)
                )
                self._acquire(token, node)
                self.generic_visit(node)
                return
            if method == "release" and _is_locky(recv_repr):
                token = (
                    classify_lock(self._owner_of(recv.value), recv.attr)
                    if isinstance(recv, ast.Attribute)
                    else LockToken(recv_repr, rank=3)
                )
                self._release(token.key)
                self.generic_visit(node)
                return
            if method in _LATCH_ACQUIRE and _is_locky(recv_repr):
                self._acquire(latch_token(recv_repr), node)
                self.generic_visit(node)
                return
            if method in _LATCH_RELEASE and _is_locky(recv_repr):
                self._release(latch_token(recv_repr).key)
                self.generic_visit(node)
                return
        for rule in self.rules:
            rule.on_call(self.ctx, node, chain)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        for rule in self.rules:
            rule.on_augassign(self.ctx, node)
        self.generic_visit(node)


class Linter:
    """Run the rule catalog over sources; collect findings + the lock graph."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        self.rules: List[Rule] = list(rules) if rules is not None else all_rules()
        self.findings: List[Finding] = []
        self.suppressed: List[Finding] = []
        self.files_checked = 0
        #: the whole-program effect model (phase 1 filled per file; phase 2
        #: resolved once in :meth:`finish`)
        self.program = Program()
        self._allows: Dict[str, Dict[int, Set[str]]] = {}
        self._comment_only: Dict[str, Set[int]] = {}
        self._finalized = False

    # ------------------------------------------------------------------ #
    def lint_source(self, source: str, path: str) -> None:
        tree = ast.parse(source, filename=path)
        allows, comment_only = _scan_suppressions(source)
        self._allows[path] = allows
        self._comment_only[path] = comment_only
        ctx = Context(
            path,
            lambda line, col, rule, msg: self._emit(
                Finding(path, line, col, rule, msg)
            ),
        )
        ctx.thread_targets = _scan_thread_targets(tree)
        ctx.shared_fields |= _scan_shared_decls(tree)
        _Walker(ctx, self.rules).visit(tree)
        self.program.add_module(tree, path)
        self.files_checked += 1

    def lint_paths(self, paths: Iterable[Path]) -> None:
        for file in sorted(self._expand(paths)):
            self.lint_source(file.read_text(encoding="utf-8"), str(file))

    @staticmethod
    def _expand(paths: Iterable[Path]) -> Set[Path]:
        files: Set[Path] = set()
        for path in paths:
            if path.is_dir():
                files |= {
                    p for p in path.rglob("*.py") if "__pycache__" not in p.parts
                }
            elif path.suffix == ".py":
                files.add(path)
        return files

    # ------------------------------------------------------------------ #
    def _suppressed(self, finding: Finding) -> bool:
        allows = self._allows.get(finding.path, {})
        line_rules = allows.get(finding.line, set())
        if finding.rule in line_rules:
            return True
        prev = finding.line - 1
        if prev in self._comment_only.get(finding.path, set()):
            if finding.rule in allows.get(prev, set()):
                return True
        return False

    def _emit(self, finding: Finding) -> None:
        if self._suppressed(finding):
            self.suppressed.append(finding)
        else:
            self.findings.append(finding)

    def finish(self) -> List[Finding]:
        """Run the phase-2 program rules + cross-file finalizers; idempotent."""
        if not self._finalized:
            self._finalized = True
            self.program.resolve()
            for rule in self.rules:
                rule.finalize_program(self.program, self._emit)
                rule.finalize(self._emit)
        self.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return self.findings

    # ------------------------------------------------------------------ #
    def lock_edges(self) -> List[Tuple[str, str]]:
        """The static acquisition graph (from the lock-order rule's state)."""
        for rule in self.rules:
            edges = getattr(rule, "edges", None)
            if isinstance(edges, dict):
                return sorted(edges)
        return []

    def report(self) -> Dict[str, object]:
        self.finish()
        return {
            "files_checked": self.files_checked,
            "findings": [f.as_dict() for f in self.findings],
            "suppressed": [f.as_dict() for f in self.suppressed],
            "lock_graph": [list(edge) for edge in self.lock_edges()],
            "effects": self.program.stats(),
            "rules": rule_catalog(),
        }


def lint_paths(paths: Sequence[Path]) -> Linter:
    """Convenience: lint ``paths`` and return the finished :class:`Linter`."""
    linter = Linter()
    linter.lint_paths(paths)
    linter.finish()
    return linter


def render_report(linter: Linter) -> str:
    """Human-readable summary (what ``repro lint`` prints)."""
    lines = [finding.render() for finding in linter.finish()]
    lines.append(
        f"checked {linter.files_checked} file(s): "
        f"{len(linter.findings)} finding(s), "
        f"{len(linter.suppressed)} suppressed, "
        f"{len(linter.lock_edges())} lock-order edge(s)"
    )
    return "\n".join(lines)


def write_json_report(linter: Linter, out: Path) -> None:
    out.write_text(json.dumps(linter.report(), indent=2) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------- #
# the seeded fixture corpus (the linter's own regression suite)
# --------------------------------------------------------------------------- #
_SEEDED_RE = re.compile(r"#\s*seeded:\s*([a-z0-9-]+)")


def check_fixture_corpus(root: Path) -> Dict[str, object]:
    """Lint every fixture file and match findings against ``# seeded:`` marks.

    Each deliberately-bad line in the corpus carries a trailing
    ``# seeded: <rule>`` comment; the linter must flag *exactly* those
    lines with those rules.  Every file is linted with a fresh rule set so
    one fixture's lock graph cannot leak edges into another's.  Returns
    ``{"expected", "flagged", "missed", "unexpected", "ok"}`` where the
    middle three are lists of ``(path, line, rule)`` triples.
    """
    expected: Set[Tuple[str, int, str]] = set()
    flagged: Set[Tuple[str, int, str]] = set()
    for file in sorted(root.rglob("*.py")):
        if "__pycache__" in file.parts:
            continue
        source = file.read_text(encoding="utf-8")
        for lineno, line in enumerate(source.splitlines(), start=1):
            for match in _SEEDED_RE.finditer(line):
                expected.add((str(file), lineno, match.group(1)))
        linter = Linter()
        linter.lint_source(source, str(file))
        for finding in linter.finish():
            flagged.add((finding.path, finding.line, finding.rule))
    missed = sorted(expected - flagged)
    unexpected = sorted(flagged - expected)
    return {
        "expected": sorted(expected),
        "flagged": sorted(flagged),
        "missed": missed,
        "unexpected": unexpected,
        "ok": not missed and not unexpected,
    }
