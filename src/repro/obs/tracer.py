"""Structured tracing: nestable spans over the request lifecycle.

A :class:`Span` is one bracketed scope of work — a planner lookup, a plan
execution, a WAL append, one shard's leg of a scatter — carrying a name,
free-form attributes, wall time, and (when the site hands over the
engine's :class:`~repro.io.counters.IOStats`) the exact I/O delta of the
scope, measured through the same per-thread ``attributed()`` sink
machinery that powers per-session accounting.  Because sinks nest, a
parent span's I/O count always covers its children's: the span tree's
I/Os *compose*, which is what lets ``repro trace`` assert that the
summed child I/Os equal the request's total and that the root's
``actual - bound`` residual matches the planner's ``BOUND_SLACK`` check.

Cost model — the tracer must be **near-zero when disabled** because it
brackets the hottest paths (the commit kernel, the planner):

* Disabled (the default): every instrumented site costs one module-global
  flag test plus one shared no-op context manager — no allocation, no
  lock, no clock read.  This mirrors the ``lockdep.ACTIVE`` pattern the
  runtime witness uses.
* Enabled: each span costs two clock reads, one small object, and (with
  ``stats``) one sink registration.  Spans are created per *request
  phase*, never per record, so even enabled tracing stays out of the
  per-record streaming loops.

Thread safety: the span stack is thread-local; spans that overlap
without nesting (the router's scatter legs, each open from its send to
its reply) attach to an explicit ``parent=``.  Span exit removes the
span from the stack it was pushed onto *by identity*, so a generator
abandoned mid-stream (``Limit`` cutting a residual scan short) closes
its span late without corrupting the nesting of the spans around it.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

from repro.io.counters import IOStats

__all__ = [
    "ACTIVE",
    "NullSpan",
    "Span",
    "Tracer",
    "TRACER",
    "current_span",
    "disable",
    "enable",
    "is_enabled",
    "render_span_tree",
    "span",
]

#: module-global fast-path flag: instrumented sites test this (or call
#: :func:`span`, which tests it first) before touching any tracer state
ACTIVE = False

#: process-wide bypass for overhead measurement: when set, :func:`span`
#: returns the shared no-op before even reading ``ACTIVE`` — the closest
#: measurable stand-in for "the instrumentation was never added"
BYPASS = False


class NullSpan:
    """The shared no-op span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None

    def annotate(self, **attrs: Any) -> None:
        return None

    @property
    def ios(self) -> int:
        return 0


_NULL = NullSpan()


class Span:
    """One live traced scope (use as a context manager)."""

    __slots__ = (
        "name", "attrs", "parent", "children", "wall_ms", "io",
        "_t0", "_stack", "_stats", "_sink_cm", "_closed",
    )

    def __init__(
        self,
        name: str,
        attrs: Dict[str, Any],
        parent: Optional["Span"],
        stats: Optional[IOStats],
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.parent = parent
        self.children: List["Span"] = []
        self.wall_ms: float = 0.0
        #: the scope's I/O delta (an IOStats sink) — zeros without ``stats``
        self.io = IOStats()
        self._t0 = 0.0
        self._stack: Optional[List["Span"]] = None
        self._stats = stats
        self._sink_cm: Any = None
        self._closed = False

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Span":
        if self._stats is not None:
            self._sink_cm = self._stats.attributed(self.io)
            self._sink_cm.__enter__()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._closed:
            return
        self._closed = True
        self.wall_ms = (time.perf_counter() - self._t0) * 1e3
        # sink registration is thread-local: a GC'd abandoned generator may
        # close a span from another thread, which finds nothing of this
        # span's registered there (its sink entry dies with the request
        # thread's scope anyway)
        if self._sink_cm is not None:
            self._sink_cm.__exit__(None, None, None)
        self._sink_cm = None
        stack = self._stack
        if stack is not None:
            for i in range(len(stack) - 1, -1, -1):
                if stack[i] is self:
                    del stack[i]
                    break
        self._stack = None
        TRACER._finish(self)

    # ------------------------------------------------------------------ #
    def annotate(self, **attrs: Any) -> None:
        """Attach/overwrite attributes after the fact (bounds, residuals)."""
        self.attrs.update(attrs)

    @property
    def ios(self) -> int:
        return self.io.total

    def as_dict(self) -> Dict[str, Any]:
        """The span subtree as plain data (trace artifacts, slow-query log)."""
        return {
            "name": self.name,
            "wall_ms": round(self.wall_ms, 4),
            "ios": self.io.total,
            "io": self.io.as_dict(),
            "attrs": dict(self.attrs),
            "children": [child.as_dict() for child in self.children],
        }


class Tracer:
    """The process tracer: thread-local span stacks + a finished-root ring."""

    #: how many finished root spans the ring keeps when nobody captures
    RING_CAPACITY = 256

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ring: List[Span] = []
        self.spans_started = 0
        self.roots_finished = 0

    # ------------------------------------------------------------------ #
    # span creation
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(
        self,
        name: str,
        *,
        stats: Optional[IOStats] = None,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span under the current (or an explicit) parent."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sp = Span(name, attrs, parent, stats)
        if parent is not None:
            parent.children.append(sp)  # list.append: atomic under the GIL
        sp._stack = stack
        stack.append(sp)
        with self._lock:
            self.spans_started += 1
        return sp

    def current(self) -> Optional[Span]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    # ------------------------------------------------------------------ #
    # finished roots
    # ------------------------------------------------------------------ #
    def _finish(self, sp: Span) -> None:
        if sp.parent is not None:
            return
        collector = getattr(self._local, "collector", None)
        if collector is not None:
            collector.append(sp)
            return
        with self._lock:
            self.roots_finished += 1
            self._ring.append(sp)
            if len(self._ring) > self.RING_CAPACITY:
                del self._ring[: len(self._ring) - self.RING_CAPACITY]

    class _Capture:
        """Collect this thread's finished root spans for a scope."""

        def __init__(self, tracer: "Tracer") -> None:
            self._tracer = tracer
            self.roots: List[Span] = []

        def __enter__(self) -> "Tracer._Capture":
            self._tracer._local.collector = self.roots
            return self

        def __exit__(self, *exc: Any) -> None:
            self._tracer._local.collector = None

    def capture(self) -> "Tracer._Capture":
        """``with tracer.capture() as cap:`` — ``cap.roots`` afterwards."""
        return Tracer._Capture(self)

    def recent_roots(self, limit: int = 32) -> List[Span]:
        with self._lock:
            return list(self._ring[-limit:])

    def stats_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "enabled": ACTIVE,
                "spans_started": self.spans_started,
                "roots_finished": self.roots_finished,
                "ring_depth": len(self._ring),
            }


#: the process tracer every instrumented site shares
TRACER = Tracer()


def span(
    name: str,
    *,
    stats: Optional[IOStats] = None,
    parent: Optional[Span] = None,
    **attrs: Any,
) -> Any:
    """The instrumentation entry point: a no-op unless tracing is enabled."""
    if BYPASS or not ACTIVE:
        return _NULL
    return TRACER.span(name, stats=stats, parent=parent, **attrs)


def current_span() -> Optional[Span]:
    """The innermost open span on this thread (None when disabled/idle)."""
    if not ACTIVE:
        return None
    return TRACER.current()


def enable() -> None:
    global ACTIVE
    ACTIVE = True


def disable() -> None:
    global ACTIVE
    ACTIVE = False


def is_enabled() -> bool:
    return ACTIVE


# --------------------------------------------------------------------------- #
# rendering
# --------------------------------------------------------------------------- #
def render_span_tree(sp: Span, *, indent: str = "") -> List[str]:
    """Pretty-print one span subtree (what ``repro trace`` shows)."""
    attrs = " ".join(
        f"{key}={value!r}" for key, value in sorted(sp.attrs.items())
    )
    line = f"{indent}{sp.name}  {sp.wall_ms:8.3f}ms  ios={sp.io.total}"
    if attrs:
        line += f"  [{attrs}]"
    lines = [line]
    for child in sp.children:
        lines.extend(render_span_tree(child, indent=indent + "  "))
    return lines
