"""The class hierarchy model and the ``label-class`` procedure.

Example 2.3 of the paper: a ``Person`` class with children ``Professor`` and
``Student``, and ``Assistant-Professor`` below ``Professor``.  Every object
belongs to exactly one class; the *extent* of a class is the set of its own
objects and the *full extent* additionally includes the objects of every
descendant class.

Proposition 2.5 reduces class indexing to two-dimensional range searching by
attaching to every class a rational interval (computed by ``label-class``,
Fig. 4) such that a class's interval contains exactly the intervals of its
descendants.  The class *value* (the left end of its interval) becomes the
static dimension of the 2-D search.

Intervals are represented as :class:`fractions.Fraction` so arbitrarily deep
hierarchies cannot collide due to floating-point rounding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.values import check_value, domain_record

#: monotone source of record uids; every constructed object gets a fresh one
_OBJECT_UIDS = itertools.count()


@domain_record(b"C", ("key", "class_name", "payload", "uid"))
@dataclass(frozen=True)
class ClassObject:
    """An object stored in the database.

    Attributes
    ----------
    key:
        The indexed attribute value (the "salary" of Example 2.4).
    class_name:
        The class the object belongs to (its extent).
    payload:
        Arbitrary application data carried along (not indexed).
    uid:
        Process-unique, serialization-stable record identity (used by the
        query planner's union deduplication; not part of equality).
    """

    key: Any
    class_name: str
    payload: Any = field(default=None, compare=False)
    uid: int = field(
        default_factory=lambda: next(_OBJECT_UIDS), compare=False, repr=False
    )

    def __post_init__(self) -> None:
        check_value(self.key, "a key", finite=False)
        check_value(self.class_name, "a class name")
        check_value(self.payload)


class ClassHierarchy:
    """A static forest of classes (the class/subclass relationship).

    The hierarchy must be fully built before any index is constructed over
    it — the paper's structures all assume a static class/subclass
    relationship (Section 1.3) — but objects may be inserted afterwards.
    """

    def __init__(self) -> None:
        self._parent: Dict[str, Optional[str]] = {}
        self._children: Dict[str, List[str]] = {}
        self._labels: Optional[Dict[str, Tuple[Fraction, Fraction]]] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_class(self, name: str, parent: Optional[str] = None) -> None:
        """Add a class, optionally as a child of an existing class."""
        if name in self._parent:
            raise ValueError(f"class {name!r} already exists")
        if parent is not None and parent not in self._parent:
            raise KeyError(f"unknown parent class {parent!r}")
        self._parent[name] = parent
        self._children[name] = []
        if parent is not None:
            self._children[parent].append(name)
        self._labels = None  # labels must be recomputed

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[str, Optional[str]]]) -> "ClassHierarchy":
        """Build from ``(class, parent)`` pairs; parents must come first."""
        hierarchy = cls()
        for name, parent in edges:
            hierarchy.add_class(name, parent)
        return hierarchy

    def edges(self) -> List[List[Optional[str]]]:
        """The ``[class, parent]`` pairs in the order the classes were added:
        that order fixes the labels, so :meth:`from_edges` rebuilds a
        hierarchy labelled exactly like this one."""
        return [[name, parent] for name, parent in self._parent.items()]

    # ------------------------------------------------------------------ #
    # structure queries
    # ------------------------------------------------------------------ #
    def __contains__(self, name: str) -> bool:
        return name in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def classes(self) -> List[str]:
        return list(self._parent.keys())

    def roots(self) -> List[str]:
        return [c for c, p in self._parent.items() if p is None]

    def parent(self, name: str) -> Optional[str]:
        return self._parent[name]

    def children(self, name: str) -> List[str]:
        return list(self._children[name])

    def is_leaf(self, name: str) -> bool:
        return not self._children[name]

    def ancestors(self, name: str) -> List[str]:
        """Ancestors from the parent up to the root (exclusive of ``name``)."""
        out = []
        current = self._parent[name]
        while current is not None:
            out.append(current)
            current = self._parent[current]
        return out

    def descendants(self, name: str) -> List[str]:
        """The class itself and every class below it (the *full extent* classes)."""
        out = []
        stack = [name]
        while stack:
            current = stack.pop()
            out.append(current)
            stack.extend(self._children[current])
        return out

    def subtree_size(self, name: str) -> int:
        return len(self.descendants(name))

    def depth(self, name: str) -> int:
        """Distance from the root (roots have depth 0)."""
        return len(self.ancestors(name))

    def max_depth(self) -> int:
        return max((self.depth(c) for c in self.classes()), default=0)

    def iter_topological(self) -> Iterator[str]:
        """Parents before children."""
        for root in self.roots():
            stack = [root]
            while stack:
                current = stack.pop()
                yield current
                stack.extend(reversed(self._children[current]))

    def validate(self) -> None:
        """Check the forest structure (no cycles, single parent)."""
        seen = set()
        for root in self.roots():
            stack = [root]
            while stack:
                current = stack.pop()
                if current in seen:
                    raise ValueError(f"cycle or shared node detected at {current!r}")
                seen.add(current)
                stack.extend(self._children[current])
        if len(seen) != len(self._parent):
            unreachable = set(self._parent) - seen
            raise ValueError(f"classes not reachable from any root: {sorted(unreachable)}")

    # ------------------------------------------------------------------ #
    # label-class (Proposition 2.5, Fig. 4)
    # ------------------------------------------------------------------ #
    def labels(self) -> Dict[str, Tuple[Fraction, Fraction]]:
        """The half-open interval ``[low, high)`` assigned to every class.

        The root(s) of the forest divide ``[0, 1)`` evenly; a class with
        range ``[lo, hi)`` keeps value ``lo`` for its own extent and divides
        the remainder of its range evenly among its ``k`` children, handing
        child ``i`` the sub-range
        ``[lo + (i+1)(hi-lo)/(k+1), lo + (i+2)(hi-lo)/(k+1))``.
        A class's range then contains exactly the ranges of its descendants.
        """
        if self._labels is None:
            labels: Dict[str, Tuple[Fraction, Fraction]] = {}
            roots = self.roots()
            k = len(roots)
            for i, root in enumerate(roots):
                low = Fraction(i, k) if k else Fraction(0)
                high = Fraction(i + 1, k) if k else Fraction(1)
                self._label_class(root, low, high, labels)
            self._labels = labels
        return dict(self._labels)

    def _label_class(
        self,
        name: str,
        low: Fraction,
        high: Fraction,
        labels: Dict[str, Tuple[Fraction, Fraction]],
    ) -> None:
        labels[name] = (low, high)
        children = self._children[name]
        if not children:
            return
        k = len(children)
        width = (high - low) / (k + 1)
        for i, child in enumerate(children):
            child_low = low + width * (i + 1)
            child_high = low + width * (i + 2)
            self._label_class(child, child_low, child_high, labels)

    def class_value(self, name: str) -> Fraction:
        """The class attribute value assigned by ``label-class`` (the range's left end)."""
        return self.labels()[name][0]

    def class_range(self, name: str) -> Tuple[Fraction, Fraction]:
        """The half-open range covering the class and all its descendants."""
        return self.labels()[name]

    def classes_by_value(self) -> List[str]:
        """Classes sorted by their ``label-class`` value (the 1-D embedding)."""
        labels = self.labels()
        return sorted(self.classes(), key=lambda c: labels[c][0])


def people_hierarchy() -> ClassHierarchy:
    """The four-class hierarchy of Example 2.3 (used in tests and examples)."""
    hierarchy = ClassHierarchy()
    hierarchy.add_class("Person")
    hierarchy.add_class("Professor", "Person")
    hierarchy.add_class("Student", "Person")
    hierarchy.add_class("AssistantProfessor", "Professor")
    return hierarchy
