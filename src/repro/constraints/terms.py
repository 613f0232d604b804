"""Constraints and generalized tuples over the theory of rational order.

The constraint language is the one used throughout Section 2.1 of the
paper: atomic constraints compare a variable with a constant or with another
variable using ``<, <=, =, >=, >``.  A :class:`GeneralizedTuple` is a finite
conjunction of such constraints over at most ``k`` variables and finitely
represents a (possibly infinite) set of rational ``k``-tuples.

Satisfiability and variable projections are decided by constraint
propagation over the order graph, which is sound and complete for this
theory: a conjunction of dense-order constraints is unsatisfiable exactly
when the derived relation forces ``u < u`` for some term or orders two
constants against their numeric order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Number
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from repro.values import check_value, domain_record

UNBOUNDED_LOW = -math.inf
UNBOUNDED_HIGH = math.inf

_OPS = ("<", "<=", "=", ">=", ">")


@domain_record(b"X", ("name",))
@dataclass(frozen=True)
class Variable:
    """A named variable ranging over the rationals."""

    name: str

    def __post_init__(self) -> None:
        check_value(self.name, "a variable name")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def var(name: str) -> Variable:
    """Convenience constructor for a :class:`Variable`."""
    return Variable(name)


Term = Union[Variable, Number]


@domain_record(b"K", ("lhs", "op", "rhs"))
@dataclass(frozen=True)
class Constraint:
    """An atomic order constraint ``lhs op rhs``.

    ``lhs`` must be a variable; ``rhs`` is a variable or a numeric constant.
    """

    lhs: Variable
    op: str
    rhs: Term

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unsupported comparison operator {self.op!r}")
        if not isinstance(self.lhs, Variable):
            raise TypeError("the left-hand side of a constraint must be a variable")
        if not isinstance(self.rhs, (Variable, Number)):
            raise TypeError("the right-hand side must be a variable or a number")
        check_value(self.rhs, "a constant", finite=False)

    # -- helpers ---------------------------------------------------------- #
    def variables(self) -> FrozenSet[str]:
        names = {self.lhs.name}
        if isinstance(self.rhs, Variable):
            names.add(self.rhs.name)
        return frozenset(names)

    def evaluate(self, assignment: Dict[str, Any]) -> bool:
        """Evaluate under a (total) variable assignment."""
        left = assignment[self.lhs.name]
        right = assignment[self.rhs.name] if isinstance(self.rhs, Variable) else self.rhs
        if self.op == "<":
            return left < right
        if self.op == "<=":
            return left <= right
        if self.op == "=":
            return left == right
        if self.op == ">=":
            return left >= right
        return left > right

    def normalized(self) -> List[Tuple[Term, Term, bool]]:
        """Rewrite as a list of ``(smaller, larger, strict)`` order facts."""
        if self.op == "<":
            return [(self.lhs, self.rhs, True)]
        if self.op == "<=":
            return [(self.lhs, self.rhs, False)]
        if self.op == "=":
            return [(self.lhs, self.rhs, False), (self.rhs, self.lhs, False)]
        if self.op == ">=":
            return [(self.rhs, self.lhs, False)]
        return [(self.rhs, self.lhs, True)]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.lhs} {self.op} {self.rhs}"


@domain_record(b"G", ("constraints", "name"))
class GeneralizedTuple:
    """A conjunction of order constraints (a generalized k-tuple).

    Two tuples are equal when their constraints and names are: a copy
    decoded from a page equals the tuple that was written.
    """

    #: the order-graph closure, computed on first use (not part of the value)
    _closure: Optional[Dict[Tuple[str, str], bool]] = None

    def __init__(self, constraints: Iterable[Constraint], name: Any = None) -> None:
        self.constraints: Tuple[Constraint, ...] = tuple(constraints)
        self.name = name
        check_value(self.constraints, "a constraint list")
        check_value(name, "a tuple name")

    def __eq__(self, other: Any) -> bool:
        if type(other) is not GeneralizedTuple:
            return NotImplemented
        return self.constraints == other.constraints and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.constraints)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def conjoin(self, *constraints: Constraint) -> "GeneralizedTuple":
        """A new tuple with extra constraints added (used by range restriction)."""
        return GeneralizedTuple(self.constraints + tuple(constraints), name=self.name)

    def variables(self) -> FrozenSet[str]:
        names: set = set()
        for c in self.constraints:
            names |= c.variables()
        return frozenset(names)

    @property
    def arity(self) -> int:
        return len(self.variables())

    # ------------------------------------------------------------------ #
    # order-graph closure
    # ------------------------------------------------------------------ #
    def _terms_and_edges(self):
        """Terms (variables + constants) and <=-edges with strictness flags."""
        terms: Dict[str, Term] = {}
        edges: Dict[Tuple[str, str], bool] = {}

        def key(term: Term) -> str:
            if isinstance(term, Variable):
                terms[f"v:{term.name}"] = term
                return f"v:{term.name}"
            terms[f"c:{float(term)!r}"] = term
            return f"c:{float(term)!r}"

        def add_edge(a: str, b: str, strict: bool) -> None:
            previous = edges.get((a, b))
            edges[(a, b)] = strict or (previous or False)

        constants: List[Tuple[str, float]] = []
        for constraint in self.constraints:
            for smaller, larger, strict in constraint.normalized():
                add_edge(key(smaller), key(larger), strict)
        for name, term in list(terms.items()):
            if name.startswith("c:"):
                constants.append((name, float(term)))
        # known numeric order among the constants that appear
        constants.sort(key=lambda item: item[1])
        for i in range(len(constants) - 1):
            a_name, a_val = constants[i]
            b_name, b_val = constants[i + 1]
            add_edge(a_name, b_name, a_val < b_val)
        return terms, edges

    def _compute_closure(self) -> Dict[Tuple[str, str], bool]:
        """Transitive closure of the <= relation, remembering strictness."""
        if self._closure is not None:
            return self._closure
        terms, edges = self._terms_and_edges()
        nodes = list(terms.keys())
        reach: Dict[Tuple[str, str], bool] = dict(edges)
        for k in nodes:
            for i in nodes:
                if (i, k) not in reach:
                    continue
                for j in nodes:
                    if (k, j) not in reach:
                        continue
                    strict = reach[(i, k)] or reach[(k, j)]
                    if (i, j) not in reach:
                        reach[(i, j)] = strict
                    else:
                        reach[(i, j)] = reach[(i, j)] or strict
        self._closure = reach
        return reach

    def is_satisfiable(self) -> bool:
        """Whether some rational assignment satisfies every constraint."""
        reach = self._compute_closure()
        terms, _ = self._terms_and_edges()
        for (a, b), strict in reach.items():
            if a == b and strict:
                return False
            if a.startswith("c:") and b.startswith("c:"):
                a_val, b_val = float(terms[a]), float(terms[b])
                if a_val > b_val or (strict and a_val == b_val):
                    return False
        return True

    def evaluate(self, assignment: Dict[str, Any]) -> bool:
        """Whether a concrete point satisfies the conjunction."""
        return all(c.evaluate(assignment) for c in self.constraints)

    # ------------------------------------------------------------------ #
    # projection (the generalized key of Section 2.1)
    # ------------------------------------------------------------------ #
    def projection(self, variable: str) -> Tuple[float, float]:
        """The closed interval ``[low, high]`` the tuple allows for ``variable``.

        For convex CQLs this projection is exact (a single interval); open
        bounds are reported with their closed endpoints, which can only make
        the generalized key slightly larger — harmless for indexing, because
        the query constraint is conjoined to the tuple afterwards.
        Unbounded directions use ``-inf`` / ``+inf``.
        """
        reach = self._compute_closure()
        terms, _ = self._terms_and_edges()
        target = f"v:{variable}"
        if target not in terms:
            return (UNBOUNDED_LOW, UNBOUNDED_HIGH)
        low, high = UNBOUNDED_LOW, UNBOUNDED_HIGH
        for name, term in terms.items():
            if not name.startswith("c:"):
                continue
            value = float(term)
            if (name, target) in reach:  # constant <= variable
                low = max(low, value)
            if (target, name) in reach:  # variable <= constant
                high = min(high, value)
        return (low, high)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        body = " AND ".join(str(c) for c in self.constraints) or "TRUE"
        prefix = f"{self.name}: " if self.name is not None else ""
        return prefix + body

    def __len__(self) -> int:
        return len(self.constraints)
