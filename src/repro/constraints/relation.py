"""Generalized relations and databases (the DNF level of the constraint model)."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List

from repro.constraints.terms import Constraint, GeneralizedTuple, Variable


class GeneralizedRelation:
    """A finite set of generalized tuples over the same variables.

    Semantically, the relation is the union (disjunction) of the point sets
    its tuples describe.  The class offers the closed-form operations needed
    by the examples and tests: satisfiable-tuple filtering, selection by
    conjoining constraints, and membership of concrete points.
    """

    def __init__(
        self,
        variables: Iterable[str],
        tuples: Iterable[GeneralizedTuple] = (),
        name: str = "relation",
    ) -> None:
        self.name = name
        self.variables: List[str] = list(variables)
        #: the held tuples by identity, in insertion order: a delete finds
        #: its tuple in O(1) (see :meth:`discard`)
        self._held: Dict[int, GeneralizedTuple] = {}
        for gt in tuples:
            self.add(gt)

    @property
    def tuples(self) -> List[GeneralizedTuple]:
        """The tuples, in insertion order (a new list)."""
        return list(self._held.values())

    def _check_variables(self, gt: GeneralizedTuple) -> None:
        unknown = gt.variables() - set(self.variables)
        if unknown:
            raise ValueError(
                f"tuple uses variables {sorted(unknown)} outside the relation schema "
                f"{self.variables}"
            )

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def add(self, gt: GeneralizedTuple) -> None:
        self._check_variables(gt)
        self._held[id(gt)] = gt

    def discard(self, gt: GeneralizedTuple) -> bool:
        """Remove ``gt`` itself, by identity (an index finds the held object by
        value; matching by ``==`` would hash or compare constraints)."""
        return self._held.pop(id(gt), None) is not None

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def select(self, *constraints: Constraint, prune: bool = True) -> "GeneralizedRelation":
        """Conjoin ``constraints`` to every tuple (relational selection).

        With ``prune`` the unsatisfiable results are dropped, which keeps the
        output relation small; the represented point set is identical either
        way.
        """
        out = []
        for gt in self._held.values():
            candidate = gt.conjoin(*constraints)
            if not prune or candidate.is_satisfiable():
                out.append(candidate)
        return GeneralizedRelation(self.variables, out, name=f"{self.name}:selected")

    def satisfiable(self) -> "GeneralizedRelation":
        """Drop unsatisfiable tuples."""
        return GeneralizedRelation(
            self.variables,
            [gt for gt in self._held.values() if gt.is_satisfiable()],
            name=self.name,
        )

    def contains_point(self, assignment: Dict[str, Any]) -> bool:
        """Whether the concrete point belongs to the represented set."""
        return any(gt.evaluate(assignment) for gt in self._held.values())

    def __iter__(self) -> Iterator[GeneralizedTuple]:
        return iter(self.tuples)

    def __len__(self) -> int:
        return len(self._held)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}({', '.join(self.variables)}) with {len(self)} tuples"


class GeneralizedDatabase:
    """A named collection of generalized relations."""

    def __init__(self) -> None:
        self.relations: Dict[str, GeneralizedRelation] = {}

    def add_relation(self, relation: GeneralizedRelation) -> None:
        self.relations[relation.name] = relation

    def __getitem__(self, name: str) -> GeneralizedRelation:
        return self.relations[name]

    def __len__(self) -> int:
        return len(self.relations)
