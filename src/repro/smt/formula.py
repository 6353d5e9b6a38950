"""Quantifier-free formulas over polynomial atoms.

An :class:`Atom` is ``p ⋈ 0`` for a polynomial ``p`` and a comparison
``⋈ ∈ {==, !=, <, <=, >, >=}``.  Compound formulas are built with
:class:`And`, :class:`Or`, :class:`Not` plus the constants ``TRUE`` and
``FALSE``.  Formulas evaluate exactly on rational assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from repro.errors import FormulaError
from repro.poly.polynomial import Polynomial

COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")

_NEGATED = {
    "==": "!=",
    "!=": "==",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
}


class Formula:
    """Base class for formulas; use the concrete subclasses."""

    def evaluate(self, assignment: Mapping[str, object]) -> bool:
        raise NotImplementedError

    def atoms(self) -> list["Atom"]:
        """All atoms appearing in the formula (with multiplicity)."""
        raise NotImplementedError

    @property
    def variables(self) -> frozenset[str]:
        out: set[str] = set()
        for atom in self.atoms():
            out |= atom.poly.variables
        return frozenset(out)

    def __and__(self, other: "Formula") -> "Formula":
        return And((self, other))

    def __or__(self, other: "Formula") -> "Formula":
        return Or((self, other))

    def __invert__(self) -> "Formula":
        return Not(self)


@dataclass(frozen=True)
class TrueFormula(Formula):
    def evaluate(self, assignment: Mapping[str, object]) -> bool:
        return True

    def atoms(self) -> list["Atom"]:
        return []

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class FalseFormula(Formula):
    def evaluate(self, assignment: Mapping[str, object]) -> bool:
        return False

    def atoms(self) -> list["Atom"]:
        return []

    def __str__(self) -> str:
        return "false"


TRUE = TrueFormula()
FALSE = FalseFormula()


@dataclass(frozen=True)
class Atom(Formula):
    """The atomic constraint ``poly op 0``."""

    poly: Polynomial
    op: str

    def __post_init__(self) -> None:
        if self.op not in COMPARISONS:
            raise FormulaError(f"unknown comparison {self.op!r}")

    def evaluate(self, assignment: Mapping[str, object]) -> bool:
        # On an all-int point compare the int sum D*p (D > 0, so the
        # sign is p's) without building a Fraction.
        value = self.poly.evaluate_scaled(assignment)
        if value is None:
            value = self.poly.evaluate(assignment)
        return _compare(value, self.op)

    def evaluate_float(self, assignment: Mapping[str, float], tol: float = 1e-7) -> bool:
        """Approximate evaluation on float data (equality uses ``tol``)."""
        value = self.poly.evaluate_float(assignment)
        if self.op == "==":
            return abs(value) <= tol
        if self.op == "!=":
            return abs(value) > tol
        if self.op == "<":
            return value < tol
        if self.op == "<=":
            return value <= tol
        if self.op == ">":
            return value > -tol
        return value >= -tol

    def negated(self) -> "Atom":
        return Atom(self.poly, _NEGATED[self.op])

    def atoms(self) -> list["Atom"]:
        return [self]

    def __str__(self) -> str:
        return f"{self.poly} {self.op} 0"


def _compare(value: Fraction | int, op: str) -> bool:
    if op == "==":
        return value == 0
    if op == "!=":
        return value != 0
    if op == "<":
        return value < 0
    if op == "<=":
        return value <= 0
    if op == ">":
        return value > 0
    if op == ">=":
        return value >= 0
    raise FormulaError(f"unknown comparison {op!r}")


class _Nary(Formula):
    """Shared implementation for And/Or."""

    _name: str

    def __init__(self, children: Sequence[Formula]):
        for child in children:
            if not isinstance(child, Formula):
                raise FormulaError(f"expected Formula, got {child!r}")
        self._children = tuple(children)

    @property
    def children(self) -> tuple[Formula, ...]:
        return self._children

    def atoms(self) -> list[Atom]:
        out: list[Atom] = []
        for child in self._children:
            out.extend(child.atoms())
        return out

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._children == other._children

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._children))

    def __str__(self) -> str:
        if not self._children:
            return "true" if isinstance(self, And) else "false"
        joiner = " && " if isinstance(self, And) else " || "
        return "(" + joiner.join(str(c) for c in self._children) + ")"


class And(_Nary):
    """Conjunction; the empty conjunction is ``true``."""

    def evaluate(self, assignment: Mapping[str, object]) -> bool:
        return all(c.evaluate(assignment) for c in self._children)


class Or(_Nary):
    """Disjunction; the empty disjunction is ``false``."""

    def evaluate(self, assignment: Mapping[str, object]) -> bool:
        return any(c.evaluate(assignment) for c in self._children)


@dataclass(frozen=True)
class Not(Formula):
    child: Formula

    def evaluate(self, assignment: Mapping[str, object]) -> bool:
        return not self.child.evaluate(assignment)

    def atoms(self) -> list[Atom]:
        return self.child.atoms()

    def __str__(self) -> str:
        return f"!({self.child})"
