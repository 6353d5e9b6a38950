"""Candidate-term construction (Fig. 4b of the paper).

A :class:`TermBasis` is an ordered list of monomials over *extended
variables*: the program variables plus names like ``"gcd(a,b)"`` for
sampled external functions (§5.3).  States are extended with the
external values and then each monomial is evaluated, producing the
training matrix whose columns are the candidate terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ReproError
from repro.lang.builtins import lookup_builtin
from repro.poly.faulhaber import monomial_terms_up_to_degree
from repro.poly.monomial import Monomial
from repro.poly.polynomial import Polynomial
from repro.smt.convert import external_term_name


@dataclass(frozen=True)
class ExternalTerm:
    """A sampled external-function application, e.g. ``gcd(a, b)``."""

    func: str
    args: tuple[str, ...]

    @property
    def name(self) -> str:
        return external_term_name(self.func, self.args)


@dataclass
class TermBasis:
    """Ordered candidate terms for one loop.

    Attributes:
        variables: base program variables, in order.
        externals: external-function terms sampled alongside.
        monomials: candidate monomials over extended variables, graded
            lex order with the constant term first.
    """

    variables: list[str]
    externals: list[ExternalTerm] = field(default_factory=list)
    monomials: list[Monomial] = field(default_factory=list)

    @property
    def names(self) -> list[str]:
        return [str(m) for m in self.monomials]

    def __len__(self) -> int:
        return len(self.monomials)

    def polynomial(self, coeffs: Sequence[object]) -> Polynomial:
        """Build ``sum(coeffs[i] * monomials[i])``."""
        if len(coeffs) != len(self.monomials):
            raise ReproError(
                f"expected {len(self.monomials)} coefficients, got {len(coeffs)}"
            )
        return Polynomial(
            [(m, Fraction(c) if not isinstance(c, float) else Fraction(c).limit_denominator(10**9))
             for m, c in zip(self.monomials, coeffs)]
        )

    def restrict(self, keep: Sequence[int]) -> "TermBasis":
        """A new basis containing only the monomials at ``keep`` indices."""
        return TermBasis(
            variables=list(self.variables),
            externals=list(self.externals),
            monomials=[self.monomials[i] for i in keep],
        )


def build_term_basis(
    variables: Sequence[str],
    max_degree: int,
    externals: Sequence[ExternalTerm] = (),
) -> TermBasis:
    """Enumerate monomials up to ``max_degree`` over variables + externals.

    External-function terms participate linearly (as in the paper,
    e.g. ``z == gcd(x, y)``); monomials mixing two external terms are
    excluded to keep the basis small.
    """
    base = monomial_terms_up_to_degree(list(variables), max_degree)
    extended = list(base)
    for ext in externals:
        ext_mono = Monomial.var(ext.name)
        extended.append(ext_mono)
        # Products of one external with degree-1 base terms let the
        # model express constraints like x*gcd == ... if needed.
        extended.extend(ext_mono * Monomial.var(var) for var in variables)
    seen: set[Monomial] = set()
    unique: list[Monomial] = []
    for mono in extended:
        if mono not in seen:
            seen.add(mono)
            unique.append(mono)
    return TermBasis(
        variables=list(variables),
        externals=list(externals),
        monomials=sorted(unique, key=Monomial.sort_key),
    )


def extend_state(
    state: Mapping[str, object], externals: Sequence[ExternalTerm]
) -> dict[str, object]:
    """Add external-function values to a program state.

    Non-integer arguments make an external term undefined; the sampler
    filters such states out before training on external terms.
    """
    extended = dict(state)
    for ext in externals:
        func = lookup_builtin(ext.func)
        args = [state[a] for a in ext.args]
        extended[ext.name] = func(*args)
    return extended


def evaluate_terms(
    states: Sequence[Mapping[str, object]],
    basis: TermBasis,
) -> np.ndarray:
    """Evaluate every basis monomial on every state.

    Returns:
        Array of shape ``(len(states), len(basis))`` in float64.
    """
    rows = np.empty((len(states), len(basis.monomials)), dtype=np.float64)
    for i, state in enumerate(states):
        extended = extend_state(state, basis.externals) if basis.externals else state
        for j, mono in enumerate(basis.monomials):
            value = 1.0
            for var, exp in mono:
                value *= float(extended[var]) ** exp
            rows[i, j] = value
    return rows


def evaluate_terms_exact(
    states: Sequence[Mapping[str, object]],
    basis: TermBasis,
) -> list[list[int | Fraction]]:
    """Exact version of :func:`evaluate_terms` (for nullspace).

    Int values stay ints; an entry is a ``Fraction`` only where a state
    holds a non-int value (a ``Fraction`` under fractional sampling).
    Each variable's powers are computed once per state and shared by
    every monomial.
    """
    monomials = [tuple(mono) for mono in basis.monomials]
    top: dict[str, int] = {}
    for mono in monomials:
        for var, exp in mono:
            top[var] = max(top.get(var, 0), exp)
    rows: list[list[int | Fraction]] = []
    for state in states:
        extended = extend_state(state, basis.externals) if basis.externals else state
        powers: dict[str, list[int | Fraction]] = {}
        for var, exp in top.items():
            value = extended[var]
            if not isinstance(value, int):
                value = Fraction(value)
            column = [1, value]
            for _ in range(exp - 1):
                column.append(column[-1] * value)
            powers[var] = column
        row: list[int | Fraction] = []
        for mono in monomials:
            value = 1
            for var, exp in mono:
                value *= powers[var][exp]
            row.append(value)
        rows.append(row)
    return rows
