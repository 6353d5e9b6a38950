"""PIE-style enumerative template search with a budget.

LoopInvGen/PIE synthesizes invariants by enumerating candidate atomic
predicates and boolean combinations, checking each against the data.
The search space over nonlinear polynomial atoms grows combinatorially
with the number of terms and coefficient range, which is why PIE times
out on every nonlinear problem in Table 2.  This baseline enumerates
small-coefficient atoms over the term basis within a candidate budget;
the Table 2 bench records whether the documented invariant is reached
before the budget is exhausted.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Callable, Mapping, Sequence

from repro.poly.polynomial import Polynomial
from repro.sampling.termgen import TermBasis
from repro.smt.formula import Atom
from repro.cln.extract import make_exact_validator

# Atoms use at most this many terms, with these integer coefficients.
MAX_TERMS = 3
COEFFICIENT_RANGE = (-3, -2, -1, 1, 2, 3)


def enumerative_search(
    states: Sequence[Mapping[str, object]],
    basis: TermBasis,
    budget: int = 200_000,
    target: Callable[[Atom], bool] | None = None,
) -> tuple[list[Atom], int, bool]:
    """Enumerate small atoms, validating each against the data.

    Args:
        states: loop-head samples.
        basis: candidate terms.
        budget: maximum candidates examined before giving up.
        target: optional predicate; when it accepts a found atom the
            search stops early (used to measure time-to-solution).

    Returns:
        ``(valid_atoms, candidates_examined, budget_exhausted)``.
    """
    validator = make_exact_validator(states, basis)
    found: list[Atom] = []
    seen: set[str] = set()
    examined = 0
    n = len(basis)
    for size in range(1, MAX_TERMS + 1):
        for term_idx in combinations(range(n), size):
            for coeffs in product(COEFFICIENT_RANGE, repeat=size):
                examined += 1
                if examined > budget:
                    return found, examined - 1, True
                poly = Polynomial(
                    {basis.monomials[i]: c for i, c in zip(term_idx, coeffs)}
                )
                if poly.is_zero() or poly.is_constant():
                    continue
                if validator(poly, "=="):
                    atom = Atom(poly.primitive(), "==")
                    key = str(atom.poly)
                    if key not in seen:
                        seen.add(key)
                        found.append(atom)
                        if target is not None and target(atom):
                            return found, examined, False
    return found, examined, False
