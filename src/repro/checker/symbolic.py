"""Exact symbolic inductiveness for polynomial equality invariants.

For a loop path with polynomial update map ``U`` and a candidate
equality ``p = 0``, the candidate is inductive along the path when
``p ∘ U`` vanishes on the variety cut out by the full set of equality
candidates ``E`` (all of which hold at the loop head by assumption).
We test the sufficient condition

    reduce(p ∘ U, E) == 0

using graded-lex polynomial reduction.  When the reduction is nonzero
the result is *inconclusive* (we do not complete a Gröbner basis), and
the caller falls back to bounded checking.

Soundness: if reduction succeeds for every path through the loop body,
then for any pre-state satisfying all of ``E`` (regardless of which
branch the guard semantics take), the post-state satisfies ``p = 0``.
Guards are ignored, which only strengthens the requirement.
"""

from __future__ import annotations

from typing import Sequence

from repro.lang.analysis import LoopPath
from repro.poly.polynomial import Polynomial
from repro.poly.reduce import reduce_modulo
from repro.checker.result import CheckOutcome


def equality_inductive_symbolic(
    candidate: Polynomial,
    established: Sequence[Polynomial],
    paths: Sequence[LoopPath],
) -> CheckOutcome:
    """Check that ``candidate = 0`` is preserved by every loop path.

    Args:
        candidate: polynomial whose vanishing is the candidate equality.
        established: all equality polynomials assumed at the loop head
            (normally includes ``candidate`` itself).
        paths: symbolic paths from ``extract_loop_paths``.

    Returns:
        VALID when every path reduces to zero; UNKNOWN otherwise (never
        INVALID — a failed reduction is not a disproof).
    """
    basis = [p for p in established if not p.is_zero()]
    if candidate not in basis:
        basis = [*basis, candidate]
    for path in paths:
        updated = candidate.substitute(path.updates)
        remainder = reduce_modulo(updated, basis)
        if not remainder.is_zero():
            return CheckOutcome.UNKNOWN
    return CheckOutcome.VALID

