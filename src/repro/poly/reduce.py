"""Multivariate polynomial reduction (poor-man's Gröbner reduction).

To check that a candidate equality invariant ``p = 0`` is inductive, we
substitute the loop-body updates into ``p`` and ask whether the result
vanishes *given* the other learned equalities.  A sufficient test is to
reduce the substituted polynomial modulo the set of learned equality
polynomials under graded lex order: remainder zero implies the candidate
is inductive on the variety cut out by the set.

This is not a full Gröbner basis computation (we never complete the
basis with S-polynomials), so a nonzero remainder does *not* disprove
membership — callers fall back to the bounded checker in that case.
"""

from __future__ import annotations

from typing import Sequence

from repro.poly.monomial import Monomial
from repro.poly.polynomial import Polynomial

# Safety bound on the cancellation steps of one reduction.
MAX_REDUCTION_STEPS = 10_000
# Rounds of inter-reduction of a basis.
INTER_REDUCE_PASSES = 3


def reduce_modulo(
    poly: Polynomial,
    basis: Sequence[Polynomial],
) -> Polynomial:
    """Reduce ``poly`` modulo ``basis`` under graded lex order.

    Repeatedly cancels any term of ``poly`` divisible by the leading
    monomial of some basis element.  Terminates because each step
    strictly decreases the multiset of monomials under the term order;
    ``MAX_REDUCTION_STEPS`` bounds it regardless.

    Args:
        poly: polynomial to reduce.
        basis: equality polynomials assumed to vanish (zero entries are
            skipped).

    Returns:
        The remainder; ``remainder.is_zero()`` implies ``poly`` lies in
        the ideal generated by ``basis`` (sufficient, not necessary).
    """
    reducers = [
        (b.leading_term()[0], b.leading_term()[1], b)
        for b in basis
        if not b.is_zero()
    ]
    # Try reducers with larger leading monomials first: canceling r^3
    # with a lead-r^3 reducer (quotient 1) keeps the remainder small,
    # whereas a lead-r^2 reducer (quotient r) drags in cross terms.
    reducers.sort(key=lambda t: t[0].sort_key(), reverse=True)
    remainder = poly
    steps = 0
    progress = True
    while progress and not remainder.is_zero() and steps < MAX_REDUCTION_STEPS:
        progress = False
        # Scan terms from largest to smallest; cancel the first reducible one.
        for mono in sorted(remainder.terms, key=Monomial.sort_key, reverse=True):
            coeff = remainder.coefficient(mono)
            if coeff == 0:
                continue
            for lead_mono, lead_coeff, reducer in reducers:
                if lead_mono.divides(mono):
                    quotient_mono = mono / lead_mono
                    factor = coeff / lead_coeff
                    cancel = Polynomial({quotient_mono: factor}) * reducer
                    remainder = remainder - cancel
                    progress = True
                    steps += 1
                    break
            if progress:
                break
    return remainder


def inter_reduce(basis: Sequence[Polynomial]) -> list[Polynomial]:
    """Reduce each basis polynomial by the others, repeatedly.

    Produces a basis with smaller leading terms that reduces strictly
    more polynomials to zero.  E.g. {t - 2a - 1, t^2 + 2t - 4s + 1}
    inter-reduces to {t - 2a - 1, a^2 + 2a - s + 1}, after which
    s = (a+1)^2 becomes syntactically derivable.
    """
    current = [p.primitive() for p in basis if not p.is_zero()]
    for _ in range(INTER_REDUCE_PASSES):
        changed = False
        reduced: list[Polynomial] = []
        # Process sequentially against the *updated* working set
        # (already-reduced survivors plus the unprocessed tail): if two
        # elements are mutually reducible, exactly one is dropped —
        # dropping both would shrink the ideal.
        for i, poly in enumerate(current):
            others = reduced + current[i + 1 :]
            remainder = reduce_modulo(poly, others) if others else poly
            if remainder.is_zero():
                changed = True
                continue
            remainder = remainder.primitive()
            if remainder != poly:
                changed = True
            reduced.append(remainder)
        current = reduced
        if not changed:
            break
    return current


def is_implied_equality(
    candidate: Polynomial,
    established: Sequence[Polynomial],
) -> bool:
    """True when ``candidate = 0`` reduces to zero modulo ``established``.

    The basis is inter-reduced first.  This is the sufficient symbolic
    test used by the checker; a ``False`` answer is inconclusive.
    """
    if candidate.is_zero():
        return True
    basis = inter_reduce(established)
    return reduce_modulo(candidate, basis).is_zero()
