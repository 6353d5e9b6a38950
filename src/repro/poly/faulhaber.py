"""Faulhaber power-sum polynomials.

The ps2..ps6 NLA benchmark programs accumulate ``x += y^k``; their loop
invariants are the closed forms of ``sum_{i=1..y} i^k``.  We derive those
closed forms exactly (via Lagrange interpolation over rational points)
both to state ground-truth invariants for tests and to validate learned
invariants.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from repro.errors import PolyError
from repro.poly.monomial import Monomial
from repro.poly.polynomial import Polynomial


@lru_cache(maxsize=None)
def power_sum_polynomial(k: int, var: str = "y") -> Polynomial:
    """Closed form of ``sum_{i=1}^{n} i^k`` as a polynomial in ``var``.

    The sum is a polynomial of degree ``k + 1``; we interpolate it on the
    points ``n = 0..k+1`` exactly.

    Args:
        k: exponent of the summand (>= 0).
        var: name of the upper-limit variable.

    Returns:
        The degree-``k+1`` polynomial ``S_k(var)``.
    """
    if k < 0:
        raise PolyError(f"power sum exponent must be >= 0, got {k}")
    degree = k + 1
    xs = list(range(degree + 1))
    ys = []
    total = 0
    ys.append(Fraction(0))
    for n in xs[1:]:
        total += n**k
        ys.append(Fraction(total))
    return _lagrange_interpolate(xs, ys, var)


def _lagrange_interpolate(
    xs: list[int], ys: list[Fraction], var: str
) -> Polynomial:
    """Exact Lagrange interpolation through ``(xs[i], ys[i])``."""
    x = Polynomial.var(var)
    result = Polynomial.zero()
    for i, xi in enumerate(xs):
        basis = Polynomial.constant(1)
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if i == j:
                continue
            basis = basis * (x - Polynomial.constant(xj))
            denom *= Fraction(xi - xj)
        result = result + basis.scale(ys[i] / denom)
    return result


def monomial_terms_up_to_degree(variables: list[str], max_degree: int) -> list[Monomial]:
    """All monomials over ``variables`` with total degree <= ``max_degree``.

    Matches the candidate-term enumeration of Fig. 4b in the paper.
    Ordered by graded lex, constant first.
    """
    if max_degree < 0:
        raise PolyError(f"max_degree must be >= 0, got {max_degree}")
    monos: list[Monomial] = [Monomial.one()]
    frontier: list[Monomial] = [Monomial.one()]
    for _ in range(max_degree):
        next_frontier: list[Monomial] = []
        seen = set(monos)
        for mono in frontier:
            for var in variables:
                grown = mono * Monomial.var(var)
                if grown not in seen:
                    seen.add(grown)
                    next_frontier.append(grown)
        monos.extend(next_frontier)
        frontier = next_frontier
    return sorted(monos, key=Monomial.sort_key)
