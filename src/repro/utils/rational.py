"""Rational rounding helpers used by formula extraction (Algorithm 1).

The paper (§4.1) scales learned real coefficients so the largest has
magnitude 1 and then rounds each to the nearest rational with a bounded
denominator, finally clearing denominators to obtain integer invariant
coefficients.  These helpers implement that procedure exactly, using
:class:`fractions.Fraction` throughout so no floating-point error can
leak into a candidate invariant.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

# Scaled magnitudes below this round to exactly zero.
ZERO_TOLERANCE = 0.02


def round_to_rational(value: float, max_denominator: int) -> Fraction:
    """Round ``value`` to the nearest rational with bounded denominator.

    Args:
        value: the real number to round.
        max_denominator: largest denominator permitted (>= 1).

    Returns:
        The closest ``Fraction`` whose denominator does not exceed
        ``max_denominator``.
    """
    if max_denominator < 1:
        raise ValueError(f"max_denominator must be >= 1, got {max_denominator}")
    if not math.isfinite(value):
        raise ValueError(f"cannot round non-finite value {value!r}")
    return Fraction(value).limit_denominator(max_denominator)


def scale_to_integer_coeffs(coeffs: Sequence[Fraction]) -> list[int]:
    """Clear denominators from rational coefficients.

    Multiplies all coefficients by the least common multiple of their
    denominators and divides by the greatest common divisor of the
    resulting integers, yielding the canonical primitive integer vector.

    Args:
        coeffs: rational coefficients; must not be all-zero.

    Returns:
        Integer coefficients with gcd 1, proportional to ``coeffs``.
    """
    if all(c == 0 for c in coeffs):
        raise ValueError("cannot scale an all-zero coefficient vector")
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
    return [v // g for v in ints]


def round_coefficient_vector(
    scaled: Sequence[float],
    max_denominator: int,
) -> list[int] | None:
    """Round an already-scaled weight vector to integer coefficients.

    Entries within ``ZERO_TOLERANCE`` of zero are dropped to exactly
    zero; the rest are rounded to rationals with bounded denominator and
    denominators are cleared.

    Returns:
        Primitive integer coefficients, or ``None`` when every entry
        rounds to zero or an entry is non-finite.
    """
    rationals = []
    for s in scaled:
        if not math.isfinite(s):
            return None
        if abs(s) < ZERO_TOLERANCE:
            rationals.append(Fraction(0))
        else:
            rationals.append(round_to_rational(s, max_denominator))
    if all(r == 0 for r in rationals):
        return None
    return scale_to_integer_coeffs(rationals)


def nice_coefficients(
    weights: Sequence[float],
    max_denominator: int,
) -> list[int] | None:
    """Turn learned real weights into candidate integer coefficients.

    Implements the extraction recipe from §4.1 of the paper: scale the
    weight vector so the maximum absolute entry is 1, round each entry to
    the nearest rational with the given maximum denominator (entries
    within ``ZERO_TOLERANCE`` of zero are dropped to exactly zero), and
    clear denominators.

    Args:
        weights: raw learned weights for each term.
        max_denominator: maximum denominator for rounding.

    Returns:
        Primitive integer coefficients, or ``None`` when every weight
        rounds to zero (no meaningful constraint was learned).
    """
    top = max(abs(w) for w in weights) if weights else 0.0
    if top == 0.0 or not math.isfinite(top):
        return None
    return round_coefficient_vector([w / top for w in weights], max_denominator)
