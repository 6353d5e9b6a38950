"""Multivariate polynomials with exact rational coefficients.

``Polynomial`` is an immutable mapping from :class:`Monomial` to nonzero
``Fraction`` coefficients.  It supports ring arithmetic, substitution of
polynomials for variables (the key operation for checking inductiveness
of equality invariants under loop-body updates), evaluation on rational
points, and leading-term queries under graded lex order.

Evaluation is fraction-free whenever it can be: each polynomial lazily
caches an integer form, a positive common denominator ``D`` and the
``(coeff·D, powers)`` pairs, so on a point where every variable read
holds a plain ``int`` (every checking state of an integer program) the
value is an int sum over ``D``.  Any other point (``Fraction`` samples
from fractional sampling, floats, a missing variable) takes the
``Fraction`` loop.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping, NamedTuple

from repro.errors import PolyError
from repro.poly.monomial import Monomial

Coefficient = Fraction


def _as_fraction(value: object) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, Rational)):
        return Fraction(value)
    if isinstance(value, float):
        if not value.is_integer():
            raise PolyError(
                f"refusing to coerce non-integral float {value!r} to Fraction; "
                "pass a Fraction explicitly"
            )
        return Fraction(int(value))
    raise PolyError(f"cannot use {value!r} as a polynomial coefficient")


class Polynomial:
    """Immutable multivariate polynomial over the rationals."""

    __slots__ = ("_terms", "_ints")

    def __init__(
        self,
        terms: Mapping[Monomial, object] | Iterable[tuple[Monomial, object]] = (),
    ):
        collected: dict[Monomial, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, coeff in items:
            if not isinstance(mono, Monomial):
                raise PolyError(f"expected Monomial key, got {mono!r}")
            frac = _as_fraction(coeff)
            if frac == 0:
                continue
            acc = collected.get(mono, Fraction(0)) + frac
            if acc == 0:
                collected.pop(mono, None)
            else:
                collected[mono] = acc
        self._terms: dict[Monomial, Fraction] = collected
        self._ints: _IntegerForm | None = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, value: object) -> "Polynomial":
        return cls({Monomial.one(): _as_fraction(value)})

    @classmethod
    def var(cls, name: str) -> "Polynomial":
        return cls({Monomial.var(name): Fraction(1)})

    # -- inspection -------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """Monomial-to-coefficient mapping (copy)."""
        return dict(self._terms)

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        if not self._terms:
            return 0
        return max(m.degree for m in self._terms)

    @property
    def variables(self) -> frozenset[str]:
        out: set[str] = set()
        for mono in self._terms:
            out |= mono.variables
        return frozenset(out)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(m.is_constant() for m in self._terms)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(mono, Fraction(0))

    def constant_term(self) -> Fraction:
        return self._terms.get(Monomial.one(), Fraction(0))

    def leading_term(self) -> tuple[Monomial, Fraction]:
        """Leading (monomial, coefficient) under graded lex order."""
        if not self._terms:
            raise PolyError("zero polynomial has no leading term")
        lead = max(self._terms, key=Monomial.sort_key)
        return lead, self._terms[lead]

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: object) -> "Polynomial":
        other_poly = _coerce(other)
        if other_poly is None:
            return NotImplemented
        merged = dict(self._terms)
        for mono, coeff in other_poly._terms.items():
            acc = merged.get(mono, Fraction(0)) + coeff
            if acc == 0:
                merged.pop(mono, None)
            else:
                merged[mono] = acc
        return _raw(merged)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: object) -> "Polynomial":
        other_poly = _coerce(other)
        if other_poly is None:
            return NotImplemented
        return self + (-other_poly)

    def __rsub__(self, other: object) -> "Polynomial":
        other_poly = _coerce(other)
        if other_poly is None:
            return NotImplemented
        return other_poly + (-self)

    def __mul__(self, other: object) -> "Polynomial":
        other_poly = _coerce(other)
        if other_poly is None:
            return NotImplemented
        product: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other_poly._terms.items():
                mono = m1 * m2
                acc = product.get(mono, Fraction(0)) + c1 * c2
                if acc == 0:
                    product.pop(mono, None)
                else:
                    product[mono] = acc
        return _raw(product)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise PolyError(f"polynomial exponent must be a nonneg int: {exponent!r}")
        result = Polynomial.constant(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, factor: object) -> "Polynomial":
        f = _as_fraction(factor)
        return _raw({m: c * f for m, c in self._terms.items()} if f else {})

    def primitive(self, preserve_sign: bool = False) -> "Polynomial":
        """Scale to integer coefficients with gcd 1.

        Args:
            preserve_sign: when False (default) the leading coefficient
                is made positive — fine for equalities, where ``p = 0``
                and ``-p = 0`` agree.  Inequality atoms must pass True,
                because ``p >= 0`` and ``-p >= 0`` differ.
        """
        if not self._terms:
            return self
        lcm = 1
        for c in self._terms.values():
            lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
        ints = {m: int(c * lcm) for m, c in self._terms.items()}
        g = 0
        for v in ints.values():
            g = math.gcd(g, abs(v))
        if preserve_sign:
            sign = 1
        else:
            lead = max(ints, key=Monomial.sort_key)
            sign = 1 if ints[lead] > 0 else -1
        return _raw({m: Fraction(v * sign, g) for m, v in ints.items()})

    # -- substitution & evaluation ---------------------------------------

    def substitute(self, mapping: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Replace each variable by a polynomial.

        Variables absent from ``mapping`` are left unchanged.  This is
        the core of symbolic inductiveness checking: substituting the
        loop-body update polynomials into a candidate invariant yields
        the invariant's value after one iteration.
        """
        result = Polynomial.zero()
        for mono, coeff in self._terms.items():
            term = Polynomial.constant(coeff)
            for var, exp in mono:
                base = mapping.get(var)
                if base is None:
                    base = Polynomial.var(var)
                term = term * base**exp
            result = result + term
        return result

    def evaluate_scaled(self, assignment: Mapping[str, object]) -> int | None:
        """``D * self(assignment)`` in ints, or None off the integer path.

        ``D`` is the positive common denominator of the coefficients, so
        the result has the sign of the value.  None means some variable
        the polynomial reads is missing or holds anything but a plain
        ``int`` (a ``bool`` included); use :meth:`evaluate` there.
        """
        form = self._ints
        if form is None:
            form = self._ints = _integer_form(self._terms)
        total = 0
        for coeff, powers in form.terms:
            for var, exp in powers:
                value = assignment.get(var)
                if type(value) is not int:
                    return None
                coeff *= value if exp == 1 else value**exp
            total += coeff
        return total

    def evaluate(self, assignment: Mapping[str, object]) -> Fraction:
        """Evaluate on an exact rational point."""
        scaled = self.evaluate_scaled(assignment)
        if scaled is not None:
            return Fraction(scaled, self._ints.denominator)
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            value = coeff
            for var, exp in mono:
                if var not in assignment:
                    raise PolyError(f"no value for variable {var!r}")
                value *= _as_fraction_value(assignment[var]) ** exp
            total += value
        return total

    def evaluate_float(self, assignment: Mapping[str, float]) -> float:
        """Evaluate on a float point (for sampled/learned data)."""
        total = 0.0
        for mono, coeff in self._terms.items():
            value = float(coeff)
            for var, exp in mono:
                if var not in assignment:
                    raise PolyError(f"no value for variable {var!r}")
                value *= float(assignment[var]) ** exp
            total += value
        return total

    # -- equality & display ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        other_poly = _coerce(other)
        if other_poly is None:
            return NotImplemented
        return self._terms == other_poly._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        ordered = sorted(self._terms, key=Monomial.sort_key, reverse=True)
        parts: list[str] = []
        for mono in ordered:
            coeff = self._terms[mono]
            body = str(mono)
            if mono.is_constant():
                text = str(coeff)
            elif coeff == 1:
                text = body
            elif coeff == -1:
                text = f"-{body}"
            else:
                text = f"{coeff}*{body}"
            if parts and not text.startswith("-"):
                parts.append(f"+ {text}")
            elif parts:
                parts.append(f"- {text[1:]}")
            else:
                parts.append(text)
        return " ".join(parts)


def _raw(terms: dict[Monomial, Fraction]) -> Polynomial:
    """Build a Polynomial from an already-normalized term dict."""
    poly = Polynomial.__new__(Polynomial)
    poly._terms = terms
    poly._ints = None
    return poly


class _IntegerForm(NamedTuple):
    """A polynomial times its positive common denominator, in ints."""

    denominator: int
    terms: tuple[tuple[int, tuple[tuple[str, int], ...]], ...]


def _integer_form(terms: dict[Monomial, Fraction]) -> _IntegerForm:
    denominator = 1
    for coeff in terms.values():
        denominator = math.lcm(denominator, coeff.denominator)
    return _IntegerForm(
        denominator,
        tuple(
            (coeff.numerator * (denominator // coeff.denominator), tuple(mono))
            for mono, coeff in terms.items()
        ),
    )


def _coerce(value: object) -> Polynomial | None:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    return None


def _as_fraction_value(value: object) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, Rational):
        return Fraction(value)
    raise PolyError(f"cannot evaluate on non-rational value {value!r}")
