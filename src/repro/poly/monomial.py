"""Monomials: immutable power products of named variables.

A monomial maps variable names to positive integer exponents, e.g.
``x^2 * y``.  Monomials are hashable and ordered by graded lexicographic
order (total degree first, then lexicographic on the sorted exponent
vector), which is the order used by polynomial reduction.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.errors import PolyError


class Monomial:
    """An immutable power product like ``x^2*y``.

    The empty monomial (degree 0) represents the constant term ``1``.
    """

    __slots__ = ("_powers", "_hash")

    def __init__(self, powers: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        items = dict(powers)
        for var, exp in list(items.items()):
            if not isinstance(exp, int):
                raise PolyError(f"exponent for {var!r} must be int, got {exp!r}")
            if exp < 0:
                raise PolyError(f"negative exponent for {var!r}: {exp}")
            if exp == 0:
                del items[var]
        self._powers: tuple[tuple[str, int], ...] = tuple(sorted(items.items()))
        self._hash = hash(self._powers)

    @classmethod
    def one(cls) -> "Monomial":
        """The constant monomial of degree 0."""
        return cls()

    @classmethod
    def var(cls, name: str, exp: int = 1) -> "Monomial":
        """The monomial ``name^exp``."""
        return cls({name: exp})

    @property
    def powers(self) -> dict[str, int]:
        """Variable-name to exponent mapping (copy)."""
        return dict(self._powers)

    @property
    def degree(self) -> int:
        """Total degree (sum of exponents)."""
        return sum(e for _, e in self._powers)

    @property
    def variables(self) -> frozenset[str]:
        """The set of variables appearing with nonzero exponent."""
        return frozenset(v for v, _ in self._powers)

    def exponent(self, var: str) -> int:
        """Exponent of ``var`` (0 when absent)."""
        for v, e in self._powers:
            if v == var:
                return e
        return 0

    def is_constant(self) -> bool:
        return not self._powers

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        merged = dict(self._powers)
        for var, exp in other._powers:
            merged[var] = merged.get(var, 0) + exp
        return Monomial(merged)

    def divides(self, other: "Monomial") -> bool:
        """True when ``self`` divides ``other`` exactly."""
        return all(other.exponent(v) >= e for v, e in self._powers)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        if not other.divides(self):
            raise PolyError(f"{other} does not divide {self}")
        quotient = dict(self._powers)
        for var, exp in other._powers:
            remaining = quotient.get(var, 0) - exp
            quotient[var] = remaining
        return Monomial(quotient)

    def sort_key(self) -> tuple:
        """Graded lexicographic sort key (larger key = larger monomial)."""
        # Lexicographic comparison on negated variable names is awkward;
        # instead compare (degree, exponent vector over sorted variables).
        return (self.degree, tuple((v, e) for v, e in self._powers))

    def __lt__(self, other: "Monomial") -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self._powers == other._powers

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> tuple[tuple[tuple[str, int], ...]]:
        # Never serialize the cached hash: str hashing is randomized
        # per process (PYTHONHASHSEED), so a pickled hash from another
        # process (e.g. a pool worker's result) would disagree with
        # freshly built equal monomials here, silently breaking every
        # dict/set lookup that mixes the two.  The state is wrapped in
        # a 1-tuple so it is never falsy — pickle protocols 0/1 skip
        # __setstate__ entirely for a falsy state, and the constant
        # monomial's powers are the empty tuple.
        return (self._powers,)

    def __setstate__(self, state: tuple[tuple[tuple[str, int], ...]]) -> None:
        (self._powers,) = state
        self._hash = hash(self._powers)

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self._powers)

    def __repr__(self) -> str:
        return f"Monomial({dict(self._powers)!r})"

    def __str__(self) -> str:
        if not self._powers:
            return "1"
        parts = []
        for var, exp in self._powers:
            parts.append(var if exp == 1 else f"{var}^{exp}")
        return "*".join(parts)
