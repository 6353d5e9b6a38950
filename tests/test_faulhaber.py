"""Tests for Faulhaber power-sum closed forms and term enumeration."""


import pytest
from hypothesis import given, strategies as st

from repro.errors import PolyError
from repro.poly.faulhaber import (
    monomial_terms_up_to_degree,
    power_sum_polynomial,
)
from tests.test_polynomial import P


@given(st.integers(0, 6), st.integers(0, 20))
def test_power_sum_matches_direct_sum(k, n):
    closed = power_sum_polynomial(k)
    direct = sum(i**k for i in range(1, n + 1))
    assert closed.evaluate({"y": n}) == direct


def test_ps2_invariant():
    # ps2: 2x == y^2 + y.
    assert power_sum_polynomial(1).scale(2) == P("y*y + y")


def test_ps4_invariant():
    # ps4: 4x == y^4 + 2y^3 + y^2.
    assert power_sum_polynomial(3).scale(4) == P("y*y*y*y + 2*y*y*y + y*y")


def test_power_sum_degree():
    for k in range(5):
        assert power_sum_polynomial(k).degree == k + 1


def test_negative_exponent_rejected():
    with pytest.raises(PolyError):
        power_sum_polynomial(-1)


def test_term_enumeration_count():
    # C(n_vars + d, d) monomials of degree <= d.
    terms = monomial_terms_up_to_degree(["x", "y", "z"], 2)
    assert len(terms) == 10


def test_term_enumeration_sorted_and_unique():
    terms = monomial_terms_up_to_degree(["a", "b"], 3)
    assert len(set(terms)) == len(terms)
    degrees = [t.degree for t in terms]
    assert degrees == sorted(degrees)


def test_term_enumeration_degree_zero():
    terms = monomial_terms_up_to_degree(["x"], 0)
    assert len(terms) == 1 and terms[0].is_constant()


def test_term_enumeration_negative_rejected():
    with pytest.raises(PolyError):
        monomial_terms_up_to_degree(["x"], -1)
