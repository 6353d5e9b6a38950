"""Tests for utility modules: rational rounding, tables."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.utils import format_table, nice_coefficients, round_to_rational, scale_to_integer_coeffs
from repro.utils.rational import round_coefficient_vector


def test_round_to_rational():
    assert round_to_rational(0.5, 10) == Fraction(1, 2)
    assert round_to_rational(0.333, 10) == Fraction(1, 3)
    assert round_to_rational(-0.249, 4) == Fraction(-1, 4)


def test_round_to_rational_rejects_bad_input():
    with pytest.raises(ValueError):
        round_to_rational(1.0, 0)
    with pytest.raises(ValueError):
        round_to_rational(float("nan"), 10)


def test_scale_to_integer_coeffs():
    assert scale_to_integer_coeffs([Fraction(1, 2), Fraction(-1, 3)]) == [3, -2]
    assert scale_to_integer_coeffs([Fraction(4), Fraction(6)]) == [2, 3]


def test_scale_rejects_zero_vector():
    with pytest.raises(ValueError):
        scale_to_integer_coeffs([Fraction(0)])


def test_nice_coefficients_recovers_clean_ratio():
    # learned ~ 0.4472, -0.8944 is the unit vector of (1, -2)
    assert nice_coefficients([0.4473, -0.8943], 10) == [1, -2]


def test_nice_coefficients_drops_noise():
    assert nice_coefficients([1.0, 0.004, -0.5], 10) == [2, 0, -1]


def test_nice_coefficients_all_zero():
    assert nice_coefficients([0.0, 0.0], 10) is None
    assert nice_coefficients([1e-9, 1e-9], 10) == [1, 1]  # scaled to max


def test_round_coefficient_vector_rejects_nonfinite():
    assert round_coefficient_vector([float("inf")], 10) is None


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=6))
def test_nice_coefficients_fixed_point_on_integers(coeffs):
    if all(c == 0 for c in coeffs):
        return
    from math import gcd

    g = 0
    for c in coeffs:
        g = gcd(g, abs(c))
    expected = [c // g for c in coeffs]
    top = max(abs(c) for c in coeffs)
    scaled = [c / top for c in coeffs]
    assert nice_coefficients(scaled, max(abs(c) for c in expected)) == expected


def test_format_table_alignment():
    text = format_table(["name", "val"], [["a", 1], ["long-name", 22]])
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert len(lines) == 4
    assert "long-name" in lines[3]


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        format_table(["a"], [["x", "y"]])
