"""Tests for static analysis: path extraction and polynomial updates."""

from repro.lang import parse_program
from repro.lang.analysis import (
    expr_to_polynomial,
    extract_loop_paths,
    program_variables,
)
from repro.lang.parser import parse_expr
from tests.test_polynomial import P


def test_program_variables():
    program = parse_program(
        """
program vars;
input n;
x = 0;
while (x < n) { x = x + 1; y = x; }
"""
    )
    assert program_variables(program) == ["n", "x", "y"]


def test_expr_to_polynomial_basics():
    assert expr_to_polynomial(parse_expr("x * (y + 2)")) == P("x*y + 2*x")


def test_expr_to_polynomial_division_by_constant():
    poly = expr_to_polynomial(parse_expr("(x + y) / 2"))
    assert poly is not None
    assert poly.scale(2) == P("x + y")


def test_expr_to_polynomial_rejects_mod():
    assert expr_to_polynomial(parse_expr("mod(x, 2)")) is None


def test_expr_to_polynomial_rejects_nonconstant_division():
    assert expr_to_polynomial(parse_expr("x / y")) is None


def test_straightline_path(sqrt1_program):
    paths = extract_loop_paths(sqrt1_program.loops[0])
    assert paths is not None and len(paths) == 1
    updates = paths[0].updates
    assert updates["a"] == P("a + 1")
    assert updates["t"] == P("t + 2")
    # s reads the already-updated t: s + (t + 2).
    assert updates["s"] == P("s + t + 2")


def test_branching_paths():
    program = parse_program(
        """
program branch;
input n;
x = 0; y = 0;
while (x < n) {
  if (x > 2) { y = y + x; } else { y = y - 1; }
  x = x + 1;
}
"""
    )
    paths = extract_loop_paths(program.loops[0])
    assert paths is not None and len(paths) == 2
    updates = {str(p.updates["y"]) for p in paths}
    assert updates == {"y + x", "y - 1"}
    assert all(p.updates["x"] == P("x + 1") for p in paths)
    assert [p.conditions[0][1] for p in paths] == [True, False]


def test_nested_loop_body_unsupported():
    program = parse_program(
        """
program nested;
input n;
i = 0;
while (i < n) {
  j = 0;
  while (j < i) { j = j + 1; }
  i = i + 1;
}
"""
    )
    assert extract_loop_paths(program.loops[0]) is None
    assert extract_loop_paths(program.loops[1]) is not None


def test_nonpolynomial_body_unsupported():
    program = parse_program(
        """
program np;
input n;
x = n;
while (x > 1) { x = x / 2; y = mod(x, 3); }
"""
    )
    assert extract_loop_paths(program.loops[0]) is None
