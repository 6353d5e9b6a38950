"""Tests for trace collection, term generation, filtering, normalization."""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.errors import InterpError
from repro.lang import parse_program
from repro.sampling import (
    build_term_basis,
    collect_traces,
    dedup_columns,
    enumerate_inputs,
    evaluate_terms,
    fractional_inputs,
    growth_rate_filter,
    loop_dataset,
    normalize_rows,
    relax_initializers,
)
from repro.sampling.termgen import (
    ExternalTerm,
    evaluate_terms_exact,
    extend_state,
)


def test_enumerate_inputs_product_and_limit():
    combos = enumerate_inputs({"a": [1, 2], "b": [10, 20, 30]})
    assert len(combos) == 6
    assert enumerate_inputs({"a": [1, 2], "b": [10, 20]}, limit=3) == [
        {"a": 1, "b": 10},
        {"a": 1, "b": 20},
        {"a": 2, "b": 10},
    ]


def test_collect_traces_drops_assume_violations(ps2_program):
    traces = collect_traces(ps2_program, [{"k": -1}, {"k": 2}])
    assert len(traces) == 1


def test_collect_traces_raises_when_empty(ps2_program):
    with pytest.raises(InterpError):
        collect_traces(ps2_program, [{"k": -1}])


def test_loop_dataset_dedup_and_cap(ps2_program):
    traces = collect_traces(ps2_program, [{"k": v} for v in range(6)])
    states = loop_dataset(traces, 0)
    keys = {tuple(sorted(s.items())) for s in states}
    assert len(keys) == len(states)
    capped = loop_dataset(traces, 0, max_states=3)
    assert len(capped) == 3


def test_gather_states_keeps_first_occurrences_in_order():
    """The one dedup-and-cap: first occurrences in input order (key
    order inside a state does not matter), copies, at most the cap."""
    from repro.sampling.source import gather_states

    a, b, c = {"x": 1, "y": 2}, {"y": 2, "x": 1}, {"x": 3, "y": 4}
    kept = gather_states([a, b, c, a])
    assert kept == [a, c]
    assert kept[0] is not a
    assert gather_states([a, b, c], 1) == [a]
    assert gather_states([a, b, c], 0) == []
    assert gather_states([a, b, c], 2, dedup=False) == [a, b]


def test_loop_dataset_exit_states(ps2_program):
    traces = collect_traces(ps2_program, [{"k": 3}])
    with_exit = loop_dataset(traces, 0, include_exit=True, dedup=False)
    without = loop_dataset(traces, 0, include_exit=False, dedup=False)
    assert len(with_exit) == len(without) + 1


def test_build_term_basis_counts():
    basis = build_term_basis(["a", "b"], 2)
    assert len(basis) == 6  # 1, a, b, a^2, ab, b^2
    assert basis.names[0] == "1"


def test_term_basis_externals():
    ext = ExternalTerm("gcd", ("a", "b"))
    basis = build_term_basis(["a", "b"], 1, externals=[ext])
    assert "gcd(a,b)" in {str(m) for m in basis.monomials}


def test_extend_state():
    ext = ExternalTerm("gcd", ("a", "b"))
    state = extend_state({"a": 12, "b": 18}, [ext])
    assert state["gcd(a,b)"] == 6


def test_evaluate_terms_matches_exact():
    basis = build_term_basis(["x", "y"], 2)
    states = [{"x": 2, "y": 3}, {"x": -1, "y": 4}]
    approx = evaluate_terms(states, basis)
    exact = evaluate_terms_exact(states, basis)
    for i in range(2):
        for j in range(len(basis)):
            assert approx[i, j] == pytest.approx(float(exact[i][j]))


@pytest.mark.parametrize(
    "states, variables, externals",
    [
        ([{"x": 2, "y": -3}, {"x": 0, "y": 7}], ["x", "y"], []),
        ([{"x": Fraction(1, 2), "y": 3}, {"x": Fraction(-5, 3), "y": Fraction(2, 7)}],
         ["x", "y"], []),
        ([{"a": 12, "b": 18}, {"a": -4, "b": 10}], ["a", "b"],
         [ExternalTerm("gcd", ("a", "b"))]),
    ],
    ids=["int", "fraction", "external"],
)
def test_evaluate_terms_exact_matches_fraction_evaluation(states, variables, externals):
    """Every entry equals the monomial evaluated in ``Fraction``s, and
    an entry is an int wherever its variables hold ints."""
    basis = build_term_basis(variables, 3, externals=externals)
    exact = evaluate_terms_exact(states, basis)
    for state, row in zip(states, exact):
        extended = extend_state(state, externals)
        for mono, value in zip(basis.monomials, row):
            expected = math.prod(
                (Fraction(extended[v]) ** e for v, e in mono), start=Fraction(1)
            )
            assert value == expected
            if all(isinstance(extended[v], int) for v in mono.variables):
                assert type(value) is int


def test_normalize_rows_preserves_direction():
    data = np.array([[3.0, 4.0], [0.0, 0.0]])
    normalized = normalize_rows(data, target_norm=10.0)
    assert np.linalg.norm(normalized[0]) == pytest.approx(10.0)
    np.testing.assert_allclose(normalized[1], [0.0, 0.0])
    # Homogeneous constraints preserved.
    w = np.array([4.0, -3.0])
    assert normalized[0] @ w == pytest.approx(0.0)


def test_normalize_rows_rejects_bad_norm():
    with pytest.raises(ValueError):
        normalize_rows(np.ones((1, 2)), target_norm=0.0)


def test_growth_rate_filter_drops_huge_terms():
    matrix = np.array([[1.0, 2.0, 1e15], [1.0, 3.0, 2e15]])
    keep = growth_rate_filter(matrix, [0, 1, 2])
    assert keep == [0, 1]


def test_growth_rate_filter_keeps_constant():
    matrix = np.zeros((2, 1))
    assert growth_rate_filter(matrix, [0]) == [0]


def test_dedup_columns():
    matrix = np.array([[1.0, 1.0, 2.0], [3.0, 3.0, 4.0]])
    assert dedup_columns(matrix) == [0, 2]


def test_dedup_columns_with_tolerance():
    matrix = np.array([[1.0, 1.05, 2.0], [3.0, 3.0, 4.0]])
    assert dedup_columns(matrix) == [0, 1, 2]
    assert dedup_columns(matrix, tol=0.1) == [0, 2]


def test_duplicate_column_map():
    from repro.sampling import duplicate_column_map

    matrix = np.array(
        [[1.0, 1.0, 2.0, 1.0, 2.0], [3.0, 3.0, 4.0, 3.0, 4.0]]
    )
    assert duplicate_column_map(matrix) == {1: 0, 3: 0, 4: 2}


def test_duplicate_column_map_canonicalizes_negative_zero():
    from repro.sampling import duplicate_column_map

    matrix = np.array([[0.0, -0.0], [1.0, 1.0]])
    assert duplicate_column_map(matrix) == {1: 0}


def test_duplicate_column_map_exact_for_integer_dtypes():
    from repro.sampling import duplicate_column_map

    # Distinguishable as int64 but identical after float64 coercion.
    matrix = np.array([[2**53, 2**53 + 1], [1, 1]], dtype=np.int64)
    assert duplicate_column_map(matrix) == {}
    assert dedup_columns(matrix) == [0, 1]


def test_duplicate_column_map_object_dtype_fallback():
    from fractions import Fraction

    from repro.sampling import duplicate_column_map

    matrix = np.array(
        [[Fraction(1, 2), Fraction(1, 2), Fraction(3, 2)]], dtype=object
    )
    assert duplicate_column_map(matrix) == {1: 0}


def test_relax_initializers_adds_fractional_inputs():
    program = parse_program(
        """
program frac;
input k;
x = 0; y = 1;
while (y < k) { y = y + 1; x = x + y; }
"""
    )
    relaxed, names = relax_initializers(program)
    assert names == ["x", "y"]
    assert "x__frac" in relaxed.inputs and "y__frac" in relaxed.inputs
    # Zero offsets reproduce original semantics.
    from repro.lang import run_program

    base = run_program(program, {"k": 5}).final_state
    zeroed = run_program(
        relaxed, {"k": 5, "x__frac": 0, "y__frac": 0}
    ).final_state
    assert base["x"] == zeroed["x"] and base["y"] == zeroed["y"]


def test_relax_initializers_respects_variable_selection():
    program = parse_program("program p;\ninput k;\nx = 0; y = 1;")
    _, names = relax_initializers(program, variables=["y"])
    assert names == ["y"]


def test_fractional_inputs_grid():
    inputs = fractional_inputs([{"k": 3}], ["x"], interval=0.5, span=1.0)
    offsets = {i["x__frac"] for i in inputs}
    assert offsets == {0, Fraction(1, 2), -Fraction(1, 2), 1, -1}
    assert inputs[0]["x__frac"] == 0  # original semantics first


def test_fractional_inputs_limit():
    inputs = fractional_inputs(
        [{"k": 1}], ["x", "y"], interval=0.25, span=1.0, limit=10
    )
    assert len(inputs) == 10


def test_fractional_sampling_produces_rational_states():
    """Fig. 8c: relaxed initial values yield dense rational samples."""
    program = parse_program(
        """
program ps4;
input k;
assume (k >= 0);
x = 0; y = 0;
while (y < k) { y = y + 1; x = x + y * y * y; }
"""
    )
    relaxed, names = relax_initializers(program, variables=["x", "y"])
    inputs = fractional_inputs([{"k": 3}], names, interval=0.5)
    traces = collect_traces(relaxed, inputs)
    states = loop_dataset(traces, 0)
    assert any(
        isinstance(s["y"], Fraction) and s["y"].denominator == 2 for s in states
    )
