"""Cross-module property tests tying the substrates together.

These check the semantic contracts the pipeline relies on:

* symbolic path updates agree with the interpreter stepping the loop
  body (the foundation of the symbolic inductiveness check);
* formula simplification preserves evaluation;
* fractional relaxation with zero offsets is semantics-preserving;
* normalization never changes which homogeneous constraints fit;
* the integer evaluation path and fraction-free nullspace agree with
  their Fraction counterparts;
* a support's nullspace is the same on the row-space basis as on the
  full rows.
"""

import operator
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import PolyError
from repro.lang import parse_program
from repro.lang.analysis import extract_loop_paths
from repro.lang.interp import Interpreter
from repro.poly.monomial import Monomial
from repro.poly.nullspace import rational_nullspace, row_space_basis
from repro.poly.polynomial import Polynomial
from repro.sampling import normalize_rows, relax_initializers
from repro.smt.formula import COMPARISONS, And, Atom, Not, Or
from repro.smt.simplify import simplify
from tests.test_polynomial import P

_SQRT_BODY_PROGRAM = parse_program(
    """
program sym;
input n;
a = 0; s = 1; t = 1;
while (s <= n) { a = a + 1; t = t + 2; s = s + t; }
"""
)

_BRANCHY_PROGRAM = parse_program(
    """
program branchy;
input n;
x = 0; y = 0; i = 0;
while (i < n) {
  if (x > y) { y = y + 2 * x; x = x - 1; }
  else { x = x + 3; y = y - x; }
  i = i + 1;
}
"""
)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(-20, 20),
    st.integers(-20, 20),
    st.integers(-20, 20),
    st.integers(0, 20),
)
def test_symbolic_paths_match_interpreter(a, s, t, n):
    """Evaluating the path-update polynomials at a pre-state equals
    executing the loop body from that state."""
    program = _SQRT_BODY_PROGRAM
    loop = program.loops[0]
    paths = extract_loop_paths(loop)
    assert paths is not None and len(paths) == 1
    state = {"a": a, "s": s, "t": t, "n": n}
    interp = Interpreter(program)
    after = interp.execute_block(loop.body, state)
    for var, poly in paths[0].updates.items():
        assert poly.evaluate({k: Fraction(v) for k, v in state.items()}) == after[var]


@settings(max_examples=50, deadline=None)
@given(st.integers(-10, 10), st.integers(-10, 10), st.integers(-10, 10))
def test_branching_paths_cover_interpreter(x, y, i):
    """Exactly one path's conditions hold, and its updates match."""
    program = _BRANCHY_PROGRAM
    loop = program.loops[0]
    paths = extract_loop_paths(loop)
    assert paths is not None and len(paths) == 2
    state = {"x": x, "y": y, "i": i, "n": 100}
    interp = Interpreter(program)
    after = interp.execute_block(loop.body, state)
    matching = []
    for path in paths:
        holds = all(
            bool(interp._eval(cond, dict(state))) == polarity
            for cond, polarity in path.conditions
        )
        if holds:
            matching.append(path)
    assert len(matching) == 1
    exact_state = {k: Fraction(v) for k, v in state.items()}
    for var, poly in matching[0].updates.items():
        assert poly.evaluate(exact_state) == after[var]


_atoms = st.sampled_from(
    [
        Atom(P("x - 1"), "=="),
        Atom(P("x + y"), ">="),
        Atom(P("y - 2"), "<"),
        Atom(P("x*y - 4"), "!="),
        Atom(P("x - y"), "<="),
    ]
)


def _formulas(depth: int):
    if depth == 0:
        return _atoms
    sub = _formulas(depth - 1)
    return st.one_of(
        _atoms,
        st.builds(Not, sub),
        st.builds(lambda a, b: And([a, b]), sub, sub),
        st.builds(lambda a, b: Or([a, b]), sub, sub),
    )


@settings(max_examples=100, deadline=None)
@given(_formulas(3), st.integers(-4, 4), st.integers(-4, 4))
def test_simplify_preserves_evaluation(formula, x, y):
    point = {"x": Fraction(x), "y": Fraction(y)}
    assert simplify(formula).evaluate(point) == formula.evaluate(point)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 12))
def test_fractional_zero_offset_preserves_semantics(k):
    program = parse_program(
        """
program frac;
input k;
assume (k >= 0);
x = 0; y = 0;
while (y < k) { y = y + 1; x = x + y * y; }
"""
    )
    relaxed, names = relax_initializers(program)
    zero = {name + "__frac": 0 for name in names}
    base = Interpreter(program).run({"k": k})
    lifted = Interpreter(relaxed).run({"k": k, **zero})
    assert base.final_state["x"] == lifted.final_state["x"]
    assert len(base.snapshots) == len(lifted.snapshots)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-100, 100), min_size=3, max_size=3),
        min_size=1,
        max_size=6,
    ),
    st.lists(st.floats(-3, 3), min_size=3, max_size=3),
)
@example(rows=[[0.0, 0.0, 23.0]], w=[0.0, 0.0, 4.54e-41])
def test_normalization_preserves_constraint_satisfaction(rows, w):
    matrix = np.array(rows)
    weights = np.array(w)
    normalized = normalize_rows(matrix)

    # Row scaling by a positive constant preserves the sign of w·x.
    # The zero threshold must scale with each row's magnitude: a fixed
    # absolute cutoff classifies w·x ≈ 1e-12 differently before and
    # after the row is rescaled to norm 10.  No absolute floor either:
    # a scale of 0 already means w·x is exactly 0.  Scaling w by a
    # positive constant preserves every sign too; at max-abs 1 no
    # product w_j·x_j underflows (w = [0, 0, 5e-324] would: 1·w_3 is
    # the smallest subnormal, 0.5·w_3 rounds to 0).
    peak = np.abs(weights).max()
    if peak > 0:
        weights = weights / peak

    def signs(m: np.ndarray) -> np.ndarray:
        values = m @ weights
        scale = np.linalg.norm(m, axis=1) * np.linalg.norm(weights)
        return np.sign(np.where(np.abs(values) <= 1e-9 * scale, 0.0, values))

    mask = np.linalg.norm(matrix, axis=1) > 1e-9
    assert np.array_equal(signs(matrix)[mask], signs(normalized)[mask])


# -- integer evaluation path ≡ Fraction path --------------------------------

_VARS = ("x", "y", "z")
_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=12)
_monomials = st.dictionaries(st.sampled_from(_VARS), st.integers(0, 3)).map(Monomial)
_polys = st.lists(st.tuples(_monomials, _coefficients), max_size=6).map(Polynomial)
# Small values make zeros (and so ==/!= splits) common; huge ones pass 2^63.
_ints = st.one_of(st.integers(-6, 6), st.integers(-(2**80), 2**80))
_int_points = st.fixed_dictionaries({v: _ints for v in _VARS})
_mixed_points = st.fixed_dictionaries(
    {
        v: st.one_of(_ints, st.fractions(-9, 9, max_denominator=7), st.booleans())
        for v in _VARS
    }
)


def _over_fractions(point):
    """The same point with every value a Fraction: the Fraction loop's input."""
    return {k: Fraction(v) for k, v in point.items()}


@settings(max_examples=200, deadline=None)
@given(_polys, _int_points)
def test_integer_evaluation_matches_fraction_path(poly, point):
    exact = poly.evaluate(_over_fractions(point))
    if poly.variables:
        assert poly.evaluate_scaled(_over_fractions(point)) is None
    value = poly.evaluate(point)
    assert type(value) is Fraction and value == exact
    scaled = poly.evaluate_scaled(point)
    assert type(scaled) is int
    assert (scaled > 0, scaled == 0) == (exact > 0, exact == 0)


@settings(max_examples=200, deadline=None)
@given(_polys, _int_points, st.sampled_from(COMPARISONS))
def test_atom_integer_path_matches_fraction_path(poly, point, op):
    atom = Atom(poly, op)
    exact = poly.evaluate(_over_fractions(point))
    assert atom.evaluate(point) is _OPS[op](exact, 0)
    assert atom.evaluate(_over_fractions(point)) is _OPS[op](exact, 0)


@settings(max_examples=200, deadline=None)
@given(_polys, _mixed_points, st.sampled_from(COMPARISONS))
def test_mixed_points_take_the_fraction_path(poly, point, op):
    """Any non-int value read (Fraction, bool) declines the integer form."""
    all_ints = all(type(point[v]) is int for v in poly.variables)
    assert (poly.evaluate_scaled(point) is not None) is all_ints
    exact = poly.evaluate(_over_fractions(point))
    assert poly.evaluate(point) == exact
    assert Atom(poly, op).evaluate(point) is _OPS[op](exact, 0)


@settings(max_examples=50, deadline=None)
@given(_polys, _int_points, st.sampled_from(COMPARISONS))
def test_missing_variable_raises_on_both_paths(poly, point, op):
    if not poly.variables:
        return
    del point[min(poly.variables)]
    assert poly.evaluate_scaled(point) is None
    with pytest.raises(PolyError):
        poly.evaluate(point)
    with pytest.raises(PolyError):
        Atom(poly, op).evaluate(point)


@settings(max_examples=50, deadline=None)
@given(_polys, _int_points)
def test_polynomial_pickles_with_its_integer_form(poly, point):
    fresh = pickle.loads(pickle.dumps(poly))
    assert fresh == poly and fresh.evaluate(point) == poly.evaluate(point)
    value = poly.evaluate(point)  # the integer form is now cached
    restored = pickle.loads(pickle.dumps(poly))
    assert restored == poly and hash(restored) == hash(poly)
    assert restored._ints == poly._ints
    assert restored.evaluate(point) == value
    assert restored.evaluate_scaled(point) == poly.evaluate_scaled(point)


# -- fraction-free nullspace ≡ Fraction Gauss-Jordan ------------------------


def _fraction_nullspace(rows):
    """Gauss-Jordan over Fractions: the oracle for ``rational_nullspace``."""
    if not rows:
        return []
    ncols = len(rows[0])
    matrix = [[Fraction(x) for x in row] for row in rows]
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(matrix)):
            if matrix[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        matrix[r], matrix[pivot_row] = matrix[pivot_row], matrix[r]
        pivot = matrix[r][c]
        matrix[r] = [x / pivot for x in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][c] != 0:
                factor = matrix[i][c]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(matrix):
            break
    basis = []
    for free in (c for c in range(ncols) if c not in pivot_cols):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row_idx, pivot_col in enumerate(pivot_cols):
            vec[pivot_col] = -matrix[row_idx][free]
        basis.append(vec)
    return basis


@st.composite
def _rank_deficient_matrices(draw):
    """Rows that are integer combinations of fewer base rows."""
    ncols = draw(st.integers(1, 6))
    entries = st.one_of(
        st.integers(-9, 9),
        st.fractions(-9, 9, max_denominator=6),
        st.integers(-(2**70), 2**70),
    )
    base = draw(
        st.lists(
            st.lists(entries, min_size=ncols, max_size=ncols),
            min_size=1,
            max_size=max(1, ncols - 1),
        )
    )
    weights = st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base))
    rows = []
    for combo in draw(st.lists(weights, min_size=1, max_size=7)):
        row = [
            sum((w * Fraction(b[j]) for w, b in zip(combo, base)), Fraction(0))
            for j in range(ncols)
        ]
        # Mix int and Fraction entries, as exact term rows do.
        rows.append(
            [int(x) if x.denominator == 1 and draw(st.booleans()) else x for x in row]
        )
    return rows


@settings(max_examples=200, deadline=None)
@given(_rank_deficient_matrices())
def test_fraction_free_nullspace_matches_fraction_gauss_jordan(rows):
    basis = rational_nullspace(rows)
    assert basis == _fraction_nullspace(rows)
    for vec in basis:
        for row in rows:
            assert sum(Fraction(a) * v for a, v in zip(row, vec)) == 0


# -- a support's nullspace on the row-space basis ≡ on every row -----------


@st.composite
def _matrices_and_support(draw):
    """Int/Fraction matrices of every rank, duplicated rows, a support.

    The support is a random ordered subset of the columns, as
    extraction takes a unit's top-k terms by learned magnitude.
    """
    entry = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6))
    ncols = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("rank 0", "random", "rank deficient")))
    if kind == "rank 0":
        rows = [[0] * ncols for _ in range(draw(st.integers(1, 4)))]
    elif kind == "random":
        # At least ncols rows: almost always full column rank.
        row = st.lists(entry, min_size=ncols, max_size=ncols)
        rows = draw(st.lists(row, min_size=ncols, max_size=ncols + 3))
    else:
        rows = draw(_rank_deficient_matrices())
        ncols = len(rows[0])
    rows = rows + draw(st.lists(st.sampled_from(rows), max_size=3))
    support = draw(
        st.lists(st.integers(0, ncols - 1), min_size=1, max_size=ncols, unique=True)
    )
    return rows, support


@settings(max_examples=300, deadline=None)
@given(_matrices_and_support())
def test_support_nullspace_on_row_space_basis_matches_full_rows(case):
    rows, support = case
    basis = row_space_basis(rows)
    assert 1 <= len(basis) <= len(rows[0])
    assert all(type(x) is int for row in basis for x in row)

    def restrict(matrix):
        return [[row[j] for j in support] for row in matrix]

    assert rational_nullspace(restrict(basis)) == rational_nullspace(restrict(rows))
