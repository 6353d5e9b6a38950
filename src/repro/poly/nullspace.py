"""Exact rational nullspace and row-space computation, fraction-free.

The Guess-and-Check baseline [Sharma et al. 2013] learns polynomial
equality invariants by computing the nullspace of the data matrix whose
columns are candidate monomial terms evaluated on the samples: every
nullspace vector is an equality that holds on all samples.  We compute
the nullspace exactly so the recovered coefficients are integral, never
floating-point guesses.

The elimination is fraction-free Gauss-Jordan: each row is scaled to
ints by the lcm of its denominators (rows that are all ints are taken
as they are), a pivot row eliminates a column from another row by
cross-multiplication, and every updated row is divided by the gcd of
its entries.  Each row stays a nonzero multiple of the corresponding
row of the reduced row echelon form, which is unique, so the basis is
the one ``Fraction`` Gauss-Jordan would give.

The same elimination gives :func:`row_space_basis`.  Restricting the
basis rows to a column subset spans the same space as restricting the
original rows to it, so both have the same nullspace and, by the
uniqueness of the reduced row echelon form, :func:`rational_nullspace`
returns the same vectors for either.  Exact extraction uses this to
eliminate a loop's sample matrix once and then solve each small
column support on its r ≤ ncols basis rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from repro.errors import PolyError


def rational_nullspace(rows: Sequence[Sequence[object]]) -> list[list[Fraction]]:
    """Basis of the right nullspace of a matrix, exactly.

    Args:
        rows: matrix rows; entries are int/Fraction (floats must be
            integral-valued).

    Returns:
        A list of basis vectors (each ``list[Fraction]`` of length
        ``ncols``) spanning ``{v : A @ v = 0}``.
    """
    if not rows:
        return []
    matrix = _integer_matrix(rows)
    ncols = len(matrix[0])
    pivot_cols = _gauss_jordan(matrix)
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis: list[list[Fraction]] = []
    for free in free_cols:
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row_idx, pivot_col in enumerate(pivot_cols):
            row = matrix[row_idx]
            vec[pivot_col] = Fraction(-row[free], row[pivot_col])
        basis.append(vec)
    return basis


def row_space_basis(rows: Sequence[Sequence[object]]) -> list[list[int]]:
    """Integer rows spanning the row space of a matrix, exactly.

    Args:
        rows: matrix rows, as for :func:`rational_nullspace`.

    Returns:
        The nonzero rows of the reduced row echelon form, each scaled
        to a primitive integer row, in pivot order.  A matrix with rows
        but rank 0 keeps one zero row, so that a restriction of the
        result still has a row: ``rational_nullspace([])`` is empty,
        while a zero row leaves every vector in the nullspace.
    """
    if not rows:
        return []
    matrix = _integer_matrix(rows)
    rank = len(_gauss_jordan(matrix))
    return matrix[: max(rank, 1)]


def _gauss_jordan(matrix: list[list[int]]) -> list[int]:
    """Reduce ``matrix`` in place; return its pivot columns in row order.

    The pivot is the first nonzero entry of the column at or below row
    r, as in the Fraction elimination.  Afterwards row ``i`` is a
    multiple of the reduced row echelon form's row ``i``.
    """
    ncols = len(matrix[0])
    pivot_cols: list[int] = []
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
        pivot_vec = matrix[r]
        pivot = pivot_vec[c]
        for i in range(len(matrix)):
            factor = matrix[i][c]
            if i != r and factor != 0:
                matrix[i] = _reduced(
                    [pivot * a - factor * b for a, b in zip(matrix[i], pivot_vec)]
                )
        pivot_cols.append(c)
        r += 1
        if r == len(matrix):
            break
    return pivot_cols


def _integer_matrix(rows: Sequence[Sequence[object]]) -> list[list[int]]:
    """Each row as a primitive integer row; all-int rows skip ``Fraction``."""
    ncols = len(rows[0])
    matrix: list[list[int]] = []
    for row in rows:
        if len(row) != ncols:
            raise PolyError("ragged matrix: rows differ in length")
        if all(type(x) is int for x in row):
            matrix.append(_reduced(list(row)))
        else:
            matrix.append(_integer_row([_frac(x) for x in row]))
    return matrix


def _integer_row(row: list[Fraction]) -> list[int]:
    """``row`` times the lcm of its denominators, divided by its gcd."""
    scale = 1
    for x in row:
        scale = math.lcm(scale, x.denominator)
    return _reduced([x.numerator * (scale // x.denominator) for x in row])


def _reduced(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    if g > 1:
        return [x // g for x in row]
    return row


def _frac(value: object) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    raise PolyError(f"cannot convert {value!r} to Fraction")
