"""Candidate-term filters (§5.1.3 of the paper).

The paper adopts the growth-rate heuristic of Sharma et al. [33] to
discard monomials that cannot appear in an invariant because they grow
strictly faster along every trace than any program value they could be
balanced against.  Our implementation estimates each term's growth
order along traces and removes terms whose magnitude dwarfs every
degree-1 term by more than ``GROWTH_RATIO_CAP`` at the end of the
longest trace; exact duplicate columns are also merged.
"""

from __future__ import annotations

import numpy as np

# A higher-degree term is dropped when its maximum magnitude exceeds
# GROWTH_RATIO_CAP times the largest degree-1 magnitude (it could never
# be balanced in an equality), or MAGNITUDE_CAP outright (float overflow).
GROWTH_RATIO_CAP = 1e8
MAGNITUDE_CAP = 1e12


def growth_rate_filter(
    matrix: np.ndarray,
    degrees: list[int],
) -> list[int]:
    """Indices of terms to keep.

    Args:
        matrix: samples x terms data matrix.
        degrees: total degree of each term (degree-0 constant is always
            kept).

    Returns:
        Sorted list of column indices that survive.
    """
    if matrix.ndim != 2 or matrix.shape[1] != len(degrees):
        raise ValueError("matrix/degrees mismatch in growth_rate_filter")
    max_abs = np.abs(matrix).max(axis=0) if len(matrix) else np.zeros(len(degrees))
    linear_scale = max(
        (max_abs[j] for j, d in enumerate(degrees) if d == 1), default=1.0
    )
    linear_scale = max(linear_scale, 1.0)
    keep: list[int] = []
    for j, degree in enumerate(degrees):
        if degree == 0:
            keep.append(j)
            continue
        if max_abs[j] > MAGNITUDE_CAP:
            continue
        if max_abs[j] > GROWTH_RATIO_CAP * linear_scale:
            continue
        keep.append(j)
    return keep


def duplicate_column_map(matrix: np.ndarray) -> dict[int, int]:
    """Map each duplicate column index to its first occurrence.

    Columns are keyed by their byte representation, hashed once each
    (O(columns) instead of the pairwise O(columns²) comparison).  For
    float matrices, adding ``0.0`` first canonicalizes ``-0.0`` so the
    grouping matches elementwise equality; integer (and other exact)
    dtypes are hashed as-is to avoid lossy float coercion.  Object
    arrays fall back to pairwise comparison (their bytes are pointers).
    """
    first: dict[bytes, int] = {}
    dup_of: dict[int, int] = {}
    if matrix.dtype == object:
        keep: list[int] = []
        for j in range(matrix.shape[1]):
            for i in keep:
                if np.array_equal(matrix[:, i], matrix[:, j]):
                    dup_of[j] = i
                    break
            else:
                keep.append(j)
        return dup_of
    floating = np.issubdtype(matrix.dtype, np.floating)
    for j in range(matrix.shape[1]):
        column = matrix[:, j] + 0.0 if floating else matrix[:, j]
        key = column.tobytes()
        if key in first:
            dup_of[j] = first[key]
        else:
            first[key] = j
    return dup_of


def dedup_columns(matrix: np.ndarray, tol: float = 0.0) -> list[int]:
    """Indices of the first occurrence of each distinct column.

    Duplicate columns (e.g. a variable that equals another throughout
    the sampled traces) would make the learned coefficients
    unidentifiable; keeping one representative is enough because any
    invariant over the dropped column can be rewritten over the kept
    one on the sampled data.
    """
    if tol == 0.0:
        dup_of = duplicate_column_map(matrix)
        return [j for j in range(matrix.shape[1]) if j not in dup_of]
    keep: list[int] = []
    for j in range(matrix.shape[1]):
        duplicate = False
        for i in keep:
            if np.max(np.abs(matrix[:, i] - matrix[:, j])) <= tol:
                duplicate = True
                break
        if not duplicate:
            keep.append(j)
    return keep
