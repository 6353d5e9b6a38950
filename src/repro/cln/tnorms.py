"""T-norms, t-conorms, and their gated variants (§2.2, §4.1).

All functions operate on :class:`~repro.autodiff.tensor.Tensor` values
holding continuous truth values in [0, 1].  The gated t-norm

    T_G(x1..xk; g1..gk) = prod_i (1 + g_i * (x_i - 1))

reduces to the product t-norm when all gates are 1 and ignores input i
when g_i = 0; the gated t-conorm is its De Morgan dual

    T'_G(x1..xk; g1..gk) = 1 - prod_i (1 - g_i * x_i).

Both are continuous and monotone in the inputs and gates, which is what
makes them trainable (Theorem 4.1 gives soundness when gates converge
to {0, 1}).
"""

from __future__ import annotations

from repro.autodiff.functional import (
    fused_gated_tconorm,
    fused_gated_tnorm,
    maximum,
    minimum,
)
from repro.autodiff.tensor import Tensor


def product_tnorm(values: Tensor, axis: int = -1) -> Tensor:
    """Product t-norm ``x ⊗ y = x*y`` reduced along ``axis``."""
    axis = axis if axis >= 0 else values.ndim + axis
    return values.prod(axis=axis)


def product_tconorm(values: Tensor, axis: int = -1) -> Tensor:
    """Product t-conorm ``x ⊕ y = 1 - (1-x)(1-y)`` along ``axis``."""
    axis = axis if axis >= 0 else values.ndim + axis
    return 1.0 - (1.0 - values).prod(axis=axis)


def godel_tnorm(x: Tensor, y: Tensor) -> Tensor:
    """Gödel t-norm ``min(x, y)`` (kept for the t-norm ablation)."""
    return minimum(x, y)


def godel_tconorm(x: Tensor, y: Tensor) -> Tensor:
    """Gödel t-conorm ``max(x, y)``."""
    return maximum(x, y)


def gated_tnorm(values: Tensor, gates: Tensor, axis: int = -1) -> Tensor:
    """Gated t-norm over ``values`` with broadcastable ``gates``.

    With the product t-norm this is ``prod(1 + g*(v - 1))`` along
    ``axis``; gate 1 passes the value through, gate 0 contributes the
    t-norm identity 1.  Implemented as one fused graph node the tape
    replays (see :func:`repro.autodiff.functional.fused_gated_tnorm`).
    """
    return fused_gated_tnorm(values, gates, axis=axis)


def gated_tconorm(values: Tensor, gates: Tensor, axis: int = -1) -> Tensor:
    """Gated t-conorm: ``1 - prod(1 - g*v)`` along ``axis``.

    Gate 1 passes the value through, gate 0 contributes the t-conorm
    identity 0.  One fused graph node.
    """
    return fused_gated_tconorm(values, gates, axis=axis)
