"""Elementwise functions, combinators, and fused CLN kernels.

Every op records an in-place forward closure (see
:mod:`repro.autodiff.tape`) alongside its backward closure, so graphs
built from them stay replayable.

The fused kernels at the bottom collapse the hot CLN chains into a
single graph node each:

* :func:`gaussian` — the equality relaxation (one node already; its σ
  may be a 0-d numpy "box" that an annealing loop updates in place).
* :func:`pbqu` — the PBQU inequality relaxation as one node (instead
  of a select over two 3-op rational branches).
* :func:`fused_gated_tnorm` / :func:`fused_gated_tconorm` — a whole
  gated clause (``prod(1 + g·(v-1))`` / ``1 - prod(1 - g·v)``) as one
  node instead of a sub/mul/add/prod chain.

Scalar hyperparameters (σ, c1, c2) accept either plain floats or 0-d
numpy arrays; closures resolve them with ``float(...)`` at call time,
so a training loop can anneal them by assigning into the box without
invalidating a recorded tape.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AutodiffError
from repro.autodiff.tensor import Tensor, exclusive_prod


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    clipped = np.clip(x, -500, 500)
    return np.where(
        x >= 0,
        1.0 / (1.0 + np.exp(-clipped)),
        np.exp(clipped) / (1.0 + np.exp(clipped)),
    )


def sigmoid(x: Tensor) -> Tensor:
    # Numerically stable logistic.
    data = np.asarray(_stable_sigmoid(x.data))

    def forward() -> None:
        data[...] = _stable_sigmoid(x.data)

    def backward(grad: np.ndarray) -> None:
        x._push(grad * data * (1.0 - data))

    return Tensor._result(data, (x,), backward, forward, ("sigmoid", None))


def gaussian(x: Tensor, sigma) -> Tensor:
    """The paper's equality relaxation ``exp(-x^2 / (2 sigma^2))`` (§4.2).

    ``sigma`` may be a float or a 0-d numpy box (annealed in place).
    """
    if float(sigma) <= 0:
        raise AutodiffError(f"sigma must be positive, got {float(sigma)}")

    def compute() -> np.ndarray:
        s = float(sigma)
        return np.exp(-(x.data**2) / (2.0 * s**2))

    data = np.asarray(compute())

    def forward() -> None:
        data[...] = compute()

    def backward(grad: np.ndarray) -> None:
        x._push(grad * data * (-x.data / float(sigma) ** 2))

    return Tensor._result(
        data, (x,), backward, forward, ("gaussian", {"sigma": sigma})
    )


def pbqu(t: Tensor, c1, c2) -> Tensor:
    """Fused PBQU relaxation of ``t >= 0`` (Eq. 3 of the paper).

        S(t) = c2^2 / (t^2 + c2^2)   if t >= 0  (slow decay)
             = c1^2 / (t^2 + c1^2)   if t <  0  (sharp penalty)

    One graph node instead of a select over two rational chains; the
    branch condition is recomputed from ``t.data`` on every replay, so
    the node is tape-safe.  ``c1``/``c2`` may be floats or 0-d boxes.
    """
    if float(c1) <= 0 or float(c2) <= 0:
        raise AutodiffError(
            f"PBQU constants must be positive, got {float(c1)}, {float(c2)}"
        )

    def compute() -> np.ndarray:
        td = t.data
        k = np.where(td >= 0.0, float(c2) ** 2, float(c1) ** 2)
        return k / (td * td + k)

    data = np.asarray(compute())

    def forward() -> None:
        data[...] = compute()

    def backward(grad: np.ndarray) -> None:
        td = t.data
        k = np.where(td >= 0.0, float(c2) ** 2, float(c1) ** 2)
        denom = td * td + k
        t._push(grad * (-2.0 * td * k) / (denom * denom))

    return Tensor._result(
        data, (t,), backward, forward, ("pbqu", {"c1": c1, "c2": c2})
    )


def fused_gated_tnorm(values: Tensor, gates: Tensor, axis: int = -1) -> Tensor:
    """Gated t-norm ``prod(1 + g*(v - 1))`` along ``axis`` as one node.

    ``gates`` broadcasts against ``values`` (e.g. per-clause gates of
    shape ``(clauses, literals)`` against ``(samples, clauses,
    literals)``); gradients are reduced back over broadcast axes.
    """
    axis = axis if axis >= 0 else values.ndim + axis
    inner = np.asarray(1.0 + gates.data * (values.data - 1.0))
    data = np.asarray(inner.prod(axis=axis))

    def forward() -> None:
        if inner.shape == values.data.shape:
            np.subtract(values.data, 1.0, out=inner)
            np.multiply(inner, gates.data, out=inner)
            np.add(inner, 1.0, out=inner)
        else:
            inner[...] = 1.0 + gates.data * (values.data - 1.0)
        np.prod(inner, axis=axis, out=data)

    def backward(grad: np.ndarray) -> None:
        g = np.expand_dims(np.asarray(grad, dtype=np.float64), axis=axis)
        g_inner = g * exclusive_prod(inner, axis)
        values._push(g_inner * gates.data)
        gates._push(g_inner * (values.data - 1.0))

    return Tensor._result(
        data, (values, gates), backward, forward,
        ("tnorm", {"axis": axis, "inner": inner}),
    )


def fused_gated_tconorm(values: Tensor, gates: Tensor, axis: int = -1) -> Tensor:
    """Gated t-conorm ``1 - prod(1 - g*v)`` along ``axis`` as one node."""
    axis = axis if axis >= 0 else values.ndim + axis
    inner = np.asarray(1.0 - gates.data * values.data)
    data = np.asarray(1.0 - inner.prod(axis=axis))

    def forward() -> None:
        np.multiply(gates.data, values.data, out=inner)
        np.subtract(1.0, inner, out=inner)
        np.prod(inner, axis=axis, out=data)
        np.subtract(1.0, data, out=data)

    def backward(grad: np.ndarray) -> None:
        g = np.expand_dims(np.asarray(grad, dtype=np.float64), axis=axis)
        g_inner = g * exclusive_prod(inner, axis)
        values._push(g_inner * gates.data)
        gates._push(g_inner * values.data)

    return Tensor._result(
        data, (values, gates), backward, forward,
        ("tconorm", {"axis": axis, "inner": inner}),
    )


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; ties send the gradient to the first argument."""
    data = np.asarray(np.maximum(a.data, b.data))

    def forward() -> None:
        np.maximum(a.data, b.data, out=data)

    def backward(grad: np.ndarray) -> None:
        g = np.asarray(grad, dtype=np.float64)
        take_a = a.data >= b.data
        a._push(np.where(take_a, g, 0.0))
        b._push(np.where(take_a, 0.0, g))

    return Tensor._result(data, (a, b), backward, forward, ("maximum", None))


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; ties send the gradient to the first argument."""
    data = np.asarray(np.minimum(a.data, b.data))

    def forward() -> None:
        np.minimum(a.data, b.data, out=data)

    def backward(grad: np.ndarray) -> None:
        g = np.asarray(grad, dtype=np.float64)
        take_a = a.data <= b.data
        a._push(np.where(take_a, g, 0.0))
        b._push(np.where(take_a, 0.0, g))

    return Tensor._result(data, (a, b), backward, forward, ("minimum", None))


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack same-shape tensors along a new axis."""
    if not tensors:
        raise AutodiffError("stack needs at least one tensor")
    data = np.stack([t.data for t in tensors], axis=axis)

    def forward() -> None:
        np.stack([t.data for t in tensors], axis=axis, out=data)

    def backward(grad: np.ndarray) -> None:
        g = np.asarray(grad, dtype=np.float64)
        for i, tensor in enumerate(tensors):
            tensor._push(np.take(g, i, axis=axis))

    return Tensor._result(
        data, tuple(tensors), backward, forward, ("stack", {"axis": axis})
    )
