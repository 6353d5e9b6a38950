"""The Adam optimizer over one flat parameter vector.

The paper trains with Adam (lr=0.01, decay 0.9996 per epoch, max 5000
epochs); :class:`Adam` implements the standard Kingma-Ba update with an
optional per-step decay factor to match.

A model keeps its parameters in one flat data vector and one flat
gradient vector (:func:`flat_parameters`): each parameter tensor is a
view into them, with its ``.grad`` bound from construction, so every
backward pass (eager, walker or compiled plan) accumulates straight
into the gradient vector and nothing allocates a leaf gradient.  Adam
steps that one contiguous ``(data, grad)`` pair: an update is one
fixed sequence of ufunc calls whatever the parameter count,
``zero_grad`` is one ``fill``, and :meth:`Adam.clip_grad_norm` squares
and scales the whole vector once.  Every one of those ops is
elementwise, so the result is bitwise the per-parameter update.  The
norm keeps one ``add.reduce`` per parameter segment, which rounds
exactly as a per-parameter ``(grad**2).sum()``.  Intermediates live in
preallocated scratch, so a step allocates nothing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import AutodiffError
from repro.autodiff.tensor import Tensor

# Exponential decay rates for the moment estimates, and the
# denominator's numerical stabilizer (Kingma & Ba's defaults).
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


def flat_parameters(inits: Sequence[np.ndarray]) -> list[Tensor]:
    """Trainable tensors viewing one flat data and one flat gradient vector.

    The data vector holds ``inits`` back to back, in order.  Each
    tensor's ``.grad`` is bound to its zeroed slice of the gradient
    vector, so the tensors tile the one ``(data, grad)`` pair
    :class:`Adam` steps.
    """
    arrays = [np.asarray(init, dtype=np.float64) for init in inits]
    data = np.empty(sum(a.size for a in arrays))
    grad = np.zeros_like(data)
    tensors = []
    start = 0
    for init in arrays:
        stop = start + init.size
        tensor = Tensor(data[start:stop].reshape(init.shape), requires_grad=True)
        tensor.data[...] = init
        tensor.grad = grad[start:stop].reshape(init.shape)
        tensors.append(tensor)
        start = stop
    return tensors


def _address(arr: np.ndarray) -> int:
    return arr.__array_interface__["data"][0]


def contiguous_span(arrays: Sequence[np.ndarray]) -> np.ndarray | None:
    """The flat float64 vector ``arrays`` tile back to back, or None.

    Every array must be a C-contiguous float64 view of one C-contiguous
    owner, each starting where the previous one ends.
    """
    first = arrays[0]
    owner = first if first.base is None else first.base
    if (
        not isinstance(owner, np.ndarray)
        or owner.dtype != np.float64
        or not owner.flags.c_contiguous
    ):
        return None
    start = end = _address(first)
    for arr in arrays:
        if (
            (arr if arr.base is None else arr.base) is not owner
            or arr.dtype != np.float64
            or not arr.flags.c_contiguous
            or _address(arr) != end
        ):
            return None
        end += arr.nbytes
    offset = (start - _address(owner)) // owner.itemsize
    return owner.reshape(-1)[offset : offset + (end - start) // owner.itemsize]


class Adam:
    """Adam optimizer (Kingma & Ba 2015) with multiplicative lr decay."""

    def __init__(
        self,
        params: list[Tensor],
        lr: float = 0.01,
        decay: float = 1.0,
    ):
        """
        Args:
            params: trainable tensors that tile one contiguous float64
                vector, in order (see :func:`flat_parameters`; a single
                tensor owning its data tiles trivially).  Their
                gradients must tile one vector the same way, or all be
                unset, in which case Adam binds them to one.
            lr: initial learning rate.
            decay: multiplicative lr decay applied after every step
                (the paper uses 0.9996).
        """
        if lr <= 0:
            raise AutodiffError(f"learning rate must be positive, got {lr}")
        self.params = [p for p in params if p.requires_grad]
        if not self.params:
            raise AutodiffError("optimizer received no trainable parameters")
        data = contiguous_span([p.data for p in self.params])
        if data is None:
            raise AutodiffError(
                "optimizer parameters must tile one contiguous float64 "
                "vector; allocate them with flat_parameters"
            )
        bounds = []
        start = 0
        for p in self.params:
            bounds.append((start, start + p.data.size))
            start += p.data.size
        grads = [p.grad for p in self.params]
        if all(g is None for g in grads):
            grad = np.zeros_like(data)
            for p, (lo, hi) in zip(self.params, bounds):
                p.grad = grad[lo:hi].reshape(p.data.shape)
        else:
            grad = None
            if all(
                g is not None and g.shape == p.data.shape
                for g, p in zip(grads, self.params)
            ):
                grad = contiguous_span(grads)
            if grad is None:
                raise AutodiffError(
                    "optimizer parameter gradients must tile one "
                    "contiguous float64 vector like the parameters"
                )
        self.lr = lr
        self.decay = decay
        self._step = 0
        self._data = data
        self._grad = grad
        self._m = np.zeros_like(data)
        self._v = np.zeros_like(data)
        # Two scratch vectors keep the update entirely in place (no
        # per-epoch allocations).
        self._s1 = np.empty_like(data)
        self._s2 = np.empty_like(data)
        # The squared gradient of each parameter, for the clip norm.
        self._squares = [self._s1[lo:hi] for lo, hi in bounds]

    def zero_grad(self) -> None:
        """Zero every parameter gradient in place."""
        self._grad.fill(0.0)

    def step(self) -> None:
        self._step += 1
        beta1, beta2 = BETA1, BETA2
        bias1 = 1.0 - beta1**self._step
        bias2 = 1.0 - beta2**self._step
        grad, m, v, s1, s2 = self._grad, self._m, self._v, self._s1, self._s2
        # m = beta1*m + (1-beta1)*grad
        m *= beta1
        np.multiply(grad, 1.0 - beta1, out=s1)
        m += s1
        # v = beta2*v + (1-beta2)*grad^2
        v *= beta2
        np.multiply(grad, grad, out=s1)
        s1 *= 1.0 - beta2
        v += s1
        # p -= (lr * m_hat) / (sqrt(v_hat) + eps), same evaluation
        # order as the textbook form for bitwise reproducibility.
        np.divide(v, bias2, out=s1)
        np.sqrt(s1, out=s1)
        s1 += EPS
        np.divide(m, bias1, out=s2)
        s2 *= self.lr
        s2 /= s1
        self._data -= s2
        self.lr *= self.decay

    def clip_grad_norm(self, max_norm: float) -> float:
        """Clip the global gradient norm in place; returns the pre-clip norm.

        The gradient vector is squared into scratch once; each
        parameter's segment is then summed with its own ``add.reduce``,
        as ``(grad**2).sum()`` per parameter would, so the norm rounds
        the same whatever the parameter layout.
        """
        np.square(self._grad, out=self._s1)
        total = 0.0
        for squares in self._squares:
            total += float(np.add.reduce(squares))
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            self._grad *= max_norm / norm
        return norm
