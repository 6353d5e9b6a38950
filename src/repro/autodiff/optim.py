"""The Adam optimizer with multiplicative learning-rate decay.

The paper trains with Adam (lr=0.01, decay 0.9996 per epoch, max 5000
epochs); :class:`Adam` implements the standard Kingma-Ba update with an
optional per-step decay factor to match.

It is allocation-free in steady state: ``zero_grad`` zeroes the
existing gradient buffers in place (``Tensor._accumulate`` then adds
into them), and :meth:`Adam.step` stages every intermediate in
preallocated scratch buffers instead of allocating fresh arrays each
epoch; :meth:`Adam.clip_grad_norm` squares gradients into the same
scratch.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AutodiffError
from repro.autodiff.tensor import Tensor

# Exponential decay rates for the moment estimates, and the
# denominator's numerical stabilizer (Kingma & Ba's defaults).
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


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
            params: trainable tensors.
            lr: initial learning rate.
            decay: multiplicative lr decay applied after every step
                (the paper uses 0.9996).
        """
        if lr <= 0:
            raise AutodiffError(f"learning rate must be positive, got {lr}")
        self.params = [p for p in params if p.requires_grad]
        if not self.params:
            raise AutodiffError("optimizer received no trainable parameters")
        self.lr = lr
        self.decay = decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        # Two scratch buffers per parameter keep the update entirely
        # in place (no per-epoch allocations).
        self._s1 = [np.empty_like(p.data) for p in self.params]
        self._s2 = [np.empty_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        """Zero every parameter gradient, reusing the existing buffers."""
        for p in self.params:
            if p.grad is not None and p.grad.shape == p.data.shape:
                p.grad.fill(0.0)
            else:
                p.grad = None

    def step(self) -> None:
        self._step += 1
        beta1, beta2 = BETA1, BETA2
        bias1 = 1.0 - beta1**self._step
        bias2 = 1.0 - beta2**self._step
        for p, m, v, s1, s2 in zip(self.params, self._m, self._v, self._s1, self._s2):
            if p.grad is None:
                continue
            grad = p.grad
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
            p.data -= s2
        self.lr *= self.decay

    def clip_grad_norm(self, max_norm: float) -> float:
        """Clip the global gradient norm in place; returns the pre-clip norm.

        Each gradient is squared into the ``_s1`` scratch and summed with
        the same per-parameter ``add.reduce`` as ``(grad**2).sum()``.
        """
        total = 0.0
        for p, s1 in zip(self.params, self._s1):
            if p.grad is not None:
                np.square(p.grad, out=s1)
                total += float(np.add.reduce(s1, axis=None))
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for p in self.params:
                if p.grad is not None:
                    p.grad *= scale
        return norm

