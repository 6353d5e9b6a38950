"""Optimizers: SGD and Adam with multiplicative learning-rate decay.

The paper trains with Adam (lr=0.01, decay 0.9996 per epoch, max 5000
epochs); :class:`Adam` implements the standard Kingma-Ba update with an
optional per-step decay factor to match.

Both optimizers are allocation-free in steady state: ``zero_grad``
zeroes the existing gradient buffers in place (``Tensor._accumulate``
then adds into them), and :meth:`Adam.step` stages every intermediate
in preallocated scratch buffers instead of allocating fresh arrays
each epoch.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import AutodiffError
from repro.autodiff.tensor import Tensor


class Optimizer:
    """Base optimizer over a list of parameter tensors."""

    def __init__(self, params: list[Tensor], lr: float):
        if lr <= 0:
            raise AutodiffError(f"learning rate must be positive, got {lr}")
        self.params = [p for p in params if p.requires_grad]
        if not self.params:
            raise AutodiffError("optimizer received no trainable parameters")
        self.lr = lr

    def zero_grad(self) -> None:
        """Zero every parameter gradient, reusing the existing buffers."""
        for p in self.params:
            if p.grad is not None and p.grad.shape == p.data.shape:
                p.grad.fill(0.0)
            else:
                p.grad = None

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Plain stochastic gradient descent with optional momentum."""

    def __init__(self, params: list[Tensor], lr: float, momentum: float = 0.0):
        super().__init__(params, lr)
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            if self.momentum:
                v *= self.momentum
                v += p.grad
                p.data -= self.lr * v
            else:
                p.data -= self.lr * p.grad


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba 2015) with multiplicative lr decay."""

    def __init__(
        self,
        params: list[Tensor],
        lr: float = 0.01,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        decay: float = 1.0,
    ):
        """
        Args:
            params: trainable tensors.
            lr: initial learning rate.
            betas: exponential decay rates for the moment estimates.
            eps: numerical stabilizer.
            decay: multiplicative lr decay applied after every step
                (the paper uses 0.9996).
        """
        super().__init__(params, lr)
        self.betas = betas
        self.eps = eps
        self.decay = decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        # Two scratch buffers per parameter keep the update entirely
        # in place (no per-epoch allocations).
        self._s1 = [np.empty_like(p.data) for p in self.params]
        self._s2 = [np.empty_like(p.data) for p in self.params]

    def step(self) -> None:
        self._step += 1
        beta1, beta2 = self.betas
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
            s1 += self.eps
            np.divide(m, bias1, out=s2)
            s2 *= self.lr
            s2 /= s1
            p.data -= s2
        self.lr *= self.decay


def clip_grad_norm(params: list[Tensor], max_norm: float) -> float:
    """Clip the global gradient norm in place; returns the pre-clip norm."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad**2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


def clip_grad_norm_groups(
    groups: Sequence[list[Tensor]], max_norm: float
) -> list[float]:
    """Clip each parameter group by its own global norm.

    Used by batched multi-restart training: every restart's parameters
    form one group, so the clipping a restart experiences is identical
    to what it would see trained alone.
    """
    return [clip_grad_norm(list(group), max_norm) for group in groups]
