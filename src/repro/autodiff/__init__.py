"""Reverse-mode automatic differentiation on numpy arrays.

A minimal but correct substitute for the slice of PyTorch the paper
uses: tensors with gradients, broadcasting elementwise ops, matrix
multiplication, reductions, piecewise functions via ``where``, and the
Adam optimizer with multiplicative learning-rate decay.  Gradients are
verified against central finite differences in the test suite.
"""

from repro.autodiff.tensor import Tensor, no_grad
from repro.autodiff.tape import Tape
from repro.autodiff.backend import (
    Backend,
    available_backends,
    get_backend,
    resolve_backend_name,
)
from repro.autodiff.functional import (
    concat,
    exp,
    fused_gated_tconorm,
    fused_gated_tnorm,
    gaussian,
    log,
    maximum,
    minimum,
    pbqu,
    relu,
    sigmoid,
    sqrt,
    tanh,
    where,
)
from repro.autodiff.optim import SGD, Adam, clip_grad_norm

__all__ = [
    "Tensor",
    "Tape",
    "Backend",
    "available_backends",
    "get_backend",
    "resolve_backend_name",
    "no_grad",
    "pbqu",
    "fused_gated_tnorm",
    "fused_gated_tconorm",
    "concat",
    "exp",
    "log",
    "sqrt",
    "sigmoid",
    "tanh",
    "relu",
    "gaussian",
    "where",
    "maximum",
    "minimum",
    "SGD",
    "Adam",
    "clip_grad_norm",
]
