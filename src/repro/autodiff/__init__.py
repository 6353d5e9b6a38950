"""Reverse-mode automatic differentiation on numpy arrays.

A minimal but correct substitute for the slice of PyTorch the paper
uses: tensors with gradients, broadcasting elementwise ops, matrix
multiplication, reductions, the fused CLN kernels, and the Adam
optimizer with multiplicative learning-rate decay, which steps one
flat parameter vector (:func:`flat_parameters`).  Training graphs
are recorded on a :class:`Tape` and replayed through a compiled plan
(:mod:`repro.autodiff.plan`); the tape's closure walker is the
reference it is tested against.  Gradients are verified against
central finite differences in the test suite.
"""

from repro.autodiff.tensor import Tensor
from repro.autodiff.tape import Tape
from repro.autodiff.functional import (
    fused_gated_tconorm,
    fused_gated_tnorm,
    gaussian,
    pbqu,
    sigmoid,
)
from repro.autodiff.optim import Adam, flat_parameters

__all__ = [
    "Tensor",
    "Tape",
    "pbqu",
    "fused_gated_tnorm",
    "fused_gated_tconorm",
    "sigmoid",
    "gaussian",
    "Adam",
    "flat_parameters",
]
