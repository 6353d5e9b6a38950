"""Gated Continuous Logic Networks — the paper's core contribution.

Exports the G-CLN model (Fig. 9 architecture; its atomic units learn
equalities), the activation functions (Gaussian equality relaxation,
PBQU inequality relaxation, the original CLN sigmoid relaxation), gated
t-norms/t-conorms (§4.1), the training loop with gate regularization
(§5.2.1), and formula extraction (Algorithm 1).  Tight bounds are
learned by one PBQU learner, :class:`repro.cln.bounds.BoundBank`
(§5.2.2).
"""

from repro.cln.tnorms import (
    product_tnorm,
    product_tconorm,
    gated_tnorm,
    gated_tconorm,
    godel_tnorm,
    godel_tconorm,
)
from repro.cln.activations import (
    gaussian_equality,
    pbqu_ge,
    pbqu_le,
    sigmoid_ge,
    pbqu_ge_numpy,
    sigmoid_ge_numpy,
    gaussian_equality_numpy,
)
from repro.cln.model import GCLN, GCLNConfig
from repro.cln.train import (
    RestartOutcome,
    TrainResult,
    train_gcln,
    train_gcln_restarts,
)
from repro.cln.extract import extract_formula, extract_equalities

__all__ = [
    "product_tnorm",
    "product_tconorm",
    "gated_tnorm",
    "gated_tconorm",
    "godel_tnorm",
    "godel_tconorm",
    "gaussian_equality",
    "pbqu_ge",
    "pbqu_le",
    "sigmoid_ge",
    "pbqu_ge_numpy",
    "sigmoid_ge_numpy",
    "gaussian_equality_numpy",
    "GCLN",
    "GCLNConfig",
    "TrainResult",
    "RestartOutcome",
    "train_gcln",
    "train_gcln_restarts",
    "extract_formula",
    "extract_equalities",
]
