"""Template-based ungated CLN (CLN2INV [30]) — the Table 4 baseline.

The original CLN requires a formula template: a fixed conjunction (or
disjunction) of atomic equality units over all candidate terms, with no
gates, no term dropout, and no adaptive regularization.  Clauses with
poorly initialized weights cannot be pruned, which is exactly the
instability the paper's Table 4 measures: the baseline converges on
58.3% of runs vs 97.5% for the G-CLN.

``train_plain_cln`` trains one model (no restarts) and reports whether
a valid invariant could be extracted, which is the convergence
criterion used by the stability bench.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import TrainingError
from repro.autodiff.optim import Adam, flat_parameters
from repro.autodiff.tensor import Tensor
from repro.autodiff.functional import stack
from repro.cln.activations import gaussian_equality
from repro.cln.extract import make_exact_validator
from repro.cln.train import ANNEAL_INIT, LEARNING_RATE, LR_DECAY
from repro.poly.polynomial import Polynomial
from repro.sampling.termgen import TermBasis
from repro.smt.formula import Atom
from repro.utils.rational import nice_coefficients

# Width of every unit's Gaussian equality activation.
SIGMA = 0.1


class PlainCLN:
    """Fixed-template CLN: conjunction or disjunction of equality units.

    Every unit sees every term (no dropout masks, no gating).
    """

    def __init__(
        self,
        n_terms: int,
        n_units: int,
        rng: np.random.Generator,
        disjunction: bool = False,
    ):
        if n_units < 1:
            raise TrainingError("PlainCLN needs at least one unit")
        self.n_terms = n_terms
        self.disjunction = disjunction
        # One parameter vector, which Adam steps as a whole.
        self.weights = flat_parameters(
            [rng.normal(0.0, 1.0, size=n_terms) for _ in range(n_units)]
        )

    def unit_outputs(self, X: Tensor, relax_scale: float = 1.0) -> Tensor:
        outputs = []
        for w in self.weights:
            norm = ((w * w).sum() + 1e-12) ** 0.5
            r = X @ (w / norm)
            outputs.append(gaussian_equality(r, SIGMA * relax_scale))
        return stack(outputs, axis=1)

    def forward(self, X: Tensor, relax_scale: float = 1.0) -> Tensor:
        units = self.unit_outputs(X, relax_scale)
        if self.disjunction:
            return 1.0 - (1.0 - units).prod(axis=1)
        return units.prod(axis=1)

    def weight_vectors(self) -> list[np.ndarray]:
        out = []
        for w in self.weights:
            data = w.data
            norm = float(np.linalg.norm(data)) + 1e-12
            out.append(data / norm)
        return out


def train_plain_cln(
    model: PlainCLN,
    data: np.ndarray,
    basis: TermBasis,
    states: Sequence[Mapping[str, object]],
    max_epochs: int = 2000,
) -> list[Atom]:
    """Train the template model once and extract validated atoms.

    Returns the distinct valid equality atoms (possibly empty — that is
    a non-converged run for the stability study).  The annealing and
    Adam settings are the G-CLN trainer's constants
    (:mod:`repro.cln.train`), so the comparison isolates the
    architectural difference (gates/dropout), not the optimizer.
    """
    X = Tensor(data)
    optimizer = Adam(model.weights, lr=LEARNING_RATE, decay=LR_DECAY)
    anneal_epochs = max(1, max_epochs // 2)
    anneal_decay = ANNEAL_INIT ** (-1.0 / anneal_epochs)
    relax_scale = ANNEAL_INIT
    for _ in range(max_epochs):
        optimizer.zero_grad()
        loss = (1.0 - model.forward(X, relax_scale)).sum()
        loss.backward()
        optimizer.clip_grad_norm(100.0)
        optimizer.step()
        relax_scale = max(relax_scale * anneal_decay, 1.0)
        if not np.isfinite(loss.item()):
            return []

    # Extraction is the *published* CLN2INV recipe: scale by the max
    # weight, round with bounded denominators, validate, discard.  The
    # robustified multi-reference rescaling and support-guided recovery
    # belong to the G-CLN reproduction, not this baseline — giving the
    # baseline those improvements would mask exactly the instability
    # Table 4 measures.
    validator = make_exact_validator(states, basis)
    atoms: list[Atom] = []
    seen: set[str] = set()
    for vec in model.weight_vectors():
        for max_den in (10, 15, 30):
            coeffs = nice_coefficients(list(vec), max_den)
            if coeffs is None:
                continue
            poly = Polynomial(
                {m: c for m, c in zip(basis.monomials, coeffs)}
            )
            if poly.is_zero() or poly.is_constant():
                continue
            if not validator(poly, "=="):
                continue
            atom = Atom(poly.primitive(), "==")
            key = str(atom.poly)
            if key not in seen:
                seen.add(key)
                atoms.append(atom)
            break
    return atoms
