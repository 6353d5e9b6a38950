"""Vectorized PBQU bound fitting (§5.2.2 of the paper).

The paper structures inequality dropout to consider *all combinations
of up to three terms* (constant included) of degree at most two.  Each
combination is a tiny atomic unit; since there can be hundreds, we
train them as one weight matrix with row-wise masks and row-wise L2
normalization — a single computational graph per epoch instead of one
per unit.

After training, each row is rounded and validated like any other
atomic unit; bounds that are loose (PBQU activation below threshold) or
never touch the data (violating the 'desired inequality' condition,
Eq. 4) are discarded.
"""

from __future__ import annotations

from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from repro.errors import TrainingError
from repro.autodiff.optim import Adam, flat_parameters
from repro.autodiff.tape import Tape
from repro.autodiff.tensor import Tensor
from repro.cln.activations import pbqu_ge
from repro.cln.extract import (
    _round_and_validate,
    make_exact_validator,
    make_touch_checker,
)
from repro.cln.model import GCLNConfig
from repro.cln.train import ANNEAL_INIT, LEARNING_RATE, LR_DECAY, _anneal_decay
from repro.sampling.termgen import TermBasis
from repro.smt.formula import Atom

# PBQU activation constants (§5.2.2): c1 shapes the side where the
# bound is violated, c2 the side where it holds.
C1 = 1.0
C2 = 50.0
# Bound-unit terms: monomials of degree <= INEQ_DEGREE over at most
# MAX_INEQ_VARS variables; terms per unit, constant included (§5.2.2:
# up to three); and the cap on bound units per bank.
INEQ_DEGREE = 2
MAX_INEQ_VARS = 2
_MAX_BOUND_TERMS = 3
_MAX_BOUND_UNITS = 600
# A trained row becomes a candidate bound only when its mean PBQU
# activation over the data reaches this threshold.
INEQ_ACTIVATION_THRESHOLD = 0.5

# Early stop: halt once the post-anneal loss has not improved by
# _LOSS_TOLERANCE for _EARLY_STOP_PATIENCE epochs.
_EARLY_STOP_PATIENCE = 150
_LOSS_TOLERANCE = 1e-4


def enumerate_bound_masks(
    term_variable_sets: Sequence[frozenset[str]],
    term_degrees: Sequence[int],
) -> np.ndarray:
    """Masks for every small term combination.

    Each mask keeps the constant term plus up to two non-constant
    monomials of degree <= ``INEQ_DEGREE`` drawn from a common
    variable subset of size <= ``MAX_INEQ_VARS``.

    Returns:
        Boolean matrix of shape (n_units, n_terms).
    """
    n_terms = len(term_variable_sets)
    constant_idx = [j for j in range(n_terms) if not term_variable_sets[j]]
    if not constant_idx:
        raise TrainingError("term basis must include the constant term")
    const = constant_idx[0]
    eligible = [
        j
        for j in range(n_terms)
        if term_variable_sets[j]
        and term_degrees[j] <= INEQ_DEGREE
        and len(term_variable_sets[j]) <= MAX_INEQ_VARS
    ]
    masks: list[np.ndarray] = []
    seen: set[frozenset[int]] = set()
    for size in range(1, _MAX_BOUND_TERMS):
        for combo in combinations(eligible, size):
            all_vars: set[str] = set()
            for j in combo:
                all_vars |= term_variable_sets[j]
            if len(all_vars) > MAX_INEQ_VARS:
                continue
            key = frozenset(combo)
            if key in seen:
                continue
            seen.add(key)
            mask = np.zeros(n_terms, dtype=bool)
            mask[const] = True
            for j in combo:
                mask[j] = True
            masks.append(mask)
            if len(masks) >= _MAX_BOUND_UNITS:
                return np.stack(masks)
    if not masks:
        raise TrainingError("no eligible inequality term combinations")
    return np.stack(masks)


class BoundBank:
    """A batch of independent PBQU bound units trained jointly."""

    def __init__(
        self,
        masks: np.ndarray,
        config: GCLNConfig,
        rng: np.random.Generator,
    ):
        if masks.ndim != 2 or masks.dtype != bool:
            raise TrainingError("masks must be a 2-D boolean matrix")
        self.masks = masks
        self.config = config
        init = rng.normal(0.0, 1.0, size=masks.shape)
        init[~masks] = 0.0
        [self.weight] = flat_parameters([init])
        self._mask_tensor = Tensor(masks.astype(np.float64))

    def effective_weights(self) -> Tensor:
        w = self.weight * self._mask_tensor
        norms = ((w * w).sum(axis=1, keepdims=True) + 1e-12) ** 0.5
        return w / norms

    def forward(self, X: Tensor, relax_scale: float = 1.0, c1=None) -> Tensor:
        """Activations of shape (samples, n_units).

        ``c1`` (float or 0-d numpy box) overrides ``C1`` scaled by
        ``relax_scale`` — the taped trainer passes a box it anneals in
        place.
        """
        residuals = X @ self.effective_weights().T
        if c1 is None:
            c1 = C1 * relax_scale
        return pbqu_ge(residuals, c1, C2)

    def weights_numpy(self) -> np.ndarray:
        w = self.weight.data * self.masks
        norms = np.sqrt((w**2).sum(axis=1, keepdims=True)) + 1e-12
        return w / norms


def train_bound_bank(bank: BoundBank, data: np.ndarray) -> float:
    """Fit every bound unit for up to ``bank.config.max_epochs`` epochs;
    returns the final loss."""
    epochs = bank.config.max_epochs
    X = Tensor(data)
    optimizer = Adam([bank.weight], lr=LEARNING_RATE, decay=LR_DECAY)
    anneal_decay = _anneal_decay(epochs)

    c1_box = np.array(C1 * ANNEAL_INIT)
    tape = Tape()
    loss_node: list[Tensor] = []

    def build() -> Tensor:
        loss_node.clear()
        loss = (1.0 - bank.forward(X, c1=c1_box)).sum()
        loss_node.append(loss)
        return loss

    relax_scale = ANNEAL_INIT
    best = float("inf")
    stale = 0
    value = float("inf")
    for _epoch in range(1, epochs + 1):
        c1_box[...] = C1 * relax_scale
        optimizer.zero_grad()
        tape.step(build)
        optimizer.clip_grad_norm(1000.0)
        optimizer.step()
        relax_scale = max(relax_scale * anneal_decay, 1.0)
        value = float(loss_node[0].data)
        if not np.isfinite(value):
            raise TrainingError(f"bound-bank loss diverged to {value}")
        if relax_scale > 1.0:
            best = min(best, value)
            continue
        if value < best - _LOSS_TOLERANCE:
            best = value
            stale = 0
        else:
            stale += 1
        if stale >= _EARLY_STOP_PATIENCE:
            break
    return value


def extract_bound_atoms(
    bank: BoundBank,
    basis: TermBasis,
    states: Sequence[Mapping[str, object]],
    data: np.ndarray,
) -> list[Atom]:
    """Validated, tight inequality atoms from every bank row."""
    validator = make_exact_validator(states, basis)
    touch = make_touch_checker(states, basis)
    weights = bank.weights_numpy()
    with_nograd = bank.forward(Tensor(data)).data
    mean_act = with_nograd.mean(axis=0)
    atoms: list[Atom] = []
    seen: set[str] = set()
    for row in range(weights.shape[0]):
        if mean_act[row] < INEQ_ACTIVATION_THRESHOLD:
            continue
        mask_idx = [int(i) for i in np.flatnonzero(bank.masks[row])]
        atom = _round_and_validate(
            weights[row, mask_idx], mask_idx, basis, validator, ">=", touch
        )
        if atom is None:
            continue
        key = str(atom.poly)
        if key not in seen:
            seen.add(key)
            atoms.append(atom)
    return atoms
