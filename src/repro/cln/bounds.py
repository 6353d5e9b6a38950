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
from repro.autodiff.optim import Adam, clip_grad_norm
from repro.autodiff.tape import Tape
from repro.autodiff.tensor import Tensor
from repro.cln.activations import pbqu_ge
from repro.cln.extract import (
    _round_and_validate,
    make_exact_validator,
    make_touch_checker,
)
from repro.cln.model import AtomicKind, GCLNConfig
from repro.sampling.termgen import TermBasis
from repro.smt.formula import Atom


def enumerate_bound_masks(
    term_variable_sets: Sequence[frozenset[str]],
    term_degrees: Sequence[int],
    config: GCLNConfig,
    max_terms: int = 3,
    max_units: int = 600,
) -> np.ndarray:
    """Masks for every small term combination.

    Each mask keeps the constant term plus 1..(max_terms-1) non-constant
    monomials of degree <= ``config.ineq_degree`` drawn from a common
    variable subset of size <= ``config.max_ineq_vars``.

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
        and term_degrees[j] <= config.ineq_degree
        and len(term_variable_sets[j]) <= config.max_ineq_vars
    ]
    masks: list[np.ndarray] = []
    seen: set[frozenset[int]] = set()
    for size in range(1, max_terms):
        for combo in combinations(eligible, size):
            all_vars: set[str] = set()
            for j in combo:
                all_vars |= term_variable_sets[j]
            if len(all_vars) > config.max_ineq_vars:
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
            if len(masks) >= max_units:
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
        self.weight = Tensor(init, requires_grad=True)
        self._mask_tensor = Tensor(masks.astype(np.float64))

    def effective_weights(self) -> Tensor:
        w = self.weight * self._mask_tensor
        norms = ((w * w).sum(axis=1, keepdims=True) + 1e-12) ** 0.5
        return w / norms

    def forward(self, X: Tensor, relax_scale: float = 1.0, c1=None) -> Tensor:
        """Activations of shape (samples, n_units).

        ``c1`` (float or 0-d numpy box) overrides the config constant
        scaled by ``relax_scale`` — the taped trainer passes a box it
        anneals in place.
        """
        residuals = X @ self.effective_weights().T
        if c1 is None:
            c1 = self.config.c1 * relax_scale
        return pbqu_ge(residuals, c1, self.config.c2)

    def weights_numpy(self) -> np.ndarray:
        w = self.weight.data * self.masks
        norms = np.sqrt((w**2).sum(axis=1, keepdims=True)) + 1e-12
        return w / norms


def train_bound_bank(
    bank: BoundBank,
    data: np.ndarray,
    max_epochs: int | None = None,
    early_stop_patience: int = 150,
    loss_tolerance: float = 1e-4,
) -> float:
    """Fit every bound unit; returns the final loss."""
    config = bank.config
    epochs = max_epochs if max_epochs is not None else config.max_epochs
    X = Tensor(data)
    optimizer = Adam([bank.weight], lr=config.learning_rate, decay=config.lr_decay)
    anneal_init = max(config.anneal_init, 1.0)
    anneal_epochs = max(1, epochs // 2)
    anneal_decay = anneal_init ** (-1.0 / anneal_epochs)

    c1_box = np.array(config.c1 * anneal_init)
    tape = Tape()
    loss_node: list[Tensor] = []

    def build() -> Tensor:
        loss_node.clear()
        loss = (1.0 - bank.forward(X, c1=c1_box)).sum()
        loss_node.append(loss)
        return loss

    relax_scale = anneal_init
    best = float("inf")
    stale = 0
    value = float("inf")
    for _epoch in range(1, epochs + 1):
        c1_box[...] = config.c1 * relax_scale
        optimizer.zero_grad()
        tape.step(build)
        clip_grad_norm([bank.weight], 1000.0)
        optimizer.step()
        relax_scale = max(relax_scale * anneal_decay, 1.0)
        value = float(loss_node[0].data)
        if not np.isfinite(value):
            raise TrainingError(f"bound-bank loss diverged to {value}")
        if relax_scale > 1.0:
            best = min(best, value)
            continue
        if value < best - loss_tolerance:
            best = value
            stale = 0
        else:
            stale += 1
        if stale >= early_stop_patience:
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
    threshold = bank.config.ineq_activation_threshold
    for row in range(weights.shape[0]):
        if mean_act[row] < threshold:
            continue
        mask_idx = [int(i) for i in np.flatnonzero(bank.masks[row])]
        atom = _round_and_validate(
            weights[row, mask_idx],
            mask_idx,
            basis,
            validator,
            bank.config.max_denominators,
            AtomicKind.GE,
            touch,
        )
        if atom is None:
            continue
        key = str(atom.poly)
        if key not in seen:
            seen.add(key)
            atoms.append(atom)
    return atoms
