"""The G-CLN model (Fig. 9 of the paper).

Architecture, bottom to top:

1. **Input**: the normalized samples-by-terms matrix (terms include the
   constant-1 column, so bias is an ordinary weight).
2. **Term dropout** (§5.1.3): each atomic unit owns a fixed binary mask
   over terms, drawn at random before training.
3. **Atomic units**: a linear layer with unit-L2 weight constraint
   (§5.1.2) followed by the Gaussian equality activation.  Tight bounds
   (the PBQU units with structured dropout of §5.2.2) are learned
   separately, by :class:`~repro.cln.bounds.BoundBank`.
4. **Gated disjunction layer**: each clause is a gated t-conorm of up
   to ``LITERALS_PER_CLAUSE`` atomic units.
5. **Gated conjunction layer**: a gated t-norm over the clause outputs.

The extracted SMT formula is therefore in CNF, a conjunction of up to
``N_CLAUSES`` disjunctions (m=10, n=2 in the paper's evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# The clip ufunc itself: np.clip reaches it through a slower wrapper.
try:
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

from repro.errors import TrainingError
from repro.autodiff.functional import stack
from repro.autodiff.optim import contiguous_span, flat_parameters
from repro.autodiff.tensor import Tensor
from repro.cln.activations import gaussian_equality
from repro.cln.tnorms import gated_tconorm, gated_tnorm


# Clause structure (§6: m=10 clauses of n=2 literals).  GCLN scales the
# clause count up to 3x with the basis size.
N_CLAUSES = 10
LITERALS_PER_CLAUSE = 2
# Hard cap on terms kept per unit: on large bases (e.g. 56 deg-3
# terms) even high dropout leaves supports whose restricted
# nullspace is multi-dimensional, which yields mixtures.
MAX_KEPT_TERMS = 8
# Gates within this distance of 0 or 1 count as saturated (early stop).
GATE_SATURATION_TOLERANCE = 0.05


@dataclass
class GCLNConfig:
    """The per-model hyperparameters a caller sets.

    Every other hyperparameter of the paper's §6 configuration is a
    module constant where it is read: the clause structure and the
    kept-terms cap here, the optimizer, gate and annealing schedules
    and pruning in :mod:`repro.cln.train`, the L1 weight in
    :mod:`repro.cln.loss`, the PBQU constants and bound-mask shape in
    :mod:`repro.cln.bounds`, and the rounding denominators in
    :mod:`repro.cln.extract`.
    """

    sigma: float = 0.1
    # Term dropout probability.  The paper starts at 0.3 and lowers it
    # on failed attempts; the pipeline's default schedule is
    # (0.6, 0.7, 0.5, 0.75) instead.  Measured on the 27 NLA problems,
    # it solves 11/8/10 under seed sets 1-4/5-8/9-12, where the paper's
    # (0.3, 0.2, 0.1, 0.0) solves 14/12/11, so the higher rates are not
    # the better ones.
    dropout_rate: float = 0.6
    weight_regularization: bool = True
    max_epochs: int = 5000


class AtomicUnit:
    """One linear-plus-Gaussian equality unit with a fixed dropout mask."""

    def __init__(
        self,
        mask: np.ndarray,
        rng: np.random.Generator,
        config: GCLNConfig,
    ):
        if mask.dtype != bool:
            raise TrainingError("dropout mask must be boolean")
        if not mask.any():
            raise TrainingError("dropout mask dropped every term")
        # Own copy: prune() mutates the mask in place (so that row views
        # into a parent GCLN's stacked matrices stay bound).
        self.mask = np.array(mask, dtype=bool)
        self.config = config
        init = rng.normal(0.0, 1.0, size=mask.shape[0])
        init[~mask] = 0.0
        self.weight = Tensor(init, requires_grad=True)
        self._mask_tensor = Tensor(self.mask.astype(np.float64))

    def bind_row(
        self,
        weight_row: np.ndarray,
        grad_row: np.ndarray,
        mask_row: np.ndarray,
        mask_value_row: np.ndarray,
    ) -> None:
        """Rebind this unit's storage onto rows of a stacked matrix.

        The rows are numpy *views* into the parent model's
        ``(units, terms)`` arrays and their gradient, so the per-unit
        eager path and the batched path read and write the same memory
        — no syncing.
        """
        self.weight = _view_parameter(weight_row, grad_row)
        self.mask = mask_row
        self._mask_tensor = Tensor(mask_value_row)

    def effective_weight(self) -> Tensor:
        """Masked, optionally unit-L2-normalized weight vector."""
        w = self.weight * self._mask_tensor
        if self.config.weight_regularization:
            norm = ((w * w).sum() + 1e-12) ** 0.5
            w = w / norm
        return w

    def residual(self, X: Tensor) -> Tensor:
        """Linear response ``X @ w_hat`` per sample."""
        return X @ self.effective_weight()

    def forward(self, X: Tensor, relax_scale: float = 1.0) -> Tensor:
        """Continuous truth value per sample.

        Args:
            X: normalized data tensor.
            relax_scale: multiplier (>= 1) applied to σ during
                annealed training; 1.0 recovers the paper's constants.
                With σ = 0.1 and rows normalized to L2 norm 10, random
                initial weights give residuals ~100σ where the Gaussian
                gradient vanishes; starting wide and tightening restores
                the training signal without changing the converged
                semantics.
        """
        return gaussian_equality(
            self.residual(X), self.config.sigma * relax_scale
        )

    def prune(self, threshold: float) -> bool:
        """Drop mask entries whose scaled weight is below ``threshold``.

        Returns True when anything was pruned.  At least two terms are
        always kept so the unit can still express a constraint.
        """
        w = self.weight_numpy()
        top = np.abs(w).max()
        if top == 0.0:
            return False
        scaled = np.abs(w) / top
        candidates = self.mask & (scaled < threshold)
        if not candidates.any():
            return False
        if (self.mask.sum() - candidates.sum()) < 2:
            return False
        # In place: the mask arrays may be row views into the parent
        # model's stacked matrices, and the mask-value tensor may be a
        # leaf of a recorded tape (replay picks the update up).
        new_mask = self.mask & ~candidates
        self.mask[...] = new_mask
        self._mask_tensor.data[...] = new_mask.astype(np.float64)
        self.weight.data[~new_mask] = 0.0
        return True

    def weight_numpy(self) -> np.ndarray:
        """Effective (masked/normalized) weights as a numpy vector."""
        w = self.weight.data * self.mask
        if self.config.weight_regularization:
            norm = float(np.sqrt((w**2).sum()) + 1e-12)
            w = w / norm
        return w


class GCLN:
    """Gated CLN over a fixed term basis.

    Attributes:
        clauses: the OR groups, each a list of atomic units.
        or_gates: per-clause, per-literal gate parameters in [0, 1].
        and_gates: per-clause gate parameters in [0, 1].
    """

    def __init__(
        self,
        n_terms: int,
        config: GCLNConfig,
        rng: np.random.Generator,
        units: Sequence[Sequence[AtomicUnit]] | None = None,
        protected_terms: Sequence[int] = (),
        term_weights: np.ndarray | None = None,
    ):
        """
        Args:
            n_terms: number of candidate terms (input width).
            config: hyperparameters.
            rng: RNG for dropout masks and weight initialization.
            units: pre-built clause structure, every clause with the
                same number of literals; when ``None``, builds
                ``N_CLAUSES`` (scaled with the basis) clauses of
                ``LITERALS_PER_CLAUSE`` equality units with random
                dropout.
            protected_terms: term indices never dropped (e.g. the
                constant column stays available to every unit).
            term_weights: relative keep-probability per term during
                dropout; benchmark invariants overwhelmingly use
                low-degree few-variable monomials, so the pipeline
                passes weights decaying with term complexity.
        """
        if not 0.0 <= config.dropout_rate < 1.0:
            # At rate 1 only protected terms survive the draw, so the
            # two-term redraw loop in _random_mask would never end.
            raise TrainingError(
                f"dropout_rate must be in [0, 1), got {config.dropout_rate}"
            )
        self.config = config
        self.n_terms = n_terms
        # Scale clause count with basis size: large bases need more
        # dropout lottery tickets for some unit to isolate an invariant.
        n_clauses = max(N_CLAUSES, min(3 * N_CLAUSES, n_terms))
        if units is None:
            units = [
                [
                    AtomicUnit(
                        _random_mask(
                            n_terms,
                            config.dropout_rate,
                            rng,
                            protected_terms,
                            term_weights,
                        ),
                        rng,
                        config,
                    )
                    for _ in range(LITERALS_PER_CLAUSE)
                ]
                for _ in range(n_clauses)
            ]
        self.clauses: list[list[AtomicUnit]] = [list(group) for group in units]
        if not self.clauses:
            raise TrainingError("G-CLN needs at least one clause")
        sizes = sorted({len(group) for group in self.clauses})
        if len(sizes) != 1:
            # The stacked forward reshapes unit activations into
            # (samples, clauses, literals).
            raise TrainingError(
                f"every clause needs the same literal count, got {sizes}"
            )
        # One constant leaf for the weight-normalization epsilon, so the
        # two normalizations the batched loss records (forward and L1
        # term) have identical parents and the replay plan computes
        # them once.
        self._norm_eps = Tensor(1e-12)
        self._allocate_parameters()

    def _allocate_parameters(self) -> None:
        """Lay every parameter out in one flat vector.

        :func:`~repro.autodiff.optim.flat_parameters` allocates one data
        and one gradient vector holding the and gates, the OR gates as a
        (clauses, literals) matrix, and the unit weights as a (units,
        terms) matrix, in that order.  The three stacked tensors are
        what the batched trainers optimize; each clause's ``or_gates``
        entry and each unit's ``weight`` are row views of them (data
        and gradient), so the per-unit eager path (extraction, pruning,
        reference training) shares the same storage with no syncing.
        The gates come first, so :meth:`project_gates` clips one slice.
        """
        flat = [unit for group in self.clauses for unit in group]
        self.units_flat: list[AtomicUnit] = flat
        n_clauses, n_literals = len(self.clauses), len(self.clauses[0])
        self.and_gates, self.or_gates_stacked, self.unit_weights = (
            flat_parameters(
                [
                    np.full(n_clauses, 0.95),
                    np.full((n_clauses, n_literals), 0.95),
                    np.stack([u.weight.data for u in flat]),
                ]
            )
        )
        self._gates = contiguous_span(
            [self.and_gates.data, self.or_gates_stacked.data]
        )
        self.unit_masks = np.stack([u.mask for u in flat])
        self._unit_mask_tensor = Tensor(self.unit_masks.astype(np.float64))
        weights, grads = self.unit_weights.data, self.unit_weights.grad
        for i, unit in enumerate(flat):
            unit.bind_row(
                weights[i],
                grads[i],
                self.unit_masks[i],
                self._unit_mask_tensor.data[i],
            )
        gates, gate_grads = self.or_gates_stacked.data, self.or_gates_stacked.grad
        self.or_gates = [
            _view_parameter(gates[i], gate_grads[i]) for i in range(n_clauses)
        ]

    # -- forward ---------------------------------------------------------

    def clause_values(self, X: Tensor, relax_scale: float = 1.0) -> Tensor:
        """Stack of clause truth values, shape (samples, n_clauses)."""
        outputs = []
        for group, gates in zip(self.clauses, self.or_gates):
            literals = stack(
                [unit.forward(X, relax_scale) for unit in group], axis=1
            )
            outputs.append(gated_tconorm(literals, gates, axis=1))
        return stack(outputs, axis=1)

    def forward(self, X: Tensor, relax_scale: float = 1.0) -> Tensor:
        """Model output M(x) per sample, shape (samples,)."""
        values = self.clause_values(X, relax_scale)
        return gated_tnorm(values, self.and_gates, axis=1)

    # -- batched forward ------------------------------------------------------

    def stacked_effective_weights(self) -> Tensor:
        """Masked, optionally row-normalized (units, terms) weight matrix.

        Row i is exactly ``units_flat[i].effective_weight()`` — the
        epsilon and normalization must stay in lockstep with
        :meth:`AtomicUnit.effective_weight` for the batched and
        sequential paths to train identically.
        """
        w = self.unit_weights * self._unit_mask_tensor
        if self.config.weight_regularization:
            norm = ((w * w).sum(axis=1, keepdims=True) + self._norm_eps) ** 0.5
            w = w / norm
        return w

    def unit_residuals(self, X: Tensor) -> Tensor:
        """All units' linear responses at once, shape (samples, units)."""
        return X @ self.stacked_effective_weights().T

    def unit_activations(self, X: Tensor, sigma=None) -> Tensor:
        """Batched unit truth values, shape (samples, units).

        ``sigma`` may be a float or a 0-d numpy box (for tape-compatible
        annealing); the default comes from the config.
        """
        return gaussian_equality(
            self.unit_residuals(X),
            self.config.sigma if sigma is None else sigma,
        )

    def forward_batched(self, X: Tensor, sigma=None) -> Tensor:
        """Model output M(x) via the stacked forward, shape (samples,).

        A whole epoch's forward is ~10 graph nodes: mask/normalize, one
        matmul, one fused activation, one reshape, and two fused gated
        t-norms.
        """
        acts = self.unit_activations(X, sigma=sigma)
        values = acts.reshape(
            acts.shape[0], len(self.clauses), len(self.clauses[0])
        )
        clause = gated_tconorm(values, self.or_gates_stacked, axis=2)
        return gated_tnorm(clause, self.and_gates, axis=1)

    # -- parameters ----------------------------------------------------------

    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = [self.and_gates]
        params.extend(self.or_gates)
        for group in self.clauses:
            for unit in group:
                params.append(unit.weight)
        return params

    def parameters_batched(self) -> list[Tensor]:
        """The stacked parameters the batched trainers optimize.

        Elementwise they are exactly :meth:`parameters` (the per-unit
        tensors are row views of the stacked ones): both sets tile the
        model's one parameter vector, which Adam steps.
        """
        return [self.and_gates, self.or_gates_stacked, self.unit_weights]

    def project_gates(self) -> None:
        """Clip all gate parameters back into [0, 1] after an update.

        The and and OR gates are one contiguous slice of the parameter
        vector, clipped by one call of the ``clip`` ufunc.
        """
        _clip(self._gates, 0.0, 1.0, out=self._gates)

    def gates_saturated(self) -> bool:
        """True when every gate is within ``GATE_SATURATION_TOLERANCE``
        of 0 or 1.

        The per-clause ``or_gates`` are row views of ``or_gates_stacked``,
        and every gate lives in one slice of the parameter vector, so one
        check covers them all.
        """
        gates = self._gates
        return bool(
            np.all(
                (gates < GATE_SATURATION_TOLERANCE)
                | (gates > 1.0 - GATE_SATURATION_TOLERANCE)
            )
        )


def _view_parameter(data: np.ndarray, grad: np.ndarray) -> Tensor:
    """A trainable tensor over ``data`` whose gradient is bound to ``grad``."""
    tensor = Tensor(data, requires_grad=True)
    tensor.grad = grad
    return tensor


def _random_mask(
    n_terms: int,
    dropout_rate: float,
    rng: np.random.Generator,
    protected: Sequence[int],
    term_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Keep-mask for term dropout; guarantees at least two kept terms.

    Terms survive an (optionally weighted) Bernoulli draw with keep
    probability ``(1 - dropout_rate) * weight``; at most
    ``MAX_KEPT_TERMS`` non-protected survivors stay (sampled without
    replacement, again weighted).
    """
    keep_prob = np.full(n_terms, 1.0 - dropout_rate)
    if term_weights is not None:
        keep_prob = keep_prob * np.clip(term_weights, 0.0, 1.0)
    while True:
        mask = rng.random(n_terms) < keep_prob
        kept = np.flatnonzero(mask)
        if len(kept) > MAX_KEPT_TERMS:
            weights = (
                term_weights[kept]
                if term_weights is not None
                else np.ones(len(kept))
            )
            weights = weights / weights.sum()
            chosen = rng.choice(
                kept, size=MAX_KEPT_TERMS, replace=False, p=weights
            )
            mask[:] = False
            mask[chosen] = True
        for idx in protected:
            mask[idx] = True
        if mask.sum() >= min(2, n_terms):
            return mask


def complexity_term_weights(degrees: Sequence[int]) -> np.ndarray:
    """Dropout keep-weights decaying with monomial degree.

    Weight ``2^-(degree - 1)`` for non-constant terms: plain variables
    get 1, quadratics (squares and two-variable products alike) 1/2,
    cubics 1/4.  The NLA invariants' supports are dominated by
    low-degree monomials, which is what makes this prior effective.
    """
    weights = np.ones(len(degrees))
    for j, deg in enumerate(degrees):
        if deg == 0:
            continue
        weights[j] = 2.0 ** (-(deg - 1))
    return weights
