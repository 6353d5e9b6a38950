"""The G-CLN model (Fig. 9 of the paper).

Architecture, bottom to top:

1. **Input**: the normalized samples-by-terms matrix (terms include the
   constant-1 column, so bias is an ordinary weight).
2. **Term dropout** (§5.1.3): each atomic unit owns a fixed binary mask
   over terms, drawn before training.  Equality units use random masks;
   inequality units use structured masks over variable subsets
   (§5.2.2).
3. **Atomic units**: a linear layer with unit-L2 weight constraint
   (§5.1.2) followed by the Gaussian activation (equalities) or the
   PBQU activation (inequalities).
4. **Gated disjunction layer**: each clause is a gated t-conorm of up
   to ``literals_per_clause`` atomic units.
5. **Gated conjunction layer**: a gated t-norm over the clause outputs.

The extracted SMT formula is therefore in CNF, a conjunction of up to
``n_clauses`` disjunctions (m=10, n=2 in the paper's evaluation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from repro.errors import TrainingError
from repro.autodiff.functional import stack
from repro.autodiff.tensor import Tensor
from repro.cln.activations import gaussian_equality, pbqu_ge
from repro.cln.tnorms import gated_tconorm, gated_tnorm


class AtomicKind(enum.Enum):
    """What predicate an atomic unit relaxes."""

    EQ = "eq"
    GE = "ge"


@dataclass
class GCLNConfig:
    """Hyperparameters, defaulting to the paper's §6 configuration."""

    n_clauses: int = 10
    literals_per_clause: int = 2
    sigma: float = 0.1
    c1: float = 1.0
    c2: float = 50.0
    # Term dropout probability.  The paper starts at 0.3 and lowers it
    # on failed attempts; on our numpy substrate higher dropout (smaller
    # per-unit supports) converges to clean single invariants far more
    # reliably, so the pipeline sweeps a schedule around this default.
    dropout_rate: float = 0.6
    # Hard cap on terms kept per unit: on large bases (e.g. 56 deg-3
    # terms) even high dropout leaves supports whose restricted
    # nullspace is multi-dimensional, which yields mixtures.
    max_kept_terms: int = 8
    weight_regularization: bool = True
    # Gate regularization schedules: (initial, multiplier, floor/ceiling).
    lambda1_schedule: tuple[float, float, float] = (1.0, 0.999, 0.1)
    lambda2_schedule: tuple[float, float, float] = (0.001, 1.001, 0.1)
    learning_rate: float = 0.01
    lr_decay: float = 0.9996
    max_epochs: int = 5000
    # Relaxation annealing (see train.train_gcln): σ and c1 start
    # multiplied by this factor and tighten to 1x by mid-training.
    anneal_init: float = 100.0
    # Sparsity pressure: L1 penalty on the normalized unit weights and
    # periodic magnitude pruning (post-anneal).  Both push a unit toward
    # a single clean invariant instead of an arbitrary mixture of
    # invariants, which would not round to small rational coefficients.
    weight_l1: float = 0.02
    prune_interval: int = 100
    prune_threshold: float = 0.05
    # Inequality learning (§5.2.2).
    max_ineq_vars: int = 2
    ineq_degree: int = 2
    ineq_activation_threshold: float = 0.5
    # Independent random restarts per variable subset; PBQU training is
    # multimodal and extraction validates/discards, so extra units only
    # cost training time.
    ineq_restarts: int = 2
    # Extraction.
    max_denominators: tuple[int, ...] = (10, 15, 30)


class AtomicUnit:
    """One linear-plus-activation unit with a fixed dropout mask."""

    def __init__(
        self,
        kind: AtomicKind,
        mask: np.ndarray,
        rng: np.random.Generator,
        config: GCLNConfig,
    ):
        if mask.dtype != bool:
            raise TrainingError("dropout mask must be boolean")
        if not mask.any():
            raise TrainingError("dropout mask dropped every term")
        self.kind = kind
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
        mask_row: np.ndarray,
        mask_value_row: np.ndarray,
    ) -> None:
        """Rebind this unit's storage onto rows of a stacked matrix.

        The rows are numpy *views* into the parent model's
        ``(units, terms)`` arrays, so the per-unit eager path and the
        batched path read and write the same memory — no syncing.
        """
        self.weight = Tensor(weight_row, requires_grad=True)
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
            relax_scale: multiplier (>= 1) applied to σ and c1 during
                annealed training; 1.0 recovers the paper's constants.
                With σ = 0.1 and rows normalized to L2 norm 10, random
                initial weights give residuals ~100σ where the Gaussian
                gradient vanishes; starting wide and tightening restores
                the training signal without changing the converged
                semantics.
        """
        r = self.residual(X)
        if self.kind is AtomicKind.EQ:
            return gaussian_equality(r, self.config.sigma * relax_scale)
        return pbqu_ge(r, self.config.c1 * relax_scale, self.config.c2)

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
        clauses: ``n_clauses`` lists of atomic units (the OR groups).
        or_gates: per-clause, per-literal gate parameters in [0, 1].
        and_gates: per-clause gate parameters in [0, 1].
    """

    def __init__(
        self,
        n_terms: int,
        config: GCLNConfig,
        rng: np.random.Generator,
        units: Sequence[Sequence[AtomicUnit]] | None = None,
        kind: AtomicKind = AtomicKind.EQ,
        protected_terms: Sequence[int] = (),
        term_weights: np.ndarray | None = None,
    ):
        """
        Args:
            n_terms: number of candidate terms (input width).
            config: hyperparameters.
            rng: RNG for dropout masks and weight initialization.
            units: pre-built clause structure; when ``None``, builds
                ``config.n_clauses`` clauses of ``literals_per_clause``
                equality units with random dropout.
            kind: activation family used when auto-building units.
            protected_terms: term indices never dropped (e.g. the
                constant column stays available to every unit).
            term_weights: relative keep-probability per term during
                dropout; benchmark invariants overwhelmingly use
                low-degree few-variable monomials, so the pipeline
                passes weights decaying with term complexity.
        """
        self.config = config
        self.n_terms = n_terms
        # Scale clause count with basis size: large bases need more
        # dropout lottery tickets for some unit to isolate an invariant.
        n_clauses = max(config.n_clauses, min(3 * config.n_clauses, n_terms))
        if units is None:
            units = [
                [
                    AtomicUnit(
                        kind,
                        _random_mask(
                            n_terms,
                            config.dropout_rate,
                            rng,
                            protected_terms,
                            config.max_kept_terms,
                            term_weights,
                        ),
                        rng,
                        config,
                    )
                    for _ in range(config.literals_per_clause)
                ]
                for _ in range(n_clauses)
            ]
        self.clauses: list[list[AtomicUnit]] = [list(group) for group in units]
        if not self.clauses:
            raise TrainingError("G-CLN needs at least one clause")
        self.and_gates = Tensor(np.full(len(self.clauses), 0.95), requires_grad=True)
        self._stack_units()

    def _stack_units(self) -> None:
        """Stack all unit weights/masks into (units, terms) matrices.

        The stacked tensors are the parameters the batched training
        path optimizes; each unit's ``weight``/``mask`` are rebound to
        row views, so the per-unit eager path (extraction, pruning,
        legacy training) shares the same storage with no syncing.  OR
        gates stack the same way when every clause has the same literal
        count (always true for auto-built models).
        """
        flat = [unit for group in self.clauses for unit in group]
        self.units_flat: list[AtomicUnit] = flat
        self.unit_masks = np.stack([u.mask for u in flat])
        self.unit_weights = Tensor(
            np.stack([u.weight.data for u in flat]), requires_grad=True
        )
        self._unit_mask_tensor = Tensor(self.unit_masks.astype(np.float64))
        for i, unit in enumerate(flat):
            unit.bind_row(
                self.unit_weights.data[i],
                self.unit_masks[i],
                self._unit_mask_tensor.data[i],
            )
        sizes = {len(group) for group in self.clauses}
        self.uniform_literals = len(sizes) == 1
        if self.uniform_literals:
            per_clause = next(iter(sizes))
            stacked = np.full((len(self.clauses), per_clause), 0.95)
            self.or_gates_stacked: Tensor | None = Tensor(
                stacked, requires_grad=True
            )
            self.or_gates = [
                Tensor(self.or_gates_stacked.data[i], requires_grad=True)
                for i in range(len(self.clauses))
            ]
        else:
            self.or_gates_stacked = None
            self.or_gates = [
                Tensor(np.full(len(group), 0.95), requires_grad=True)
                for group in self.clauses
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

    def batched_capable(self) -> bool:
        """Can this model run the stacked (units, terms) forward?

        Requires a uniform literal count per clause (for the reshape
        into ``(samples, clauses, literals)``) and a single activation
        family across units.  Auto-built equality models and structured
        inequality models both qualify; hand-assembled ragged or mixed
        models fall back to the per-unit eager path.
        """
        kinds = {unit.kind for unit in self.units_flat}
        return self.uniform_literals and len(kinds) == 1

    def stacked_effective_weights(self) -> Tensor:
        """Masked, optionally row-normalized (units, terms) weight matrix.

        Row i is exactly ``units_flat[i].effective_weight()`` — the
        epsilon and normalization must stay in lockstep with
        :meth:`AtomicUnit.effective_weight` for the batched and
        sequential paths to train identically.
        """
        w = self.unit_weights * self._unit_mask_tensor
        if self.config.weight_regularization:
            norm = ((w * w).sum(axis=1, keepdims=True) + 1e-12) ** 0.5
            w = w / norm
        return w

    def unit_residuals(self, X: Tensor) -> Tensor:
        """All units' linear responses at once, shape (samples, units)."""
        return X @ self.stacked_effective_weights().T

    def unit_activations(self, X: Tensor, sigma=None, c1=None, c2=None) -> Tensor:
        """Batched unit truth values, shape (samples, units).

        ``sigma``/``c1``/``c2`` may be floats or 0-d numpy boxes (for
        tape-compatible annealing); defaults come from the config.
        """
        kinds = {unit.kind for unit in self.units_flat}
        if len(kinds) != 1:
            raise TrainingError("unit_activations requires a single unit kind")
        residuals = self.unit_residuals(X)
        if next(iter(kinds)) is AtomicKind.EQ:
            return gaussian_equality(
                residuals, self.config.sigma if sigma is None else sigma
            )
        return pbqu_ge(
            residuals,
            self.config.c1 if c1 is None else c1,
            self.config.c2 if c2 is None else c2,
        )

    def forward_batched(self, X: Tensor, sigma=None, c1=None) -> Tensor:
        """Model output M(x) via the stacked forward, shape (samples,).

        Callers must check :meth:`batched_capable` first.  A whole
        epoch's forward is ~10 graph nodes: mask/normalize, one matmul,
        one fused activation, one reshape, and two fused gated t-norms.
        """
        acts = self.unit_activations(X, sigma=sigma, c1=c1)
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
        tensors are row views of the stacked ones), so Adam and global
        gradient clipping behave identically on either set.
        """
        gates: list[Tensor] = [self.and_gates]
        if self.or_gates_stacked is not None:
            gates.append(self.or_gates_stacked)
        else:
            gates.extend(self.or_gates)
        return [*gates, self.unit_weights]

    def project_gates(self) -> None:
        """Clip all gate parameters back into [0, 1] after an update."""
        np.clip(self.and_gates.data, 0.0, 1.0, out=self.and_gates.data)
        if self.or_gates_stacked is not None:
            data = self.or_gates_stacked.data
            np.clip(data, 0.0, 1.0, out=data)
        else:
            for g in self.or_gates:
                np.clip(g.data, 0.0, 1.0, out=g.data)

    def gates_saturated(self, tolerance: float = 0.05) -> bool:
        """True when every gate is within ``tolerance`` of 0 or 1."""
        def ok(arr: np.ndarray) -> bool:
            return bool(np.all((arr < tolerance) | (arr > 1.0 - tolerance)))

        return ok(self.and_gates.data) and all(ok(g.data) for g in self.or_gates)


def _random_mask(
    n_terms: int,
    dropout_rate: float,
    rng: np.random.Generator,
    protected: Sequence[int],
    max_kept: int = 0,
    term_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Keep-mask for term dropout; guarantees at least two kept terms.

    Terms survive an (optionally weighted) Bernoulli draw with keep
    probability ``(1 - dropout_rate) * weight``; with ``max_kept`` > 0,
    at most that many non-protected survivors stay (sampled without
    replacement, again weighted).
    """
    keep_prob = np.full(n_terms, 1.0 - dropout_rate)
    if term_weights is not None:
        keep_prob = keep_prob * np.clip(term_weights, 0.0, 1.0)
    while True:
        mask = rng.random(n_terms) < keep_prob
        if max_kept > 0:
            kept = np.flatnonzero(mask)
            if len(kept) > max_kept:
                weights = (
                    term_weights[kept]
                    if term_weights is not None
                    else np.ones(len(kept))
                )
                weights = weights / weights.sum()
                chosen = rng.choice(
                    kept, size=max_kept, replace=False, p=weights
                )
                mask[:] = False
                mask[chosen] = True
        for idx in protected:
            mask[idx] = True
        if mask.sum() >= min(2, n_terms):
            return mask


def complexity_term_weights(
    degrees: Sequence[int], variable_counts: Sequence[int]
) -> np.ndarray:
    """Dropout keep-weights decaying with monomial degree.

    Weight ``2^-(degree - 1)`` for non-constant terms: plain variables
    get 1, quadratics (squares and two-variable products alike) 1/2,
    cubics 1/4.  The NLA invariants' supports are dominated by
    low-degree monomials, which is what makes this prior effective;
    ``variable_counts`` is accepted for future variants but unused.
    """
    del variable_counts
    weights = np.ones(len(degrees))
    for j, deg in enumerate(degrees):
        if deg == 0:
            continue
        weights[j] = 2.0 ** (-(deg - 1))
    return weights


def structured_inequality_units(
    term_variable_sets: Sequence[frozenset[str]],
    term_degrees: Sequence[int],
    variables: Sequence[str],
    config: GCLNConfig,
    rng: np.random.Generator,
) -> list[list[AtomicUnit]]:
    """Build GE units over all small variable subsets (§5.2.2).

    One single-literal clause per subset of at most ``max_ineq_vars``
    variables; the unit's mask keeps the constant term plus every
    candidate monomial of degree <= ``ineq_degree`` whose variables all
    lie in the subset.

    Args:
        term_variable_sets: per term, the set of variables it mentions.
        term_degrees: per term, its total degree.
        variables: the loop's variable names.
        config: hyperparameters.
        rng: weight-init RNG.
    """
    n_terms = len(term_variable_sets)
    units: list[list[AtomicUnit]] = []
    subsets: list[frozenset[str]] = []
    for size in range(1, config.max_ineq_vars + 1):
        subsets.extend(frozenset(c) for c in combinations(variables, size))
    for subset in subsets:
        mask = np.zeros(n_terms, dtype=bool)
        for j in range(n_terms):
            if term_degrees[j] > config.ineq_degree:
                continue
            if term_variable_sets[j] <= subset:
                mask[j] = True
        # Need at least one non-constant term to express a bound.
        nonconstant = [
            j for j in range(n_terms) if mask[j] and term_variable_sets[j]
        ]
        if not nonconstant:
            continue
        for _ in range(max(1, config.ineq_restarts)):
            units.append([AtomicUnit(AtomicKind.GE, mask.copy(), rng, config)])
    return units
