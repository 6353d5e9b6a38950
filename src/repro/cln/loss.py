"""G-CLN loss (§5.2.1).

    L(X; W, G) = Σ_x (1 - M(x))
               + λ1 Σ_{g in gated t-norms} (1 - g)
               + λ2 Σ_{g in gated t-conorms} g

The first term drives the model output to 1 on every sample; λ1 keeps
conjunction gates from collapsing to 0 (which would satisfy everything
vacuously); λ2 keeps disjunction gates from saturating at 1 (which
would make every clause trivially satisfiable by its loosest literal).
Both λ schedules adapt during training (see ``train.GateSchedule``).

Two implementations share the math:

* :func:`build_gcln_loss_batched` — the batched builder the training
  loops tape and replay.  λ values arrive as leaf tensors and σ as a
  0-d numpy box, all updated in place by the schedule, so a recorded
  tape stays valid across epochs.
* :func:`gcln_loss` — the per-unit eager loss with float knobs that
  :func:`~repro.cln.train.train_gcln_eager`, the reference trainer,
  rebuilds every epoch.
"""

from __future__ import annotations

from repro.autodiff.tensor import Tensor
from repro.cln.model import GCLN

# Sparsity pressure: L1 penalty on the normalized unit weights.  With
# periodic pruning (train.PRUNE_INTERVAL) it pushes a unit toward a
# single clean invariant instead of a mixture of invariants.
WEIGHT_L1 = 0.02


def build_gcln_loss_batched(
    model: GCLN,
    X: Tensor,
    lam1: Tensor,
    lam2: Tensor,
    sigma,
) -> Tensor:
    """The full loss through the stacked forward (~15 graph nodes).

    Args:
        model: the G-CLN being trained.
        X: normalized data tensor.
        lam1: λ1 as a (non-grad) leaf tensor, updated in place.
        lam2: λ2 leaf tensor.
        sigma: annealed σ (float or 0-d box).
    """
    output = model.forward_batched(X, sigma=sigma)
    data_term = (1.0 - output).sum()
    and_term = (1.0 - model.and_gates).sum()
    loss = data_term + lam1 * and_term + lam2 * model.or_gates_stacked.sum()
    l1 = model.stacked_effective_weights().abs().sum()
    return loss + WEIGHT_L1 * l1


def gcln_loss(
    model: GCLN,
    X: Tensor,
    lambda1: float,
    lambda2: float,
    relax_scale: float = 1.0,
) -> Tensor:
    """Compute the training loss on a full batch, unit by unit."""
    output = model.forward(X, relax_scale)
    data_term = (1.0 - output).sum()
    and_term = (1.0 - model.and_gates).sum()
    or_term = None
    for gates in model.or_gates:
        or_term = gates.sum() if or_term is None else or_term + gates.sum()
    loss = data_term + lambda1 * and_term
    if or_term is not None:
        loss = loss + lambda2 * or_term
    l1 = None
    for group in model.clauses:
        for unit in group:
            term = unit.effective_weight().abs().sum()
            l1 = term if l1 is None else l1 + term
    if l1 is not None:
        loss = loss + WEIGHT_L1 * l1
    return loss


class GateSchedule:
    """Adaptive λ schedule: value ← value * multiplier, clamped at bound.

    The paper sets λ1 = (1.0, ×0.999 per epoch, floor 0.1) and
    λ2 = (0.001, ×1.001 per epoch, ceiling 0.1).
    """

    def __init__(self, initial: float, multiplier: float, bound: float):
        self.value = initial
        self.multiplier = multiplier
        self.bound = bound

    def step(self) -> float:
        current = self.value
        nxt = self.value * self.multiplier
        if self.multiplier < 1.0:
            self.value = max(nxt, self.bound)
        else:
            self.value = min(nxt, self.bound)
        return current
