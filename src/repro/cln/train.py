"""G-CLN training loops (§5.2.1, §6 system configuration).

Full-batch Adam with multiplicative learning-rate decay, adaptive gate
regularization schedules, gate projection back into [0, 1] after every
step, and early stopping when the loss plateaus with saturated gates.

Two execution strategies share the same math:

* **Vectorized** (:func:`train_gcln`, :func:`train_gcln_restarts`):
  one batched forward through the stacked ``(units, terms)`` weight
  matrix with fused kernels, recorded once on a
  :class:`~repro.autodiff.tape.Tape` and replayed with preallocated
  gradient buffers — an epoch is a handful of large numpy calls.
  Schedule values (λ1, λ2, annealed σ) live in leaf tensors / 0-d
  boxes updated in place.
* **Eager reference** (:func:`train_gcln_eager`): the original
  per-unit graph-building loop, kept as the ground truth for the
  equivalence tests.  Nothing in the pipeline calls it.

:func:`train_gcln_restarts` trains R independent restarts
simultaneously in one graph.  Restart gradients are decoupled (the
total loss is a sum of per-restart terms), clipping is per restart
group, each restart keeps its own Adam instance and λ/σ schedules, and
a restart that hits its early-stop condition is snapshotted at that
epoch and restored at the end — so every restart finishes with exactly
the parameters sequential training would have produced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TrainingError
from repro.autodiff.optim import Adam
from repro.autodiff.tape import Tape
from repro.autodiff.tensor import Tensor
from repro.cln.loss import GateSchedule, build_gcln_loss_batched, gcln_loss
from repro.cln.model import GCLN

# Adam with multiplicative learning-rate decay (§6).
LEARNING_RATE = 0.01
LR_DECAY = 0.9996
# Gate regularization schedules (initial, multiplier, floor/ceiling),
# see loss.GateSchedule.
LAMBDA1_SCHEDULE = (1.0, 0.999, 0.1)
LAMBDA2_SCHEDULE = (0.001, 1.001, 0.1)
# Relaxation annealing (here and in bounds.train_bound_bank): σ and c1
# start multiplied by this factor and tighten to 1x by mid-training.
ANNEAL_INIT = 100.0
# Periodic magnitude pruning (post-anneal): every PRUNE_INTERVAL epochs
# a unit drops terms whose scaled weight is below PRUNE_THRESHOLD.
# With the L1 penalty (loss.WEIGHT_L1) it pushes a unit toward a single
# clean invariant instead of an arbitrary mixture of invariants, which
# would not round to small rational coefficients.
PRUNE_INTERVAL = 100
PRUNE_THRESHOLD = 0.05

# Early stop: halt once the post-anneal loss has not improved by
# _LOSS_TOLERANCE for _EARLY_STOP_PATIENCE epochs and the gates have
# saturated.
_EARLY_STOP_PATIENCE = 200
_LOSS_TOLERANCE = 1e-4


@dataclass
class TrainResult:
    """Outcome of one training run."""

    epochs: int


@dataclass
class RestartOutcome:
    """One restart's outcome from :func:`train_gcln_restarts`.

    ``error`` carries the message of what would have been a
    :class:`TrainingError` in sequential training (e.g. divergence);
    the restart's parameters are then unusable and ``result`` is None.
    """

    result: TrainResult | None
    error: str | None = None


def _validate_data(data: np.ndarray) -> None:
    if data.ndim != 2 or data.shape[0] == 0:
        raise TrainingError(
            f"training data must be a non-empty 2-D matrix, got {data.shape}"
        )


def _anneal_decay(epochs: int) -> float:
    """Per-epoch geometric factor taking ANNEAL_INIT to 1 by mid-training."""
    return ANNEAL_INIT ** (-1.0 / max(1, epochs // 2))


class _RestartState:
    """Per-restart bookkeeping for the batched multi-restart loop."""

    __slots__ = (
        "model",
        "optimizer",
        "lambda1",
        "lambda2",
        "lam1_t",
        "lam2_t",
        "sigma_box",
        "relax_scale",
        "anneal_decay",
        "best_loss",
        "stale",
        "epoch",
        "stopped",
        "error",
    )

    def __init__(self, model: GCLN, epochs: int):
        config = model.config
        self.model = model
        self.optimizer = Adam(
            model.parameters_batched(), lr=LEARNING_RATE, decay=LR_DECAY
        )
        self.lambda1 = GateSchedule(*LAMBDA1_SCHEDULE)
        self.lambda2 = GateSchedule(*LAMBDA2_SCHEDULE)
        self.lam1_t = Tensor(0.0)
        self.lam2_t = Tensor(0.0)
        self.anneal_decay = _anneal_decay(epochs)
        self.relax_scale = ANNEAL_INIT
        self.sigma_box = np.array(config.sigma * ANNEAL_INIT)
        self.best_loss = float("inf")
        self.stale = 0
        self.epoch = 0
        self.stopped = False
        self.error: str | None = None

    def begin_epoch(self) -> None:
        config = self.model.config
        self.lam1_t.data[...] = self.lambda1.step()
        self.lam2_t.data[...] = self.lambda2.step()
        self.sigma_box[...] = config.sigma * self.relax_scale


def _run_restart_epochs(
    states: list[_RestartState],
    X: Tensor,
    epochs: int,
    raise_on_divergence: bool = False,
) -> None:
    """Drive the shared epoch loop over every restart simultaneously.

    This is the *single* copy of the batched training-loop
    invariants (anneal gating, prune timing, post-anneal loss
    comparability, stale/saturation early stop): solo ``train_gcln``
    runs it with one state, so the bitwise restarts==solo guarantee is
    structural rather than maintained by hand.
    """
    loss_nodes: list[Tensor] = []
    tape = Tape()

    def build() -> Tensor:
        loss_nodes.clear()
        total: Tensor | None = None
        for state in states:
            term = build_gcln_loss_batched(
                state.model, X, state.lam1_t, state.lam2_t, state.sigma_box
            )
            loss_nodes.append(term)
            total = term if total is None else total + term
        return total  # type: ignore[return-value]

    for epoch in range(1, epochs + 1):
        for state in states:
            if not state.stopped:
                state.begin_epoch()
        tape.step(build)
        for state in states:
            if not state.stopped:
                state.optimizer.clip_grad_norm(100.0)
                state.optimizer.step()
                state.model.project_gates()
        for state, node in zip(states, loss_nodes):
            if state.stopped:
                continue
            state.epoch = epoch
            state.relax_scale = max(
                state.relax_scale * state.anneal_decay, 1.0
            )
            if state.relax_scale == 1.0 and epoch % PRUNE_INTERVAL == 0:
                for group in state.model.clauses:
                    for unit in group:
                        unit.prune(PRUNE_THRESHOLD)
            value = float(node.data)
            if not np.isfinite(value):
                message = f"loss diverged to {value} at epoch {epoch}"
                if raise_on_divergence:
                    raise TrainingError(message)
                state.error = message
                state.stopped = True
                continue
            if state.relax_scale > 1.0:
                # Still annealing: loss values are not yet comparable.
                state.best_loss = min(state.best_loss, value)
                continue
            if value < state.best_loss - _LOSS_TOLERANCE:
                state.best_loss = value
                state.stale = 0
            else:
                state.stale += 1
            if (
                state.stale >= _EARLY_STOP_PATIENCE
                and state.model.gates_saturated()
            ):
                # Once stopped, the restart's parameters never change
                # again (no clip/step/project/prune), so it finishes
                # with exactly the weights sequential training at this
                # epoch would have produced; the shared graph keeps
                # computing its (ignored) forward pass.
                state.stopped = True
        for state in states:
            state.optimizer.zero_grad()
        if all(state.stopped for state in states):
            break


def train_gcln_restarts(
    models: list[GCLN], data: np.ndarray
) -> list[RestartOutcome]:
    """Train R independent G-CLN models simultaneously in one graph.

    Every model trains exactly as it would under :func:`train_gcln`
    alone (decoupled gradients, per-model clipping and Adam state,
    early-stopped models frozen in place), but the epochs run through
    one taped graph over one shared data leaf, amortizing the Python
    interpreter over the whole batch.

    Args:
        models: the models (e.g. one per scheduled attempt, differing
            only in dropout masks / seeds).
        data: the one 2-D ``(samples, terms)`` matrix every model
            trains on (already normalized).  The epoch budget is the
            first model's ``config.max_epochs``.

    Returns:
        One :class:`RestartOutcome` per model, in input order.
    """
    if not models:
        raise TrainingError("train_gcln_restarts needs at least one model")
    if not isinstance(data, np.ndarray) or data.ndim != 2:
        got = (
            f"shape {data.shape}"
            if isinstance(data, np.ndarray)
            else type(data).__name__
        )
        raise TrainingError(
            "train_gcln_restarts needs one 2-D (samples, terms) matrix "
            f"shared by every model; got {got}"
        )
    _validate_data(data)
    epochs = models[0].config.max_epochs
    states = [_RestartState(model, epochs) for model in models]
    _run_restart_epochs(states, Tensor(data), epochs)
    return [
        RestartOutcome(result=None, error=state.error)
        if state.error is not None
        else RestartOutcome(result=TrainResult(epochs=state.epoch))
        for state in states
    ]


def train_gcln(model: GCLN, data: np.ndarray) -> TrainResult:
    """Train ``model`` on the normalized data matrix.

    Training stops early once the best loss has not improved for
    ``_EARLY_STOP_PATIENCE`` post-anneal epochs and the gates have
    saturated.

    Args:
        model: the G-CLN to train (modified in place) for at most
            ``model.config.max_epochs`` epochs.
        data: samples-by-terms float matrix (already normalized).

    Returns:
        A :class:`TrainResult` with the number of epochs run.
    """
    _validate_data(data)
    epochs = model.config.max_epochs
    state = _RestartState(model, epochs)
    _run_restart_epochs([state], Tensor(data), epochs, raise_on_divergence=True)
    return TrainResult(epochs=state.epoch)


def train_gcln_eager(model: GCLN, data: np.ndarray) -> TrainResult:
    """Reference trainer: rebuild the per-unit graph every epoch.

    Same arguments, math and result as :func:`train_gcln`, without the
    stacked forward, the tape or the compiled plan.  The equivalence
    tests call it directly as the oracle.
    """
    _validate_data(data)
    epochs = model.config.max_epochs
    X = Tensor(data)
    optimizer = Adam(model.parameters(), lr=LEARNING_RATE, decay=LR_DECAY)
    lambda1 = GateSchedule(*LAMBDA1_SCHEDULE)
    lambda2 = GateSchedule(*LAMBDA2_SCHEDULE)

    # Relaxation annealing: start with σ widened by
    # ``ANNEAL_INIT`` and tighten geometrically to the paper's constants
    # by mid-training, so initial residuals (~data norm) still produce
    # gradients.  relax_scale = 1.0 from the midpoint on.
    anneal_decay = _anneal_decay(epochs)

    best_loss = float("inf")
    stale = 0
    epoch = 0
    relax_scale = ANNEAL_INIT
    for epoch in range(1, epochs + 1):
        optimizer.zero_grad()
        loss = gcln_loss(model, X, lambda1.step(), lambda2.step(), relax_scale)
        loss.backward()
        optimizer.clip_grad_norm(100.0)
        optimizer.step()
        model.project_gates()
        relax_scale = max(relax_scale * anneal_decay, 1.0)

        if relax_scale == 1.0 and epoch % PRUNE_INTERVAL == 0:
            for group in model.clauses:
                for unit in group:
                    unit.prune(PRUNE_THRESHOLD)

        value = loss.item()
        if not np.isfinite(value):
            raise TrainingError(f"loss diverged to {value} at epoch {epoch}")
        if relax_scale > 1.0:
            # Still annealing: loss values are not yet comparable (and
            # the gate-saturation scan is skipped entirely).
            best_loss = min(best_loss, value)
            continue
        if value < best_loss - _LOSS_TOLERANCE:
            best_loss = value
            stale = 0
        else:
            stale += 1
        if stale >= _EARLY_STOP_PATIENCE and model.gates_saturated():
            break
    return TrainResult(epochs=epoch)
