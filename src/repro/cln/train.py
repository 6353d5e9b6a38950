"""G-CLN training loops (§5.2.1, §6 system configuration).

Full-batch Adam with multiplicative learning-rate decay, adaptive gate
regularization schedules, gate projection back into [0, 1] after every
step, and early stopping when the loss plateaus with saturated gates.

Two execution strategies share the same math, and the model picks
between them — nothing else does:

* **Vectorized** (every :meth:`~repro.cln.model.GCLN.batched_capable`
  model): one batched forward through the stacked ``(units, terms)``
  weight matrix with fused kernels, recorded once on a
  :class:`~repro.autodiff.tape.Tape` and replayed with preallocated
  gradient buffers — an epoch is a handful of large numpy calls.
  Schedule values (λ1, λ2, annealed σ/c1) live in leaf tensors / 0-d
  boxes updated in place.
* **Eager reference** (:func:`train_gcln_eager`; :func:`train_gcln`
  uses it for models the stacked forward cannot express): the original
  per-unit graph-building loop, kept as the ground truth for
  equivalence tests and as the baseline that
  ``benchmarks/bench_perf.py`` measures speedups against.

:func:`train_gcln_restarts` trains R independent restarts
simultaneously in one graph.  Restart gradients are decoupled (the
total loss is a sum of per-restart terms), clipping is per restart
group, each restart keeps its own Adam instance and λ/σ schedules, and
a restart that hits its early-stop condition is snapshotted at that
epoch and restored at the end — so every restart finishes with exactly
the parameters sequential training would have produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import TrainingError
from repro.autodiff.optim import Adam, clip_grad_norm
from repro.autodiff.tape import Tape
from repro.autodiff.tensor import Tensor, no_grad
from repro.cln.loss import GateSchedule, build_gcln_loss_batched, gcln_loss
from repro.cln.model import GCLN


@dataclass
class TrainResult:
    """Outcome of one training run."""

    final_loss: float
    epochs: int
    converged: bool
    loss_history: list[float] = field(default_factory=list)


@dataclass
class RestartOutcome:
    """One restart's outcome from :func:`train_gcln_restarts`.

    ``error`` carries the message of what would have been a
    :class:`TrainingError` in sequential training (e.g. divergence);
    the restart's parameters are then unusable and ``result`` is None.
    """

    result: TrainResult | None
    error: str | None = None



#: ``tape.stats()`` snapshot from the most recent taped training loop in
#: this process — observability for ``python -m repro profile``.  Not
#: part of the training contract; may be ``None`` before any training.
LAST_TAPE_STATS: dict | None = None


def _publish_tape_stats(tape: Tape) -> None:
    global LAST_TAPE_STATS
    LAST_TAPE_STATS = tape.stats()


def _validate_data(data: np.ndarray) -> None:
    if data.ndim != 2 or data.shape[0] == 0:
        raise TrainingError(
            f"training data must be a non-empty 2-D matrix, got {data.shape}"
        )


def _anneal(config, epochs: int) -> tuple[float, float]:
    """(initial relax scale, per-epoch geometric decay factor)."""
    anneal_init = max(config.anneal_init, 1.0)
    anneal_epochs = max(1, epochs // 2)
    return anneal_init, anneal_init ** (-1.0 / anneal_epochs)


def _data_convergence(model: GCLN, X: Tensor, n_samples: int) -> tuple[float, bool]:
    with no_grad():
        data_term = float((1.0 - model.forward(X).data).sum())
    return data_term, (data_term / n_samples) < 0.1


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
        "c1_box",
        "relax_scale",
        "anneal_decay",
        "best_loss",
        "stale",
        "epoch",
        "stopped",
        "error",
        "history",
    )

    def __init__(self, model: GCLN, epochs: int):
        config = model.config
        self.model = model
        self.optimizer = Adam(
            model.parameters_batched(),
            lr=config.learning_rate,
            decay=config.lr_decay,
        )
        self.lambda1 = GateSchedule(*config.lambda1_schedule)
        self.lambda2 = GateSchedule(*config.lambda2_schedule)
        self.lam1_t = Tensor(0.0)
        self.lam2_t = Tensor(0.0)
        anneal_init, self.anneal_decay = _anneal(config, epochs)
        self.relax_scale = anneal_init
        self.sigma_box = np.array(config.sigma * anneal_init)
        self.c1_box = np.array(config.c1 * anneal_init)
        self.best_loss = float("inf")
        self.stale = 0
        self.epoch = 0
        self.stopped = False
        self.error: str | None = None
        self.history: list[float] | None = None

    def begin_epoch(self) -> None:
        config = self.model.config
        self.lam1_t.data[...] = self.lambda1.step()
        self.lam2_t.data[...] = self.lambda2.step()
        self.sigma_box[...] = config.sigma * self.relax_scale
        self.c1_box[...] = config.c1 * self.relax_scale


def _run_restart_epochs(
    states: list[_RestartState],
    X: Tensor,
    epochs: int,
    early_stop_patience: int,
    loss_tolerance: float,
    require_saturation: bool,
    clip_norm: float,
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
                state.model, X, state.lam1_t, state.lam2_t,
                state.sigma_box, state.c1_box,
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
                clip_grad_norm(state.optimizer.params, clip_norm)
                state.optimizer.step()
                state.model.project_gates()
        for state, node in zip(states, loss_nodes):
            if state.stopped:
                continue
            state.epoch = epoch
            config = state.model.config
            state.relax_scale = max(
                state.relax_scale * state.anneal_decay, 1.0
            )
            if (
                state.relax_scale == 1.0
                and config.prune_interval > 0
                and epoch % config.prune_interval == 0
            ):
                for group in state.model.clauses:
                    for unit in group:
                        unit.prune(config.prune_threshold)
            value = float(node.data)
            if not np.isfinite(value):
                message = f"loss diverged to {value} at epoch {epoch}"
                if raise_on_divergence:
                    raise TrainingError(message)
                state.error = message
                state.stopped = True
                continue
            if state.history is not None:
                state.history.append(value)
            if state.relax_scale > 1.0:
                # Still annealing: loss values are not yet comparable.
                state.best_loss = min(state.best_loss, value)
                continue
            if value < state.best_loss - loss_tolerance:
                state.best_loss = value
                state.stale = 0
            else:
                state.stale += 1
            if state.stale >= early_stop_patience and (
                not require_saturation or state.model.gates_saturated()
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
    _publish_tape_stats(tape)


def train_gcln_restarts(
    models: list[GCLN],
    data: np.ndarray,
    max_epochs: int | None = None,
    early_stop_patience: int = 200,
    loss_tolerance: float = 1e-4,
) -> list[RestartOutcome]:
    """Train R independent G-CLN models simultaneously in one graph.

    Every model trains exactly as it would under :func:`train_gcln`
    alone (decoupled gradients, per-model clipping and Adam state,
    early-stopped models frozen in place), but the epochs run through
    one taped graph over one shared data leaf, amortizing the Python
    interpreter over the whole batch.

    Args:
        models: batched-capable models (e.g. one per scheduled attempt,
            differing only in dropout masks / seeds).
        data: the one 2-D ``(samples, terms)`` matrix every model
            trains on (already normalized).
        max_epochs: overrides each model's ``config.max_epochs``.

    Returns:
        One :class:`RestartOutcome` per model, in input order.
    """
    if not models:
        raise TrainingError("train_gcln_restarts needs at least one model")
    if not all(m.batched_capable() for m in models):
        raise TrainingError(
            "all models must be batched-capable; train ragged/mixed models "
            "individually via train_gcln"
        )
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
    epochs = max_epochs if max_epochs is not None else models[0].config.max_epochs
    X = Tensor(data)
    states = [_RestartState(model, epochs) for model in models]
    _run_restart_epochs(
        states, X, epochs, early_stop_patience, loss_tolerance,
        require_saturation=True, clip_norm=100.0,
    )
    outcomes: list[RestartOutcome] = []
    for state in states:
        if state.error is not None:
            outcomes.append(RestartOutcome(result=None, error=state.error))
            continue
        _, converged = _data_convergence(state.model, X, data.shape[0])
        outcomes.append(
            RestartOutcome(
                result=TrainResult(
                    final_loss=state.best_loss,
                    epochs=state.epoch,
                    converged=converged,
                )
            )
        )
    return outcomes


def train_gcln(
    model: GCLN,
    data: np.ndarray,
    max_epochs: int | None = None,
    early_stop_patience: int = 200,
    loss_tolerance: float = 1e-4,
    record_history: bool = False,
) -> TrainResult:
    """Train ``model`` on the normalized data matrix.

    Args:
        model: the G-CLN to train (modified in place).
        data: samples-by-terms float matrix (already normalized).
        max_epochs: overrides ``model.config.max_epochs`` when given.
        early_stop_patience: stop when the best loss has not improved
            by ``loss_tolerance`` for this many epochs and the gates
            have saturated.
        loss_tolerance: minimum improvement counted as progress.
        record_history: keep the per-epoch loss curve (for the
            stability study).

    Returns:
        A :class:`TrainResult`; ``converged`` is True when the data
        term of the loss is small (every sample close to truth value 1).
    """
    if not model.batched_capable():
        return train_gcln_eager(
            model, data, max_epochs, early_stop_patience, loss_tolerance,
            record_history,
        )
    _validate_data(data)
    epochs = max_epochs if max_epochs is not None else model.config.max_epochs
    X = Tensor(data)
    state = _RestartState(model, epochs)
    if record_history:
        state.history = []
    _run_restart_epochs(
        [state], X, epochs, early_stop_patience, loss_tolerance,
        require_saturation=True, clip_norm=100.0, raise_on_divergence=True,
    )
    _, converged = _data_convergence(model, X, data.shape[0])
    return TrainResult(
        final_loss=state.best_loss,
        epochs=state.epoch,
        converged=converged,
        loss_history=state.history or [],
    )


def train_gcln_eager(
    model: GCLN,
    data: np.ndarray,
    max_epochs: int | None = None,
    early_stop_patience: int = 200,
    loss_tolerance: float = 1e-4,
    record_history: bool = False,
) -> TrainResult:
    """Reference trainer: rebuild the per-unit graph every epoch.

    Same arguments, math and result as :func:`train_gcln`, without the
    stacked forward, the tape or the compiled plan.  :func:`train_gcln`
    falls back to it for models that are not batched-capable; tests
    and ``benchmarks/bench_perf.py`` call it directly as the oracle.
    """
    _validate_data(data)
    config = model.config
    epochs = max_epochs if max_epochs is not None else config.max_epochs
    X = Tensor(data)
    optimizer = Adam(
        model.parameters(), lr=config.learning_rate, decay=config.lr_decay
    )
    lambda1 = GateSchedule(*config.lambda1_schedule)
    lambda2 = GateSchedule(*config.lambda2_schedule)

    # Relaxation annealing: start with σ (and c1) widened by
    # ``anneal_init`` and tighten geometrically to the paper's constants
    # by mid-training, so initial residuals (~data norm) still produce
    # gradients.  relax_scale = 1.0 from the midpoint on.
    anneal_init, anneal_decay = _anneal(config, epochs)

    history: list[float] = []
    best_loss = float("inf")
    stale = 0
    epoch = 0
    relax_scale = anneal_init
    for epoch in range(1, epochs + 1):
        optimizer.zero_grad()
        loss = gcln_loss(model, X, lambda1.step(), lambda2.step(), relax_scale)
        loss.backward()
        clip_grad_norm(optimizer.params, 100.0)
        optimizer.step()
        model.project_gates()
        relax_scale = max(relax_scale * anneal_decay, 1.0)

        if (
            relax_scale == 1.0
            and config.prune_interval > 0
            and epoch % config.prune_interval == 0
        ):
            for group in model.clauses:
                for unit in group:
                    unit.prune(config.prune_threshold)

        value = loss.item()
        if not np.isfinite(value):
            raise TrainingError(f"loss diverged to {value} at epoch {epoch}")
        if record_history:
            history.append(value)
        if relax_scale > 1.0:
            # Still annealing: loss values are not yet comparable (and
            # the gate-saturation scan is skipped entirely).
            best_loss = min(best_loss, value)
            continue
        if value < best_loss - loss_tolerance:
            best_loss = value
            stale = 0
        else:
            stale += 1
        if stale >= early_stop_patience and model.gates_saturated():
            break

    _, converged = _data_convergence(model, X, data.shape[0])
    return TrainResult(
        final_loss=best_loss,
        epochs=epoch,
        converged=converged,
        loss_history=history,
    )
