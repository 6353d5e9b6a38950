"""Tests for the training loop internals: loss, schedules, pruning."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.cln.loss import GateSchedule, gcln_loss
from repro.cln.model import GCLN, GCLNConfig
from repro.cln.train import train_gcln
from repro.errors import TrainingError


def test_gate_schedule_decay_to_floor():
    schedule = GateSchedule(1.0, 0.5, 0.1)
    values = [schedule.step() for _ in range(6)]
    assert values[0] == 1.0
    assert values[-1] == pytest.approx(0.1)
    assert schedule.value == pytest.approx(0.1)


def test_gate_schedule_growth_to_ceiling():
    schedule = GateSchedule(0.001, 10.0, 0.1)
    for _ in range(5):
        schedule.step()
    assert schedule.value == pytest.approx(0.1)


def test_loss_components(rng):
    config = GCLNConfig(n_clauses=2, weight_l1=0.0)
    model = GCLN(3, config, rng)
    X = Tensor(np.zeros((4, 3)))
    # With zero data, residuals are 0 so every unit outputs 1; with all
    # gates fully open, M(x) = 1 and the data term vanishes, leaving
    # exactly the disjunction-gate penalty λ2 * Σ g.
    model.and_gates.data[:] = 1.0
    for g in model.or_gates:
        g.data[:] = 1.0
    n_literals = sum(len(g.data) for g in model.or_gates)
    loss = gcln_loss(model, X, lambda1=1.0, lambda2=1.0)
    assert loss.item() == pytest.approx(n_literals, abs=1e-6)


def test_loss_includes_l1(rng):
    config = GCLNConfig(n_clauses=1, literals_per_clause=1, weight_l1=1.0)
    model = GCLN(3, config, rng)
    X = Tensor(np.zeros((2, 3)))
    base = gcln_loss(model, X, 0.0, 0.0).item()
    # L1 of a unit-normalized vector lies in [1, sqrt(3)].
    n_units = sum(len(g) for g in model.clauses)
    assert base >= n_units * 1.0 - 1e-6
    assert base <= n_units * np.sqrt(3) + 1e-6


def test_train_gcln_reduces_loss(rng):
    # Data with an exact relation x2 = 2*x1.
    xs = np.arange(1, 13, dtype=float)
    data = np.stack([np.ones_like(xs), xs, 2 * xs], axis=1)
    from repro.sampling import normalize_rows

    config = GCLNConfig(n_clauses=4, max_epochs=500, dropout_rate=0.2)
    model = GCLN(3, config, rng, protected_terms=[0])
    result = train_gcln(model, normalize_rows(data), record_history=True)
    assert result.loss_history, "history requested"
    assert result.final_loss < result.loss_history[0]


def test_train_rejects_bad_data(rng):
    model = GCLN(3, GCLNConfig(), rng)
    with pytest.raises(TrainingError):
        train_gcln(model, np.zeros((0, 3)))


def test_pruning_happens_during_training(rng):
    config = GCLNConfig(
        n_clauses=2,
        max_epochs=400,
        prune_interval=50,
        prune_threshold=0.2,
        dropout_rate=0.0,
    )
    xs = np.arange(1, 20, dtype=float)
    data = np.stack([np.ones_like(xs), xs, 2 * xs, xs * 0.0 + 5.0], axis=1)
    from repro.sampling import normalize_rows

    model = GCLN(4, config, rng, protected_terms=[0])
    before = sum(unit.mask.sum() for g in model.clauses for unit in g)
    train_gcln(model, normalize_rows(data))
    after = sum(unit.mask.sum() for g in model.clauses for unit in g)
    assert after <= before
