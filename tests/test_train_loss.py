"""Tests for the training loop internals: loss, schedules, pruning."""

import numpy as np
import pytest

import repro.cln.loss
import repro.cln.model
import repro.cln.train
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


def test_loss_components(rng, monkeypatch):
    monkeypatch.setattr(repro.cln.model, "N_CLAUSES", 2)
    monkeypatch.setattr(repro.cln.loss, "WEIGHT_L1", 0.0)
    model = GCLN(3, GCLNConfig(), rng)
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


def test_loss_includes_l1(rng, monkeypatch):
    monkeypatch.setattr(repro.cln.model, "N_CLAUSES", 1)
    monkeypatch.setattr(repro.cln.model, "LITERALS_PER_CLAUSE", 1)
    monkeypatch.setattr(repro.cln.loss, "WEIGHT_L1", 1.0)
    model = GCLN(3, GCLNConfig(), rng)
    X = Tensor(np.zeros((2, 3)))
    base = gcln_loss(model, X, 0.0, 0.0).item()
    # L1 of a unit-normalized vector lies in [1, sqrt(3)].
    n_units = sum(len(g) for g in model.clauses)
    assert base >= n_units * 1.0 - 1e-6
    assert base <= n_units * np.sqrt(3) + 1e-6


def test_train_gcln_reduces_loss(rng, monkeypatch):
    # Data with an exact relation x2 = 2*x1.
    xs = np.arange(1, 13, dtype=float)
    data = np.stack([np.ones_like(xs), xs, 2 * xs], axis=1)
    from repro.sampling import normalize_rows

    monkeypatch.setattr(repro.cln.model, "N_CLAUSES", 4)
    config = GCLNConfig(max_epochs=500, dropout_rate=0.2)
    model = GCLN(3, config, rng, protected_terms=[0])
    X = Tensor(normalize_rows(data))

    def data_term() -> float:
        return float((1.0 - model.forward(X).data).sum())

    before = data_term()
    train_gcln(model, X.data)
    assert data_term() < before


def test_train_rejects_bad_data(rng):
    model = GCLN(3, GCLNConfig(), rng)
    with pytest.raises(TrainingError):
        train_gcln(model, np.zeros((0, 3)))


def test_pruning_happens_during_training(rng, monkeypatch):
    monkeypatch.setattr(repro.cln.model, "N_CLAUSES", 2)
    monkeypatch.setattr(repro.cln.train, "PRUNE_INTERVAL", 50)
    monkeypatch.setattr(repro.cln.train, "PRUNE_THRESHOLD", 0.2)
    config = GCLNConfig(max_epochs=400, dropout_rate=0.0)
    xs = np.arange(1, 20, dtype=float)
    data = np.stack([np.ones_like(xs), xs, 2 * xs, xs * 0.0 + 5.0], axis=1)
    from repro.sampling import normalize_rows

    model = GCLN(4, config, rng, protected_terms=[0])
    before = sum(unit.mask.sum() for g in model.clauses for unit in g)
    train_gcln(model, normalize_rows(data))
    after = sum(unit.mask.sum() for g in model.clauses for unit in g)
    assert after <= before
