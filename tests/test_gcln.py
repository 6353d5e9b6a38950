"""Tests for the G-CLN model, training, and formula extraction."""

import numpy as np
import pytest

from repro.errors import FormulaError, TrainingError
from repro.autodiff import Tensor
import repro.cln.model
from repro.cln.bounds import BoundBank, enumerate_bound_masks, extract_bound_atoms, train_bound_bank
from repro.cln.extract import extract_equalities, extract_formula, make_exact_validator, make_touch_checker
from repro.cln.model import (
    AtomicUnit,
    GCLN,
    GCLNConfig,
    complexity_term_weights,
    _random_mask,
)
from repro.cln.train import train_gcln
from repro.poly.nullspace import row_space_basis
from repro.sampling import build_term_basis, evaluate_terms, normalize_rows
from repro.sampling.termgen import evaluate_terms_exact


@pytest.fixture(autouse=True)
def six_clauses(monkeypatch):
    """Small models: 6 clauses before basis scaling (the default is 10)."""
    monkeypatch.setattr(repro.cln.model, "N_CLAUSES", 6)


def small_config(**overrides) -> GCLNConfig:
    defaults = dict(max_epochs=800)
    defaults.update(overrides)
    return GCLNConfig(**defaults)


def line_states(n=20):
    """States on the variety y = 2x + 1, z free."""
    states = []
    for x in range(n):
        states.append({"x": x, "y": 2 * x + 1, "z": (x * 7) % 5})
    return states


def test_random_mask_protects_and_caps(rng, monkeypatch):
    monkeypatch.setattr(repro.cln.model, "MAX_KEPT_TERMS", 5)
    mask = _random_mask(20, 0.5, rng, protected=[0])
    assert mask[0]
    assert mask.sum() <= 6  # 5 kept + protected


def test_complexity_term_weights():
    weights = complexity_term_weights([0, 1, 2, 3])
    assert weights[0] == 1.0 and weights[1] == 1.0
    assert weights[2] == 0.5
    assert weights[3] == 0.25


def test_atomic_unit_rejects_empty_mask(rng):
    with pytest.raises(TrainingError):
        AtomicUnit(np.zeros(4, dtype=bool), rng, small_config())


def test_unit_weight_normalized(rng):
    unit = AtomicUnit(np.ones(4, dtype=bool), rng, small_config())
    assert np.linalg.norm(unit.weight_numpy()) == pytest.approx(1.0)


def test_unit_prune(rng):
    unit = AtomicUnit(np.ones(4, dtype=bool), rng, small_config())
    unit.weight.data[:] = np.array([1.0, 0.001, 0.5, 0.002])
    assert unit.prune(threshold=0.05)
    assert unit.mask.tolist() == [True, False, True, False]


def test_model_forward_shape(rng):
    model = GCLN(5, small_config(), rng, protected_terms=[0])
    X = Tensor(np.random.default_rng(0).normal(size=(7, 5)))
    out = model.forward(X)
    assert out.shape == (7,)
    assert np.all(out.data >= 0) and np.all(out.data <= 1)


@pytest.mark.parametrize("rate", [1.0, -0.5])
def test_gcln_refuses_dropout_rate_outside_unit_interval(rng, rate):
    # At rate 1 the two-term mask redraw would loop forever.
    with pytest.raises(TrainingError, match="dropout_rate"):
        GCLN(5, small_config(dropout_rate=rate), rng, protected_terms=[0])


def test_gate_projection(rng):
    model = GCLN(5, small_config(), rng)
    model.and_gates.data[:] = 2.0
    model.project_gates()
    assert model.and_gates.data.max() <= 1.0


def test_gates_saturated(rng):
    model = GCLN(5, small_config(), rng)
    model.and_gates.data[:] = 1.0
    for g in model.or_gates:
        g.data[:] = 0.0
    assert model.gates_saturated()
    model.and_gates.data[0] = 0.5
    assert not model.gates_saturated()


def test_training_rejects_empty_data(rng):
    model = GCLN(3, small_config(), rng)
    with pytest.raises(TrainingError):
        train_gcln(model, np.zeros((0, 3)))


def test_learns_simple_equality(rng):
    """End-to-end: learn y = 2x + 1 from data."""
    states = line_states()
    basis = build_term_basis(["x", "y", "z"], 1)
    raw = evaluate_terms(states, basis)
    data = normalize_rows(raw)
    model = GCLN(
        len(basis), small_config(dropout_rate=0.25), rng, protected_terms=[0]
    )
    result = train_gcln(model, data)
    assert result.epochs > 0
    exact_rows = row_space_basis(evaluate_terms_exact(states, basis))
    atoms = extract_equalities(model, basis, states, exact_rows)
    assert any(str(a.poly) in ("y - 2*x - 1", "2*x - y + 1") for a in atoms)


def test_extract_formula_returns_cnf(rng, sqrt1_data):
    states, basis, raw, data = sqrt1_data
    model = GCLN(len(basis), small_config(max_epochs=600), rng, protected_terms=[0])
    train_gcln(model, data)
    formula = extract_formula(model, basis, states)
    # Whatever was extracted must hold on every sample, exactly.
    from fractions import Fraction

    for state in states:
        exact = {k: Fraction(v) for k, v in state.items()}
        assert formula.evaluate(exact)


def test_validator_and_touch(sqrt1_data):
    states, basis, _raw, _data = sqrt1_data
    validator = make_exact_validator(states, basis)
    touch = make_touch_checker(states, basis)
    from tests.test_polynomial import P

    assert validator(P("t - 2*a - 1"), "==")
    assert not validator(P("t - 2*a"), "==")
    assert validator(P("n - a*a"), ">=")
    assert touch(P("n - a*a"))
    assert validator(P("n + 1"), ">=")
    assert not touch(P("n + 1"))


def test_validator_applies_every_comparison(sqrt1_data):
    """``>``, ``<`` and ``!=`` are checked, and an unknown op is refused."""
    states, basis, _raw, _data = sqrt1_data
    validator = make_exact_validator(states, basis)
    from tests.test_polynomial import P

    assert validator(P("n + 1"), ">")
    assert not validator(P("n - a*a"), ">")  # n == a*a on some sample
    assert validator(P("-n - 1"), "<")
    assert not validator(P("a*a - n"), "<")
    assert validator(P("t"), "!=")  # t == 2*a + 1 is odd
    assert not validator(P("t - 2*a - 1"), "!=")
    with pytest.raises(FormulaError):
        validator(P("t"), "=<")


def test_bound_bank_learns_tight_bound(rng, sqrt1_data):
    states, basis, _raw, data = sqrt1_data
    config = small_config(max_epochs=1200)
    masks = enumerate_bound_masks(
        [m.variables for m in basis.monomials],
        [m.degree for m in basis.monomials],
    )
    bank = BoundBank(masks, config, rng)
    train_bound_bank(bank, data)
    atoms = extract_bound_atoms(bank, basis, states, data)
    assert atoms, "bound bank should extract at least one tight bound"
    from fractions import Fraction

    for atom in atoms:
        for state in states:
            exact = {k: Fraction(v) for k, v in state.items()}
            assert atom.evaluate(exact)


def test_enumerate_bound_masks_requires_constant():
    with pytest.raises(TrainingError):
        enumerate_bound_masks([frozenset({"x"})], [1])


def test_enumerate_bound_masks_structure():
    variables = [frozenset(), frozenset({"x"}), frozenset({"y"}), frozenset({"x", "y"})]
    degrees = [0, 1, 1, 2]
    masks = enumerate_bound_masks(variables, degrees)
    # Every mask keeps the constant and at most 2 non-constant terms.
    assert all(mask[0] for mask in masks)
    assert all(mask[1:].sum() <= 2 for mask in masks)
