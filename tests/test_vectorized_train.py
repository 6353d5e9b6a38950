"""Tests for the vectorized training core.

Numeric gradchecks (central differences) for every fused kernel, plus
the seed-equivalence guarantees: batched multi-restart training and the
stacked unit forward produce the same invariants as the sequential
reference paths for identical seeds.
"""

import numpy as np
import pytest

from repro.autodiff import Tensor, fused_gated_tconorm, fused_gated_tnorm, pbqu
from repro.autodiff.functional import gaussian, sigmoid
from repro.cln.model import AtomicKind, GCLN, GCLNConfig
from repro.cln.extract import extract_equalities
from repro.cln.train import train_gcln, train_gcln_eager, train_gcln_restarts
from repro.sampling import normalize_rows
from tests.test_autodiff import check_grad


# -- fused kernel gradchecks -------------------------------------------------


def test_pbqu_gradcheck_spans_both_branches():
    t = Tensor(np.array([-2.0, -0.3, 0.4, 3.0]), requires_grad=True)
    check_grad(lambda: pbqu(t, 1.0, 50.0).sum(), t)


def test_pbqu_matches_eager_where_formulation():
    t = np.linspace(-3, 3, 13)
    c1, c2 = 1.0, 50.0
    got = pbqu(Tensor(t), c1, c2).data
    below = c1 * c1 / (t * t + c1 * c1)
    above = c2 * c2 / (t * t + c2 * c2)
    np.testing.assert_allclose(got, np.where(t >= 0, above, below))


def test_gaussian_box_gradcheck():
    x = Tensor(np.array([0.3, -0.7, 1.2]), requires_grad=True)
    sigma_box = np.array(0.8)
    check_grad(lambda: gaussian(x, sigma_box).sum(), x)


def test_sigmoid_fused_gradcheck():
    x = Tensor(np.array([-1.5, 0.0, 2.5]), requires_grad=True)
    check_grad(lambda: sigmoid(x).sum(), x)


def test_fused_gated_tnorm_gradcheck_values_and_gates():
    rng = np.random.default_rng(0)
    values = Tensor(rng.uniform(0.1, 0.9, size=(4, 3, 2)), requires_grad=True)
    gates = Tensor(rng.uniform(0.1, 0.9, size=(3, 2)), requires_grad=True)
    check_grad(lambda: fused_gated_tnorm(values, gates, axis=2).sum(), values)
    check_grad(lambda: fused_gated_tnorm(values, gates, axis=2).sum(), gates)


def test_fused_gated_tconorm_gradcheck_values_and_gates():
    rng = np.random.default_rng(1)
    values = Tensor(rng.uniform(0.1, 0.9, size=(4, 3, 2)), requires_grad=True)
    gates = Tensor(rng.uniform(0.1, 0.9, size=(3, 2)), requires_grad=True)
    check_grad(lambda: fused_gated_tconorm(values, gates, axis=2).sum(), values)
    check_grad(lambda: fused_gated_tconorm(values, gates, axis=2).sum(), gates)


def test_fused_gated_tnorm_with_zero_entries():
    """The exclusive-product gradient survives exact zeros."""
    values = Tensor(np.array([[0.0, 0.5, 1.0]]), requires_grad=True)
    gates = Tensor(np.array([1.0, 1.0, 1.0]))
    out = fused_gated_tnorm(values, gates, axis=1)
    out.sum().backward()
    np.testing.assert_allclose(values.grad, [[0.5, 0.0, 0.0]])


# -- stacked model equivalence ----------------------------------------------


def _relation_data():
    xs = np.arange(1, 13, dtype=float)
    return normalize_rows(
        np.stack([np.ones_like(xs), xs, 2 * xs, xs * xs], axis=1)
    )


def _eq_model(seed: int = 7) -> GCLN:
    config = GCLNConfig(n_clauses=3, max_epochs=300, dropout_rate=0.2)
    return GCLN(4, config, np.random.default_rng(seed), protected_terms=[0])


def test_batched_forward_matches_eager(rng):
    model = _eq_model()
    X = Tensor(np.random.default_rng(0).normal(size=(6, 4)))
    np.testing.assert_allclose(
        model.forward_batched(X).data, model.forward(X, 1.0).data, atol=1e-12
    )


def test_stacked_storage_is_shared_with_units():
    model = _eq_model()
    model.unit_weights.data[0, 0] = 42.0
    assert model.units_flat[0].weight.data[0] == 42.0
    model.units_flat[1].weight.data[:] = 0.5
    assert np.all(model.unit_weights.data[1] == 0.5)


def test_train_gcln_vectorized_matches_eager_invariants(sqrt1_data):
    states, basis, _raw, data = sqrt1_data
    atoms = {}
    for trainer in (train_gcln_eager, train_gcln):
        config = GCLNConfig(n_clauses=6, max_epochs=400, dropout_rate=0.4)
        model = GCLN(
            len(basis), config, np.random.default_rng(11), protected_terms=[0]
        )
        trainer(model, data)
        atoms[trainer] = sorted(
            str(a) for a in extract_equalities(model, basis, states)
        )
    assert atoms[train_gcln] == atoms[train_gcln_eager]


def test_multi_restart_matches_sequential_training_exactly():
    """Acceptance: batched restarts return the same TrainResult and
    parameters as training each model alone."""
    data = _relation_data()
    seeds = (1, 2, 3)
    batch_models = [_eq_model(seed=s) for s in seeds]
    solo_models = [_eq_model(seed=s) for s in seeds]
    outcomes = train_gcln_restarts(batch_models, data)
    for outcome, solo, batched in zip(
        outcomes, solo_models, batch_models
    ):
        reference = train_gcln(solo, data)
        assert outcome.error is None
        assert outcome.result.epochs == reference.epochs
        assert outcome.result.converged == reference.converged
        assert outcome.result.final_loss == pytest.approx(
            reference.final_loss, abs=1e-12
        )
        np.testing.assert_array_equal(
            batched.unit_weights.data, solo.unit_weights.data
        )
        np.testing.assert_array_equal(
            batched.and_gates.data, solo.and_gates.data
        )


def test_multi_restart_rejects_incapable_models(rng):
    config = GCLNConfig()
    from repro.cln.model import AtomicUnit

    ragged = [
        [AtomicUnit(AtomicKind.EQ, np.ones(3, dtype=bool), rng, config)],
        [
            AtomicUnit(AtomicKind.EQ, np.ones(3, dtype=bool), rng, config),
            AtomicUnit(AtomicKind.EQ, np.ones(3, dtype=bool), rng, config),
        ],
    ]
    model = GCLN(3, config, rng, units=ragged)
    assert not model.batched_capable()
    from repro.errors import TrainingError

    with pytest.raises(TrainingError):
        train_gcln_restarts([model], np.ones((4, 3)))


def test_multi_restart_needs_one_shared_matrix():
    """Restarts share one 2-D data matrix; a 3-D stack or a list of
    per-model matrices is rejected up front."""
    from repro.errors import TrainingError

    data = _relation_data()
    models = [_eq_model(seed=1), _eq_model(seed=2)]
    for bad in (np.stack([data, data]), [data, data]):
        with pytest.raises(TrainingError, match="one 2-D"):
            train_gcln_restarts(models, bad)


def test_ragged_model_falls_back_to_eager_training(rng):
    """Hand-assembled ragged models still train via the legacy path."""
    config = GCLNConfig(max_epochs=50)
    from repro.cln.model import AtomicUnit

    ragged = [
        [AtomicUnit(AtomicKind.EQ, np.ones(3, dtype=bool), rng, config)],
        [
            AtomicUnit(AtomicKind.EQ, np.ones(3, dtype=bool), rng, config),
            AtomicUnit(AtomicKind.EQ, np.ones(3, dtype=bool), rng, config),
        ],
    ]
    model = GCLN(3, config, rng, units=ragged)
    result = train_gcln(model, np.ones((4, 3)) * 0.1, max_epochs=50)
    assert np.isfinite(result.final_loss)
