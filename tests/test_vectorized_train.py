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
from repro.checker.bounded import BoundedChecker
import repro.cln.model
from repro.api.adapters import GuessAndCheckSolver
from repro.baselines.plain_cln import train_plain_cln
from repro.cln.model import GCLN, AtomicUnit, GCLNConfig, _random_mask
from repro.cln.extract import extract_equalities
from repro.cln.train import train_gcln, train_gcln_eager, train_gcln_restarts
from repro.dist.wire import config_from_dict
from repro.errors import TrainingError
from repro.infer import InferenceConfig
from repro.lang import parse_program
from repro.sampling import collect_traces, normalize_rows
from repro.sampling.cache import TraceCache
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


_LOOP = """
program count;
input n;
x = 0;
while (x < n) { x = x + 1; }
"""


def _eq_model(seed: int = 7) -> GCLN:
    """Three clauses of two units over 4 terms, built as GCLN would
    build them (the constant term protected)."""
    config = GCLNConfig(max_epochs=300, dropout_rate=0.2)
    rng = np.random.default_rng(seed)
    units = [
        [AtomicUnit(_random_mask(4, 0.2, rng, [0]), rng, config) for _ in range(2)]
        for _ in range(3)
    ]
    return GCLN(4, config, rng, units=units)


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


def test_train_gcln_vectorized_matches_eager_invariants(sqrt1_data, monkeypatch):
    monkeypatch.setattr(repro.cln.model, "N_CLAUSES", 6)
    states, basis, _raw, data = sqrt1_data
    atoms = {}
    for trainer in (train_gcln_eager, train_gcln):
        config = GCLNConfig(max_epochs=400, dropout_rate=0.4)
        model = GCLN(
            len(basis), config, np.random.default_rng(11), protected_terms=[0]
        )
        trainer(model, data)
        atoms[trainer] = sorted(
            str(a) for a in extract_equalities(model, basis, states)
        )
    assert atoms[train_gcln] == atoms[train_gcln_eager]


def test_multi_restart_matches_sequential_training_exactly():
    """Acceptance: batched restarts run the same epochs and end with the
    same parameters as training each model alone."""
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
        np.testing.assert_array_equal(
            batched.unit_weights.data, solo.unit_weights.data
        )
        np.testing.assert_array_equal(
            batched.and_gates.data, solo.and_gates.data
        )


def test_multi_restart_needs_one_shared_matrix():
    """Restarts share one 2-D data matrix; a 3-D stack or a list of
    per-model matrices is rejected up front."""
    from repro.errors import TrainingError

    data = _relation_data()
    models = [_eq_model(seed=1), _eq_model(seed=2)]
    for bad in (np.stack([data, data]), [data, data]):
        with pytest.raises(TrainingError, match="one 2-D"):
            train_gcln_restarts(models, bad)


def _ragged_model():
    rng = np.random.default_rng(0)
    config = GCLNConfig()
    units = [
        [AtomicUnit(np.ones(3, dtype=bool), rng, config) for _ in range(n)]
        for n in (1, 2)
    ]
    return GCLN(3, config, rng, units=units)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: InferenceConfig(attempt_batch_size=1), TypeError,
         "attempt_batch_size"),
        (lambda: InferenceConfig(checker_memoization=False), TypeError,
         "checker_memoization"),
        (lambda: config_from_dict({"attempt_batch_size": 1}), ValueError,
         "attempt_batch_size"),
        (lambda: config_from_dict({"checker_memoization": False}), ValueError,
         "checker_memoization"),
        (lambda: train_gcln(_eq_model(), _relation_data(),
                            early_stop_patience=10), TypeError,
         "early_stop_patience"),
        (lambda: BoundedChecker(parse_program(_LOOP),
                                perturbations_per_state=2), TypeError,
         "perturbations_per_state"),
        # Every clause must share one literal count: the stacked
        # forward is the only training path.
        (_ragged_model, TrainingError, "same literal count"),
        # The solve config is flat, the per-model config keeps only
        # what a caller sets, the training budget lives on the model's
        # config alone, and the registry builds baselines bare.
        (lambda: InferenceConfig(gcln=GCLNConfig()), TypeError, "gcln"),
        (lambda: GCLNConfig(learning_rate=0.1), TypeError, "learning_rate"),
        (lambda: train_gcln(_eq_model(), _relation_data(), max_epochs=10),
         TypeError, "max_epochs"),
        (lambda: GuessAndCheckSolver(max_invariants=5), TypeError,
         "takes no arguments"),
        # The plain-CLN baseline trains with cln.train's constants, and
        # trace collection keeps every valid trace.
        (lambda: train_plain_cln(None, None, None, (), learning_rate=0.1),
         TypeError, "learning_rate"),
        (lambda: train_plain_cln(None, None, None, (), lr_decay=0.9),
         TypeError, "lr_decay"),
        (lambda: train_plain_cln(None, None, None, (), anneal_init=10.0),
         TypeError, "anneal_init"),
        (lambda: collect_traces(parse_program(_LOOP), [{}], max_traces=1),
         TypeError, "max_traces"),
        (lambda: TraceCache().traces(parse_program(_LOOP), [{}], max_traces=1),
         TypeError, "max_traces"),
    ],
    ids=[
        "config-attempt_batch_size",
        "config-checker_memoization",
        "wire-attempt_batch_size",
        "wire-checker_memoization",
        "train_gcln-early_stop_patience",
        "BoundedChecker-perturbations_per_state",
        "ragged-GCLN",
        "config-gcln",
        "GCLNConfig-learning_rate",
        "train_gcln-max_epochs",
        "GuessAndCheckSolver-max_invariants",
        "train_plain_cln-learning_rate",
        "train_plain_cln-lr_decay",
        "train_plain_cln-anneal_init",
        "collect_traces-max_traces",
        "TraceCache.traces-max_traces",
    ],
)
def test_removed_knobs_are_refused(build, error, message):
    with pytest.raises(error, match=message):
        build()
