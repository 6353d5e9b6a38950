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
from repro.autodiff.optim import Adam
from repro.checker.bounded import BoundedChecker
import repro.cln.model
from repro.api import InvariantService
from repro.api.adapters import GuessAndCheckSolver
from repro.baselines.enumerative import enumerative_search
from repro.baselines.plain_cln import PlainCLN, train_plain_cln
from repro.cln.model import GCLN, AtomicUnit, GCLNConfig, _random_mask
from repro.cln.extract import extract_equalities, extract_formula, refine_unit_atoms
from repro.cln.train import train_gcln, train_gcln_eager, train_gcln_restarts
from repro.dist.wire import config_from_dict
from repro.errors import TrainingError
from repro.infer import InferenceConfig
from repro.lang import parse_program
from repro.poly.nullspace import row_space_basis
from repro.poly.polynomial import Polynomial
from repro.poly.reduce import inter_reduce, reduce_modulo
from repro.sampling import build_term_basis, collect_traces, normalize_rows
from repro.sampling.cache import TraceCache
from repro.sampling.termgen import evaluate_terms_exact
from repro.utils.rational import nice_coefficients, round_coefficient_vector
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
    exact_rows = row_space_basis(evaluate_terms_exact(states, basis))
    for trainer in (train_gcln_eager, train_gcln):
        config = GCLNConfig(max_epochs=400, dropout_rate=0.4)
        model = GCLN(
            len(basis), config, np.random.default_rng(11), protected_terms=[0]
        )
        trainer(model, data)
        atoms[trainer] = sorted(
            str(a) for a in extract_equalities(model, basis, states, exact_rows)
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
        # The trace cache is one solve's memo, with no LRU bound.
        (lambda: TraceCache(max_entries=2), TypeError, "max_entries"),
        # Options no caller set are module constants.
        (lambda: extract_equalities(None, None, (), [], refine=False), TypeError,
         "refine"),
        (lambda: refine_unit_atoms(None, None, [], None, max_support=4),
         TypeError, "max_support"),
        (lambda: extract_formula(None, None, (), gate_threshold=0.4),
         TypeError, "gate_threshold"),
        (lambda: _eq_model().gates_saturated(tolerance=0.1), TypeError,
         "tolerance"),
        (lambda: enumerative_search((), None, max_terms=2), TypeError,
         "max_terms"),
        (lambda: enumerative_search((), None, coefficient_range=(1,)),
         TypeError, "coefficient_range"),
        (lambda: build_term_basis(["x"], 1, external_degree=2), TypeError,
         "external_degree"),
        (lambda: round_coefficient_vector([1.0], 10, zero_tolerance=0.1),
         TypeError, "zero_tolerance"),
        (lambda: nice_coefficients([1.0], 10, zero_tolerance=0.1), TypeError,
         "zero_tolerance"),
        (lambda: reduce_modulo(Polynomial.zero(), [], max_steps=5), TypeError,
         "max_steps"),
        (lambda: inter_reduce([], passes=1), TypeError, "passes"),
        (lambda: Adam(_eq_model().parameters(), betas=(0.5, 0.5)), TypeError,
         "betas"),
        (lambda: Adam(_eq_model().parameters(), eps=1e-6), TypeError, "eps"),
        (lambda: PlainCLN(2, 1, np.random.default_rng(0), sigma=0.2),
         TypeError, "sigma"),
        # The batch fan-out has a fixed width: no elastic bounds, no
        # fleet tail.
        (lambda: InvariantService().solve_many([], fleet_status=print),
         TypeError, "fleet_status"),
        (lambda: InvariantService().solve_many([], min_workers=1),
         TypeError, "min_workers"),
        (lambda: InvariantService().solve_many([], max_workers=2),
         TypeError, "max_workers"),
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
        "TraceCache-max_entries",
        "extract_equalities-refine",
        "refine_unit_atoms-max_support",
        "extract_formula-gate_threshold",
        "gates_saturated-tolerance",
        "enumerative_search-max_terms",
        "enumerative_search-coefficient_range",
        "build_term_basis-external_degree",
        "round_coefficient_vector-zero_tolerance",
        "nice_coefficients-zero_tolerance",
        "reduce_modulo-max_steps",
        "inter_reduce-passes",
        "Adam-betas",
        "Adam-eps",
        "PlainCLN-sigma",
        "solve_many-fleet_status",
        "solve_many-min_workers",
        "solve_many-max_workers",
    ],
)
def test_removed_knobs_are_refused(build, error, message):
    with pytest.raises(error, match=message):
        build()


# -- the optimizer over the flat parameter vector -----------------------------


class _PerParameterAdam:
    """Adam and global-norm clipping one parameter at a time.

    The reference for :class:`Adam` over the flat vector: it holds its
    own, separately allocated copy of every parameter and moment, and
    runs the textbook ufunc sequence per parameter.
    """

    def __init__(self, params, lr, decay):
        self.params = [p.data.copy() for p in params]
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.lr, self.decay, self.t = lr, decay, 0

    def clip(self, grads, max_norm):
        total = 0.0
        for g in grads:
            total += float(np.add.reduce(g * g, axis=None))
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            for g in grads:
                g *= max_norm / norm
        return norm

    def step(self, grads):
        self.t += 1
        b1, b2 = 0.9, 0.999
        bias1, bias2 = 1.0 - b1**self.t, 1.0 - b2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += g * (1.0 - b1)
            v *= b2
            v += (g * g) * (1.0 - b2)
            p -= (m / bias1) * self.lr / (np.sqrt(v / bias2) + 1e-8)
        self.lr *= self.decay


def _train_with_tape(model, data, epochs, update):
    """The batched trainer's epoch (loss graph, tape, λ schedules),
    with ``update()`` doing clipping, the step, gate projection and
    gradient zeroing."""
    from repro.autodiff import Tape
    from repro.cln.loss import GateSchedule, build_gcln_loss_batched
    from repro.cln.train import LAMBDA1_SCHEDULE, LAMBDA2_SCHEDULE

    X = Tensor(data)
    lam1, lam2 = Tensor(0.0), Tensor(0.0)
    schedules = GateSchedule(*LAMBDA1_SCHEDULE), GateSchedule(*LAMBDA2_SCHEDULE)
    # A moderately relaxed σ keeps the Gaussian gradients large, so
    # the clip fires on many steps.
    sigma = np.array(model.config.sigma * 10.0)
    tape = Tape()
    for _ in range(epochs):
        lam1.data[...] = schedules[0].step()
        lam2.data[...] = schedules[1].step()
        tape.step(lambda: build_gcln_loss_batched(model, X, lam1, lam2, sigma))
        update()


def test_flat_adam_matches_per_parameter_adam_bitwise():
    """Adam over the one parameter vector takes the per-parameter
    update bitwise, with clipping active: same weights, gates and
    both moments."""
    from repro.cln.model import complexity_term_weights
    from repro.cln.train import LEARNING_RATE, LR_DECAY
    from repro.infer.stages import derive_loop_rng
    from tests.test_backend import _loop0_matrix

    bundle = _loop0_matrix("ps2")
    weights = complexity_term_weights([m.degree for m in bundle.basis.monomials])

    def ps2_model():
        return GCLN(
            len(bundle.basis), GCLNConfig(), derive_loop_rng(1, 0),
            protected_terms=[0], term_weights=weights,
        )

    # Below the trainer's 100, so that the clip fires on some steps and
    # not on others here, as it does over whole NLA runs.
    epochs, max_norm = 300, 40.0
    flat_model = ps2_model()
    opt = Adam(flat_model.parameters_batched(), lr=LEARNING_RATE, decay=LR_DECAY)
    clipped = []

    def flat_update():
        clipped.append(opt.clip_grad_norm(max_norm) > max_norm)
        opt.step()
        flat_model.project_gates()
        opt.zero_grad()

    _train_with_tape(flat_model, bundle.data, epochs, flat_update)

    ref_model = ps2_model()
    params = ref_model.parameters_batched()
    ref = _PerParameterAdam(params, LEARNING_RATE, LR_DECAY)

    def reference_update():
        grads = [p.grad.copy() for p in params]
        ref.clip(grads, max_norm)
        ref.step(grads)
        for value in ref.params[:2]:  # the and and OR gates
            np.clip(value, 0.0, 1.0, out=value)
        for p, value in zip(params, ref.params):
            p.data[...] = value
            p.grad[...] = 0.0

    _train_with_tape(ref_model, bundle.data, epochs, reference_update)

    assert epochs // 10 < sum(clipped) < epochs, sum(clipped)
    for got, want in zip(flat_model.parameters_batched(), ref.params):
        assert np.array_equal(got.data, want)
    assert np.array_equal(opt._m, np.concatenate([m.ravel() for m in ref.m]))
    assert np.array_equal(opt._v, np.concatenate([v.ravel() for v in ref.v]))


def test_project_gates_matches_np_clip():
    """One clip-ufunc call over the gate slice is np.clip per gate
    array, NaN and signed zeros included; unit weights are untouched."""
    model = _eq_model()
    special = [np.nan, -0.0, 0.0, -1.0, 2.0, 0.5, 1.0, np.inf, -np.inf]
    gates = [model.and_gates.data, model.or_gates_stacked.data]
    for i, arr in enumerate(gates):
        flat = arr.reshape(-1)
        flat[:] = [special[(i + j) % len(special)] for j in range(flat.size)]
    weights = model.unit_weights.data.copy()
    want = [np.clip(arr, 0.0, 1.0) for arr in gates]
    model.project_gates()
    for got, ref in zip(gates, want):
        assert np.array_equal(got, ref, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
    assert np.array_equal(model.unit_weights.data, weights)


def test_model_parameters_tile_one_vector():
    """Every parameter view and its gradient live in the model's one
    (data, grad) pair: the optimizer over the stacked parameters and
    the one over the per-unit views step the same memory."""
    model = _eq_model()
    stacked = Adam(model.parameters_batched())
    per_unit = Adam(model.parameters())
    assert np.shares_memory(stacked._data, per_unit._data)
    assert np.shares_memory(stacked._grad, per_unit._grad)
    assert stacked._data.size == per_unit._data.size
    model.units_flat[0].weight.grad[0] = 3.0
    assert model.unit_weights.grad[0, 0] == 3.0
    stacked.zero_grad()
    assert not per_unit._grad.any()


def test_adam_refuses_parameters_that_do_not_tile_one_vector():
    from repro.errors import AutodiffError

    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(AutodiffError, match="flat_parameters"):
        Adam([a, b])
