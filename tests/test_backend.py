"""Walker-vs-plan equivalence tests for the compiled tape replay.

The tape's closure walker is the bitwise oracle: the compiled plan
must reproduce its losses, gradients, and parameter updates exactly
(``np.array_equal``, not allclose) on random chains of the lowered op
kinds and on the real G-CLN training graphs; graphs with any other op
kind must replay through the walker.  The ``walker`` fixture reaches
the oracle the way that fallback does: it makes the plan compile
decline.
"""

import re

import numpy as np
import pytest

from repro.autodiff import (
    Adam,
    Tape,
    Tensor,
    flat_parameters,
    fused_gated_tconorm,
    fused_gated_tnorm,
    gaussian,
    pbqu,
    sigmoid,
)
from repro.autodiff import tape as tape_module
from repro.autodiff.plan import compile_plan
from repro.bench import nla_problem
from repro.cln.bounds import BoundBank, enumerate_bound_masks, train_bound_bank
from repro.cln.model import (
    GCLN,
    AtomicUnit,
    GCLNConfig,
    _random_mask,
    complexity_term_weights,
)
from repro.cln.train import train_gcln
from repro.infer import InferenceConfig
from repro.infer.stages import build_matrix, collect_states, derive_loop_rng
from repro.sampling import normalize_rows
from repro.sampling.cache import TraceCache


@pytest.mark.parametrize("name", ["numba", "auto"])
def test_removed_backend_names_are_rejected(name):
    """No replay engine can be picked any more, by name or keyword."""
    with pytest.raises(TypeError):
        Tape(backend=name)
    with pytest.raises(TypeError):
        GCLNConfig(backend=name)
    with pytest.raises(TypeError):
        InferenceConfig(backend=name)


# -- random training-graph fuzz --------------------------------------------


def _gated_step(u, w, gates, gate_fn):
    """The G-CLN clause shape: matmul -> reshape -> gated t-(co)norm."""
    r = gaussian(u @ w.T, 0.8).reshape(3, 5, 2)
    return gate_fn(r, gates, axis=-1)


def _random_chain_loss(leaves, sigma_box, rng):
    """A random bounded chain drawn from the lowered op kinds only."""
    a, b, w, gates = leaves
    cur = _gated_step(
        gaussian(a * 1.5 + b, sigma_box), w, gates, fused_gated_tconorm
    )
    ops = [
        lambda u: u + gaussian(b, sigma_box),
        lambda u: u * (abs(a) * 0.25 + 1.0),
        lambda u: u - gaussian(a, sigma_box) * 0.5,
        lambda u: u / (u * u + 1.5),
        lambda u: 1.0 - u,
        lambda u: abs(u - 0.5),
        lambda u: pbqu(u, 1.0, 50.0),
        lambda u: u ** 2,
        lambda u: (u * 0.5) ** 3,
        lambda u: (u * u + 0.25) ** 0.5,
        lambda u: u / ((u * u).sum(axis=1, keepdims=True) + 1.0),
        lambda u: _gated_step(u, w, gates, fused_gated_tnorm),
        lambda u: _gated_step(u, w, gates, fused_gated_tconorm),
    ]
    for idx in rng.integers(0, len(ops), size=8):
        cur = ops[int(idx)](cur)
    return (cur.sum() + (a * b).sum()) * 0.5


def _train_chain(seed, steps=4):
    rng = np.random.default_rng(seed)
    leaves = flat_parameters([
        rng.normal(size=(3, 5)),
        rng.normal(size=(3, 5)),
        rng.normal(size=(10, 5)),
        rng.uniform(0.2, 0.8, size=(5, 2)),
    ])
    a, b, w, gates = leaves
    sigma_box = np.array(1.2)
    op_rng = np.random.default_rng(seed + 1000)
    opt = Adam(leaves, lr=0.05)
    tape = Tape()
    losses, grads = [], []
    for i in range(steps):
        opt.zero_grad()
        loss = tape.step(lambda: _random_chain_loss(leaves, sigma_box, op_rng))
        losses.append(float(loss.data))
        grads.append([t.grad.copy() for t in leaves])
        opt.step()
        sigma_box[...] = 1.2 - 0.05 * i
    return losses, grads, [t.data.copy() for t in leaves], tape.stats()


@pytest.mark.parametrize("seed", range(5))
def test_fused_bitwise_on_random_chains(seed, walker):
    with walker():
        ln, gn, pn, sn = _train_chain(seed)
    lf, gf, pf, sf = _train_chain(seed)
    assert not sn["compiled"]
    assert sf["compiled"]
    assert sf["fallback_reason"] is None
    assert np.isfinite(ln).all()
    assert ln == lf
    for ga, gb in zip(gn, gf):
        for x, y in zip(ga, gb):
            assert np.array_equal(x, y)
    for x, y in zip(pn, pf):
        assert np.array_equal(x, y)


def _unlowered_kind_graph(kind, a, b):
    if kind == "sigmoid":
        return (sigmoid(a * 1.5 + b) * b).sum()
    return (gaussian(a, 1.0) + b * 0.5).prod(axis=1).sum()


def _train_unlowered_kind(kind, steps=4):
    rng = np.random.default_rng(11)
    a, b = flat_parameters([rng.normal(size=(3, 5)), rng.normal(size=(3, 5))])
    opt = Adam([a, b], lr=0.05)
    tape = Tape()
    losses, grads = [], []
    for _ in range(steps):
        opt.zero_grad()
        loss = tape.step(lambda: _unlowered_kind_graph(kind, a, b))
        losses.append(float(loss.data))
        grads.append([a.grad.copy(), b.grad.copy()])
        opt.step()
    return losses, grads, tape.stats()


@pytest.mark.parametrize("kind", ["sigmoid", "prod"])
def test_unlowered_kind_replays_through_walker(kind, walker):
    with walker():
        ln, gn, _ = _train_unlowered_kind(kind)
    lf, gf, sf = _train_unlowered_kind(kind)
    assert not sf["compiled"]
    assert sf["replays"] == 3
    assert sf["fallback_reason"] == f"unsupported op kind {kind!r}"
    assert ln == lf
    for ga, gb in zip(gn, gf):
        for x, y in zip(ga, gb):
            assert np.array_equal(x, y)


# -- real training graphs ----------------------------------------------------


def _relation_data():
    xs = np.arange(1, 13, dtype=float)
    return normalize_rows(
        np.stack([np.ones_like(xs), xs, 2 * xs, xs * xs], axis=1)
    )


def _train_eq():
    config = GCLNConfig(max_epochs=150, dropout_rate=0.2)
    rng = np.random.default_rng(7)
    # Three clauses of two units, built as GCLN would build them.
    units = [
        [AtomicUnit(_random_mask(4, 0.2, rng, [0]), rng, config) for _ in range(2)]
        for _ in range(3)
    ]
    model = GCLN(4, config, rng, units=units)
    train_gcln(model, _relation_data())
    return [p.data.copy() for p in model.parameters()]


def _loop0_matrix(name):
    """A problem's loop-0 training matrix, as the pipeline builds it."""
    problem = nla_problem(name)
    config = InferenceConfig()
    cache = TraceCache()
    dataset = collect_states(problem, config, None, cache)
    return build_matrix(problem, config, dataset, 0, cache)


def _train_eq_ps2():
    """ps2's first attempt on loop 0: a default-size model and matrix."""
    bundle = _loop0_matrix("ps2")
    weights = complexity_term_weights([m.degree for m in bundle.basis.monomials])
    config = GCLNConfig(max_epochs=200)
    model = GCLN(
        len(bundle.basis), config, derive_loop_rng(1, 0),
        protected_terms=[0], term_weights=weights,
    )
    train_gcln(model, bundle.data)
    return [p.data.copy() for p in model.parameters()]


# The small case's tensors are a few elements wide; the problem-size
# case is where a layout-dependent rounding difference shows (a
# transposed gradient buffer written by matmul).
@pytest.mark.parametrize("train", [_train_eq, _train_eq_ps2], ids=["small", "ps2"])
def test_gcln_training_bitwise_across_backends(train, walker):
    with walker():
        ref = train()
    fused = train()
    assert len(ref) == len(fused)
    for x, y in zip(ref, fused):
        assert np.array_equal(x, y)


def _train_bank():
    data = normalize_rows(
        np.stack(
            [np.ones(12), np.arange(1.0, 13.0), np.arange(1.0, 13.0) ** 2],
            axis=1,
        )
    )
    masks = np.array([[1, 1, 0], [1, 0, 1], [1, 1, 1]], dtype=bool)
    config = GCLNConfig(max_epochs=120)
    bank = BoundBank(masks, config, np.random.default_rng(3))
    train_bound_bank(bank, data)
    return bank.weight.data.copy()


def _train_bank_sqrt1():
    """sqrt1's loop-0 bound bank, as its first attempt builds it."""
    bundle = _loop0_matrix("sqrt1")
    monomials = bundle.basis.monomials
    masks = enumerate_bound_masks(
        [m.variables for m in monomials], [m.degree for m in monomials]
    )
    bank = BoundBank(masks, GCLNConfig(max_epochs=200), derive_loop_rng(1, 0))
    train_bound_bank(bank, bundle.data)
    return bank.weight.data.copy()


@pytest.mark.parametrize(
    "train", [_train_bank, _train_bank_sqrt1], ids=["small", "sqrt1"]
)
def test_bound_bank_training_honors_numpy_backend(train, monkeypatch, walker):
    """The bound bank's tape reaches the numpy walker and the plan alike."""
    with walker():
        ref = train()
    compiled = []
    real = tape_module.compile_plan

    def spy(nodes, root):
        plan, failure = real(nodes, root)
        compiled.append(plan is not None)
        return plan, failure

    monkeypatch.setattr(tape_module, "compile_plan", spy)
    fused = train()
    assert compiled and all(compiled), "the bound-bank tape never compiled"
    assert np.array_equal(ref, fused)


# -- plan internals ----------------------------------------------------------


def _gate_inputs(rng, kind, shape, axis):
    """Values and broadcast gates with exact zeros in both and in inner."""
    values = rng.uniform(0.0, 1.0, size=shape)
    gates = rng.uniform(0.1, 0.9, size=shape[1:])
    values[0, 0, 0] = 0.0
    gates[(0,) * gates.ndim] = 0.0
    # An exactly-zero factor of the product: 1 + 1*(0 - 1) for the
    # t-norm, 1 - 1*1 for the t-conorm.
    where = [1] * len(shape)
    where[axis] = shape[axis] - 1
    gates[tuple(where[1:])] = 1.0
    values[tuple(where)] = 0.0 if kind == "tnorm" else 1.0
    return values, gates


def _replay_gate(kind, shape, axis, steps=3):
    """Forward values and leaf gradients of a taped gated t-(co)norm."""
    fn = fused_gated_tnorm if kind == "tnorm" else fused_gated_tconorm
    rng = np.random.default_rng(len(shape) * 100 + shape[axis])
    values = Tensor(np.zeros(shape), requires_grad=True)
    gates = Tensor(np.zeros(shape[1:]), requires_grad=True)
    weight = rng.normal(size=shape[:axis] + shape[axis + 1:])
    node = []

    def build():
        node.clear()
        node.append(fn(values, gates, axis=axis))
        return (node[0] * weight).sum()

    tape = Tape()
    records = []
    for _ in range(steps):
        values.data[...], gates.data[...] = _gate_inputs(rng, kind, shape, axis)
        values.grad = gates.grad = None
        tape.step(build)
        records.append(
            (node[0].data.copy(), values.grad.copy(), gates.grad.copy())
        )
    return records, tape.stats()


@pytest.mark.parametrize("length", [1, 2, 3, 21])
@pytest.mark.parametrize("axis", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("kind", ["tnorm", "tconorm"])
def test_gated_tnorm_plan_matches_walker(kind, axis, length, walker):
    """Each lowering of the reduced axis reproduces the walker bitwise."""
    shape = [4, 3, 5]
    shape[axis] = length
    with walker():
        ref, ref_stats = _replay_gate(kind, tuple(shape), axis)
    fused, stats = _replay_gate(kind, tuple(shape), axis)
    assert not ref_stats["compiled"]
    assert stats["compiled"]
    for want, got in zip(ref, fused):
        for x, y in zip(want, got):
            assert np.array_equal(x, y)


def _ps2_plan(monkeypatch):
    """The compiled plan (and recorded nodes) of ps2's default-size
    loop-0 model, as its first attempt trains it."""
    bundle = _loop0_matrix("ps2")
    weights = complexity_term_weights([m.degree for m in bundle.basis.monomials])
    model = GCLN(
        len(bundle.basis), GCLNConfig(max_epochs=3), derive_loop_rng(1, 0),
        protected_terms=[0], term_weights=weights,
    )
    compiled = []
    real = tape_module.compile_plan

    def spy(nodes, root):
        plan, failure = real(nodes, root)
        compiled.append((plan, list(nodes)))
        return plan, failure

    monkeypatch.setattr(tape_module, "compile_plan", spy)
    train_gcln(model, bundle.data)
    [(plan, nodes)] = compiled
    assert plan is not None
    return plan, nodes


def test_plan_has_no_reduction_over_a_two_long_axis(monkeypatch):
    """Literal products and their exclusive products lower to multiplies."""
    plan, nodes = _ps2_plan(monkeypatch)
    gates = [n._op for n in nodes if n._op[0] in ("tnorm", "tconorm")]
    assert {kind for kind, _ in gates} == {"tnorm", "tconorm"}
    assert any(p["inner"].shape[p["axis"]] == 2 for _, p in gates)
    reductions = re.findall(
        r"np\.multiply\.(?:reduce|accumulate)\((\w+), axis=(-?\d+)", plan.source
    )
    assert reductions, "the and-gate t-norm should still reduce"
    for name, axis in reductions:
        assert plan.env[name].shape[int(axis)] != 2, (name, axis)


def _plan_lines(plan, fn):
    body = plan.source.split(f"def {fn}():\n", 1)[1].split("\n\n", 1)[0]
    return [line.strip() for line in body.splitlines()]


def test_ps2_plan_computes_one_normalization_and_aliases_gradients(monkeypatch):
    """Forward reuse: the L1 term's masked, normalized weights are the
    forward's, computed once.  Gradient aliasing: pass-through
    gradients are views of their consumer's buffer, not copies."""
    plan, nodes = _ps2_plan(monkeypatch)
    fwd, bwd = _plan_lines(plan, "_fwd"), _plan_lines(plan, "_bwd")
    # Both chains are recorded; the replay runs one.
    assert sum(n._op == ("pow", {"exponent": 0.5}) for n in nodes) == 2
    assert sum(line.startswith("np.power(") for line in fwd) == 1
    # Copies from one gradient buffer into another (ps2's plan made 17
    # before aliasing).
    copies = [
        line for line in bwd
        if re.match(r"np\.copyto\(l?g\d+, l?g\d+", line)
    ]
    assert len(copies) <= 8, copies


def _rewrite_graph(case, a, b, eps):
    """Small graphs over the plan's two rewrites (see the test below)."""
    if case == "shared-parent":
        # A pass-through parent with two consumers: two contributions.
        u = gaussian(a, 0.9)
        return ((u + b) * (u - b * 0.5)).sum()
    if case == "square":
        # x*x: one consumer, but two references.
        u = a + b
        return (u * u).sum() + (u * 0.0 + 1.0).sum()
    if case == "reshape":
        # Same-shape and shape-changing reshapes of a gradient.
        u = gaussian(a * 1.5 + b, 1.1).reshape(3, 5).reshape(15)
        return (abs(u - 0.25) * gaussian(b, 0.7).reshape(15)).sum()
    if case == "duplicate-viewed":
        # A duplicate that a reshape views keeps its own buffer.
        u1, u2 = gaussian(a, 0.8), gaussian(a, 0.8)
        return (u1 * b).sum() + (u2.reshape(15) * b.reshape(15)).sum()
    # A duplicated subgraph: the same normalization built twice over
    # the same leaves, as the G-CLN loss builds its weights.
    def normalized():
        w = a * b
        return w / ((w * w).sum(axis=1, keepdims=True) + eps) ** 0.5
    return (normalized() * a).sum() + abs(normalized()).sum()


@pytest.mark.parametrize(
    "case",
    ["shared-parent", "square", "reshape", "duplicate", "duplicate-viewed"],
)
def test_plan_rewrites_replay_like_the_walker(case, walker):
    """Aliased gradients and reused forwards replay bitwise-equal to
    the walker, three replays in a row."""

    def run():
        rng = np.random.default_rng(5)
        a, b = flat_parameters(
            [rng.normal(size=(3, 5)), rng.normal(size=(3, 5))]
        )
        eps = Tensor(1e-12)
        opt = Adam([a, b], lr=0.05)
        tape = Tape()
        records = []
        for _ in range(4):
            opt.zero_grad()
            loss = tape.step(lambda: _rewrite_graph(case, a, b, eps))
            records.append(
                (float(loss.data), a.grad.copy(), b.grad.copy())
            )
            opt.step()
            records.append((a.data.copy(), b.data.copy()))
        return records, tape.stats()

    with walker():
        want, ref_stats = run()
    got, stats = run()
    assert not ref_stats["compiled"]
    assert stats["compiled"] and stats["replays"] == 3
    for w, g in zip(want, got):
        for x, y in zip(w, g):
            assert np.array_equal(x, y)


def test_plan_recompiles_after_leaf_storage_swap():
    a = Tensor(np.linspace(-1, 1, 8), requires_grad=True)

    def build():
        return (gaussian(a, 0.7) * abs(a)).sum()

    tape = Tape()
    tape.step(build)
    a.grad = None
    first = float(tape.step(build).data)
    assert tape.stats()["compiled"]
    # Swap the leaf's storage: the data guard must drop the stale plan.
    a.data = np.linspace(0.5, 2.0, 8)
    a.grad = None
    swapped = float(tape.step(build).data)
    expected = float(np.sum(
        np.exp(-(a.data ** 2) / (2.0 * 0.7 ** 2)) * np.abs(a.data)
    ))
    assert tape.stats()["compiled"]
    assert swapped != first
    np.testing.assert_allclose(swapped, expected, rtol=1e-12)
    assert tape.stats()["replays"] == 2


def test_tape_stats_keys():
    a = Tensor(np.ones(6), requires_grad=True)

    def build():
        return (gaussian(a, 1.0) * 2.0 + pbqu(a, 1.0, 50.0)).sum()

    tape = Tape()
    tape.step(build)
    a.grad = None
    tape.step(build)
    stats = tape.stats()
    assert set(stats) == {
        "compiled", "n_nodes", "replays", "compile_ms", "fallback_reason",
    }
    assert stats["compiled"]
    assert stats["fallback_reason"] is None
    assert stats["compile_ms"] > 0.0


def test_compile_plan_reports_failure_reason():
    # The reason comes back with the (missing) plan, not through
    # process-global state another tape could overwrite.
    assert compile_plan([], Tensor(1.0)) == (None, "empty tape")
    assert not hasattr(compile_plan, "last_failure")
