"""Walker-vs-plan equivalence tests for the compiled tape replay.

The tape's closure walker is the bitwise oracle: the compiled plan
must reproduce its losses, gradients, and parameter updates exactly
(``np.array_equal``, not allclose) on random chains of the lowered op
kinds and on the real G-CLN training graphs; graphs with any other op
kind must replay through the walker.  The ``walker`` fixture reaches
the oracle the way that fallback does: it makes the plan compile
decline.
"""

import numpy as np
import pytest

from repro.autodiff import (
    Adam,
    Tape,
    Tensor,
    fused_gated_tconorm,
    fused_gated_tnorm,
    gaussian,
    pbqu,
    sigmoid,
)
from repro.autodiff import tape as tape_module
from repro.autodiff.plan import compile_plan, exclusive_prod_into
from repro.autodiff.tensor import exclusive_prod
from repro.cln.bounds import BoundBank, train_bound_bank
from repro.cln.model import GCLN, AtomicUnit, GCLNConfig, _random_mask
from repro.cln.train import train_gcln
from repro.infer import InferenceConfig
from repro.sampling import normalize_rows


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
    a = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(10, 5)), requires_grad=True)
    gates = Tensor(rng.uniform(0.2, 0.8, size=(5, 2)), requires_grad=True)
    leaves = [a, b, w, gates]
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
    a = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
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


def test_gcln_training_bitwise_across_backends(walker):
    with walker():
        ref = _train_eq()
    fused = _train_eq()
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


def test_bound_bank_training_honors_numpy_backend(monkeypatch, walker):
    """The bound bank's tape reaches the numpy walker and the plan alike."""
    with walker():
        ref = _train_bank()
    compiled = []
    real = tape_module.compile_plan

    def spy(nodes, root):
        plan, failure = real(nodes, root)
        compiled.append(plan is not None)
        return plan, failure

    monkeypatch.setattr(tape_module, "compile_plan", spy)
    fused = _train_bank()
    assert compiled and all(compiled), "the bound-bank tape never compiled"
    assert np.array_equal(ref, fused)


# -- plan internals ----------------------------------------------------------


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_exclusive_prod_into_bitwise(axis):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 5, 3))
    x[1, 2, 1] = 0.0  # zeros must match too
    x[0, 0, 0] = 0.0
    ref = exclusive_prod(x, axis)
    out = np.empty_like(x)
    exclusive_prod_into(x, axis % x.ndim, np.empty_like(x), np.empty_like(x), out)
    assert np.array_equal(ref, out)


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
