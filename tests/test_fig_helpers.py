"""Tests mirroring the figure benches' core assertions (fast versions).

The figure benchmarks print full tables; these tests pin down the same
shape claims so regressions are caught by ``pytest tests/`` alone.
"""

import numpy as np

from repro.cln.activations import pbqu_ge_numpy, sigmoid_ge_numpy


def test_fig7_pbqu_penalizes_loose_fits():
    xs = np.linspace(0.0, 50.0, 101)
    pbqu = pbqu_ge_numpy(xs, c1=0.5, c2=5.0)
    # Strictly decreasing above the bound: loose fits score lower.
    assert np.all(np.diff(pbqu) < 0)


def test_fig7_sigmoid_rewards_loose_fits():
    xs = np.linspace(0.0, 50.0, 101)
    sig = sigmoid_ge_numpy(xs, B=5.0, eps=0.5)
    assert np.all(np.diff(sig) >= 0)


def test_fig7_pbqu_limit_behaviour():
    """c1 -> 0, c2 -> inf approaches the discrete predicate (Eq. 3)."""
    xs = np.array([-1.0, -0.1, 0.1, 1.0])
    sharp = pbqu_ge_numpy(xs, c1=1e-4, c2=1e6)
    np.testing.assert_allclose(sharp, [0.0, 0.0, 1.0, 1.0], atol=1e-4)


def test_theorem_4_2_tightness_shape():
    """Theorem 4.2's conclusion, empirically: with c1 <= 2l and
    c1*c2 >= 8*sqrt(n)*l^2, maximizing PBQU over unit-norm (w, b) on 1-D
    data learns a bound within c1/sqrt(3) of the desired (touching)
    bound."""
    from repro.autodiff import Tensor, pbqu
    from repro.autodiff.optim import Adam

    rng = np.random.default_rng(0)
    points = rng.uniform(2.0, 6.0, size=24)  # true tight bound: x - 2 >= 0
    X = np.stack([points, np.ones_like(points)], axis=1)
    row_norm = float(np.max(np.linalg.norm(X, axis=1)))
    c1 = 0.5
    c2 = 8 * np.sqrt(len(points)) * row_norm * row_norm / c1
    w = Tensor(np.array([1.0, 0.0]), requires_grad=True)
    opt = Adam([w], lr=0.02)
    Xt = Tensor(X)
    for _ in range(1500):
        opt.zero_grad()
        norm = ((w * w).sum() + 1e-12) ** 0.5
        act = pbqu(Xt @ (w / norm), c1, c2)
        loss = (1.0 - act).sum()
        loss.backward()
        opt.step()
    direction = w.data / np.linalg.norm(w.data)
    residuals = X @ direction
    # Valid bound up to the theorem's error, and tight on some point.
    assert residuals.min() > -c1 / np.sqrt(3) - 0.05
    assert residuals.min() < c1
