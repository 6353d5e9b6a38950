"""Tests for the autodiff engine, including finite-difference checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AutodiffError
from repro.autodiff import Adam, Tensor, gaussian, no_grad, sigmoid
from repro.autodiff.functional import maximum, minimum, stack


def finite_diff(f, x: Tensor, eps: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = f().item()
        flat[i] = original - eps
        down = f().item()
        flat[i] = original
        out[i] = (up - down) / (2 * eps)
    return grad


def check_grad(build, x: Tensor, tol: float = 1e-5):
    x.zero_grad()
    build().backward()
    assert x.grad is not None
    numeric = finite_diff(build, x)
    np.testing.assert_allclose(x.grad, numeric, atol=tol, rtol=1e-4)


def test_add_mul_grad():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    check_grad(lambda: ((x * 3.0 + 1.0) * x).sum(), x)


def test_div_pow_grad():
    x = Tensor(np.array([1.5, 2.5]), requires_grad=True)
    check_grad(lambda: ((x**3) / (x + 10.0)).sum(), x)


def test_matmul_grad():
    W = Tensor(np.arange(6, dtype=float).reshape(2, 3) / 10 + 0.1, requires_grad=True)
    X = Tensor(np.ones((4, 2)))
    check_grad(lambda: ((X @ W) ** 2).sum(), W)


def test_broadcast_grad():
    b = Tensor(np.array([0.5, -0.5, 1.0]), requires_grad=True)
    X = Tensor(np.ones((4, 3)))
    check_grad(lambda: ((X + b) * 2.0).sum(), b)


def test_elementwise_functions_grad():
    x = Tensor(np.array([0.3, -0.7, 1.2]), requires_grad=True)
    check_grad(lambda: sigmoid(x).sum(), x)
    check_grad(lambda: gaussian(x, 0.8).sum(), x)


def test_abs_grad():
    x = Tensor(np.array([0.5, -2.0]), requires_grad=True)
    check_grad(lambda: x.abs().sum(), x)


def test_prod_grad_no_zero():
    x = Tensor(np.array([[1.0, 2.0, 3.0], [0.5, 4.0, -1.0]]), requires_grad=True)
    check_grad(lambda: x.prod(axis=1).sum(), x)


def test_prod_grad_with_zero():
    x = Tensor(np.array([0.0, 2.0, 3.0]), requires_grad=True)
    x.prod(axis=0).backward()
    np.testing.assert_allclose(x.grad, [6.0, 0.0, 0.0])


def test_maximum_minimum():
    a = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    b = Tensor(np.array([0.0, 0.0]))
    assert maximum(a, b).data.tolist() == [1.0, 0.0]
    assert minimum(a, b).data.tolist() == [0.0, -2.0]


def test_stack_grad():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    s = stack([a, b], axis=1)
    assert s.shape == (3, 2)
    (s * np.array([1.0, 2.0])).sum().backward()
    np.testing.assert_allclose(a.grad, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])


def test_getitem_grad():
    x = Tensor(np.arange(5, dtype=float), requires_grad=True)
    (x[1:3].sum() * 2.0).backward()
    np.testing.assert_allclose(x.grad, [0, 2, 2, 0, 0])


def test_gradient_accumulates_over_reuse():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * x + x * 3.0
    y.backward()
    np.testing.assert_allclose(x.grad, [7.0])


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(AutodiffError):
        (x * 2.0).backward()


def test_no_grad_blocks_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = (x * 2.0).sum()
    assert not y.requires_grad


def test_deep_graph_does_not_recurse():
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = x
    for _ in range(5000):
        y = y + 0.0
    y.sum().backward()
    np.testing.assert_allclose(x.grad, [1.0])


def test_adam_descends_and_decays():
    w = Tensor(np.array([3.0, -2.0]), requires_grad=True)
    opt = Adam([w], lr=0.1, decay=0.999)
    for _ in range(300):
        opt.zero_grad()
        (w * w).sum().backward()
        opt.step()
    assert np.abs(w.data).max() < 1e-2
    assert opt.lr < 0.1


def test_optimizer_rejects_no_params():
    with pytest.raises(AutodiffError):
        Adam([Tensor(np.ones(1))], lr=0.1)


def test_clip_grad_norm():
    w = Tensor(np.array([1.0]), requires_grad=True)
    (w * 100.0).sum().backward()
    norm = Adam([w], lr=0.1).clip_grad_norm(1.0)
    assert norm == pytest.approx(100.0)
    np.testing.assert_allclose(w.grad, [1.0])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=2, max_size=5))
def test_composite_gradient_property(values):
    x = Tensor(np.array(values), requires_grad=True)
    check_grad(lambda: (sigmoid(x * 2.0) * gaussian(x, 1.0)).sum(), x, tol=1e-4)
