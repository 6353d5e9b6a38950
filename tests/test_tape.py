"""Tests for graph taping: record once, replay with reused buffers."""

import numpy as np
import pytest

from repro.autodiff import Tape, Tensor, gaussian, pbqu, sigmoid
from repro.errors import AutodiffError


def test_tape_replay_matches_eager_gradients():
    w = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
    X = Tensor(np.arange(12, dtype=float).reshape(4, 3) / 10.0)

    def build():
        return (sigmoid(X @ w) * 2.0).sum()

    tape = Tape()
    for step in range(4):
        w.grad = None
        loss = tape.step(build)

        w2 = Tensor(w.data.copy(), requires_grad=True)
        expected = (sigmoid(X @ w2) * 2.0).sum()
        expected.backward()
        np.testing.assert_allclose(loss.data, expected.data, rtol=1e-12)
        np.testing.assert_allclose(w.grad, w2.grad, rtol=1e-12)
        # Mutate the leaf in place; the replayed graph must track it.
        w.data -= 0.1 * w.grad
    assert tape.replayable
    assert tape.replays == 3


def test_tape_replay_allocates_no_new_nodes():
    w = Tensor(np.ones(3), requires_grad=True)
    X = Tensor(np.ones((5, 3)))
    tape = Tape()
    tape.step(lambda: ((X @ w) ** 2).sum())
    recorded = tape.n_nodes
    for _ in range(3):
        w.grad = None
        tape.step(lambda: ((X @ w) ** 2).sum())
    assert tape.n_nodes == recorded


def test_tape_scalar_boxes_update_dynamically():
    """Schedule scalars in 0-d boxes must be re-read on every replay."""
    x = Tensor(np.array([0.5, -0.5]), requires_grad=True)
    sigma_box = np.array(2.0)
    tape = Tape()

    def build():
        return gaussian(x, sigma_box).sum()

    first = float(tape.step(build).data)
    sigma_box[...] = 0.5
    x.grad = None
    second = float(tape.step(build).data)
    expected = float(np.exp(-(x.data**2) / (2 * 0.5**2)).sum())
    assert second == pytest.approx(expected)
    assert first != pytest.approx(second)


def test_tape_pbqu_branch_condition_tracks_data():
    """The fused PBQU recomputes its sign branch on replay."""
    t = Tensor(np.array([1.0, -1.0]), requires_grad=True)
    tape = Tape()
    tape.step(lambda: pbqu(t, 1.0, 50.0).sum())
    t.data[...] = [-1.0, 1.0]  # flip every branch
    t.grad = None
    loss = tape.step(lambda: pbqu(t, 1.0, 50.0).sum())
    ref = Tensor(t.data.copy(), requires_grad=True)
    expected = pbqu(ref, 1.0, 50.0).sum()
    expected.backward()
    np.testing.assert_allclose(loss.data, expected.data)
    np.testing.assert_allclose(t.grad, ref.grad)


def test_tape_rejects_non_scalar_root():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(AutodiffError):
        Tape().step(lambda: x * 2.0)


def test_in_place_zero_grad_accumulates_correctly():
    """Optimizer zero_grad keeps the buffer; backward adds into it."""
    from repro.autodiff import Adam

    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = Adam([w], lr=0.1)
    (w * 3.0).sum().backward()
    buffer = w.grad
    opt.zero_grad()
    assert w.grad is buffer  # reused, not reallocated
    np.testing.assert_allclose(w.grad, [0.0, 0.0])
    (w * 3.0).sum().backward()
    np.testing.assert_allclose(w.grad, [3.0, 3.0])
