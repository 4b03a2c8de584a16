"""Tests for the optimizers and gradient clipping."""

import numpy as np
import pytest

from repro.model.layers import Linear
from repro.model.optimizer import Adam, SGD, clip_gradients


def quadratic_problem(seed=0):
    """A tiny least-squares problem: fit y = x @ W_true."""
    rng = np.random.default_rng(seed)
    layer = Linear(4, 3, rng=rng)
    w_true = rng.normal(size=(4, 3))
    x = rng.normal(size=(64, 4))
    y = x @ w_true
    return layer, x, y


def loss_and_grad(layer, x, y):
    out, cache = layer.forward(x)
    diff = out - y
    loss = float(np.mean(diff ** 2))
    layer.zero_grad()
    layer.backward(2 * diff / diff.size, cache)
    return loss


class TestSGD:
    def test_reduces_loss(self):
        layer, x, y = quadratic_problem()
        opt = SGD(layer, lr=0.5)
        first = loss_and_grad(layer, x, y)
        for _ in range(50):
            loss_and_grad(layer, x, y)
            opt.step()
        assert loss_and_grad(layer, x, y) < 0.1 * first

    def test_momentum_converges(self):
        layer, x, y = quadratic_problem(seed=1)
        opt = SGD(layer, lr=0.2, momentum=0.9)
        first = loss_and_grad(layer, x, y)
        for _ in range(50):
            loss_and_grad(layer, x, y)
            opt.step()
        assert loss_and_grad(layer, x, y) < first

    def test_validation(self):
        layer, _, _ = quadratic_problem()
        with pytest.raises(ValueError):
            SGD(layer, lr=0.0)
        with pytest.raises(ValueError):
            SGD(layer, lr=0.1, momentum=1.0)


class TestAdam:
    def test_reduces_loss(self):
        layer, x, y = quadratic_problem(seed=2)
        opt = Adam(layer, lr=0.05)
        first = loss_and_grad(layer, x, y)
        for _ in range(100):
            loss_and_grad(layer, x, y)
            opt.step()
        assert loss_and_grad(layer, x, y) < 0.1 * first

    def test_weight_decay_shrinks_weights(self):
        layer, x, y = quadratic_problem(seed=3)
        heavy = Adam(layer, lr=0.01, weight_decay=0.5)
        norm_before = np.linalg.norm(layer.weight.value)
        for _ in range(20):
            layer.zero_grad()  # pure decay, no data gradient
            heavy.step()
        assert np.linalg.norm(layer.weight.value) < norm_before

    def test_state_tracks_parameters(self):
        layer, x, y = quadratic_problem(seed=4)
        opt = Adam(layer, lr=0.01)
        loss_and_grad(layer, x, y)
        opt.step()
        state = opt.optimizer_state()
        assert set(state) == {name for name, _ in layer.named_parameters()}

    def test_validation(self):
        layer, _, _ = quadratic_problem()
        with pytest.raises(ValueError):
            Adam(layer, lr=-1.0)
        with pytest.raises(ValueError):
            Adam(layer, betas=(1.0, 0.9))
        with pytest.raises(ValueError):
            Adam(layer, weight_decay=-0.1)

    def test_zero_grad(self):
        layer, x, y = quadratic_problem(seed=5)
        opt = Adam(layer)
        loss_and_grad(layer, x, y)
        opt.zero_grad()
        assert all(np.all(p.grad == 0) for p in layer.parameters())


class TestClipGradients:
    def test_clips_to_max_norm(self):
        layer, x, y = quadratic_problem(seed=6)
        loss_and_grad(layer, x, y)
        norm_before = clip_gradients(layer, max_norm=1e-3)
        total = sum(float(np.sum(p.grad ** 2)) for p in layer.parameters())
        assert np.sqrt(total) == pytest.approx(1e-3, rel=1e-6)
        assert norm_before > 1e-3

    def test_no_clip_when_below(self):
        layer, x, y = quadratic_problem(seed=7)
        loss_and_grad(layer, x, y)
        grads_before = [p.grad.copy() for p in layer.parameters()]
        clip_gradients(layer, max_norm=1e9)
        for before, param in zip(grads_before, layer.parameters()):
            assert np.array_equal(before, param.grad)

    def test_invalid_norm(self):
        layer, _, _ = quadratic_problem()
        with pytest.raises(ValueError):
            clip_gradients(layer, 0.0)
