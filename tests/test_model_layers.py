"""Tests for the basic numpy layers, including gradient checks."""

import numpy as np
import pytest

from repro.model.layers import (
    Embedding,
    Linear,
    RMSNorm,
    cross_entropy,
    silu,
    silu_backward,
    softmax,
    softmax_backward,
)
from repro.model.parameter import Module, Parameter

from helpers import check_input_gradient, check_parameter_gradients


class TestParameterAndModule:
    def test_parameter_zero_grad(self):
        p = Parameter(np.ones((2, 3)))
        p.accumulate(np.ones((2, 3)))
        assert p.grad.sum() == 6
        p.zero_grad()
        assert p.grad.sum() == 0

    def test_parameter_shape_mismatch(self):
        p = Parameter(np.ones((2, 3)))
        with pytest.raises(ValueError):
            p.accumulate(np.ones((3, 2)))

    def test_module_named_parameters(self):
        layer = Linear(4, 3, bias=True)
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}
        assert layer.num_parameters() == 4 * 3 + 3

    def test_module_duplicate_registration(self):
        module = Module()
        module.register_parameter("w", Parameter(np.zeros(2)))
        with pytest.raises(ValueError):
            module.register_parameter("w", Parameter(np.zeros(2)))

    def test_state_dict_roundtrip(self):
        layer = Linear(4, 3, bias=True, rng=np.random.default_rng(1))
        state = layer.state_dict()
        assert set(state) == {name for name, _ in layer.named_parameters()}
        for name, param in layer.named_parameters():
            assert np.array_equal(state[name], param.value)
            assert not np.shares_memory(state[name], param.value)


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(5, 7)
        x = np.random.default_rng(0).normal(size=(2, 3, 5))
        out, _ = layer.forward(x)
        assert out.shape == (2, 3, 7)

    def test_bias_applied(self):
        layer = Linear(2, 2, bias=True)
        layer.weight.value = np.zeros((2, 2))
        layer.bias.value = np.array([1.0, 2.0])
        out, _ = layer.forward(np.zeros((1, 2)))
        assert np.allclose(out, [[1.0, 2.0]])

    def test_wrong_input_dim(self):
        layer = Linear(3, 2)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((2, 4)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        layer = Linear(4, 3, bias=True, rng=rng)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 3))

        def loss_fn():
            out, _ = layer.forward(x)
            return float(np.sum((out - target) ** 2))

        def backward_fn():
            out, cache = layer.forward(x)
            layer.backward(2 * (out - target), cache)

        check_parameter_gradients(layer, loss_fn, backward_fn)

    def test_input_gradient(self):
        rng = np.random.default_rng(4)
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 3))
        out, cache = layer.forward(x)
        grad_in = layer.backward(2 * (out - target), cache)

        def forward_loss(inp):
            out2, _ = layer.forward(inp)
            return float(np.sum((out2 - target) ** 2))

        check_input_gradient(forward_loss, grad_in, x)


class TestRMSNorm:
    def test_output_is_normalised(self):
        norm = RMSNorm(8)
        x = np.random.default_rng(0).normal(size=(4, 8)) * 10
        out, _ = norm.forward(x)
        rms = np.sqrt(np.mean(out ** 2, axis=-1))
        assert np.allclose(rms, 1.0, atol=1e-3)

    def test_gradients(self):
        rng = np.random.default_rng(5)
        norm = RMSNorm(6)
        norm.weight.value = rng.normal(1.0, 0.1, size=6)
        x = rng.normal(size=(3, 6))
        target = rng.normal(size=(3, 6))

        def loss_fn():
            out, _ = norm.forward(x)
            return float(np.sum((out - target) ** 2))

        def backward_fn():
            out, cache = norm.forward(x)
            norm.backward(2 * (out - target), cache)

        check_parameter_gradients(norm, loss_fn, backward_fn)

    def test_input_gradient(self):
        rng = np.random.default_rng(6)
        norm = RMSNorm(6)
        x = rng.normal(size=(3, 6))
        target = rng.normal(size=(3, 6))
        out, cache = norm.forward(x)
        grad_in = norm.backward(2 * (out - target), cache)

        def forward_loss(inp):
            out2, _ = norm.forward(inp)
            return float(np.sum((out2 - target) ** 2))

        check_input_gradient(forward_loss, grad_in, x)


class TestEmbedding:
    def test_lookup(self):
        emb = Embedding(10, 4)
        out, _ = emb.forward(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)
        assert np.allclose(out[0, 0], emb.weight.value[1])

    def test_out_of_range(self):
        emb = Embedding(10, 4)
        with pytest.raises(ValueError):
            emb.forward(np.array([[10]]))

    def test_gradient_scatter(self):
        emb = Embedding(6, 3)
        tokens = np.array([[0, 1, 0]])
        out, cache = emb.forward(tokens)
        grad = np.ones_like(out)
        emb.backward(grad, cache)
        # Token 0 appears twice, token 1 once, others never.
        assert np.allclose(emb.weight.grad[0], 2.0)
        assert np.allclose(emb.weight.grad[1], 1.0)
        assert np.allclose(emb.weight.grad[2], 0.0)


class TestActivationsAndLosses:
    def test_softmax_sums_to_one(self):
        x = np.random.default_rng(0).normal(size=(4, 7))
        probs = softmax(x)
        assert np.allclose(probs.sum(axis=-1), 1.0)

    def test_softmax_stability_with_large_values(self):
        probs = softmax(np.array([1e4, 1e4 + 1.0]))
        assert np.all(np.isfinite(probs))

    def test_softmax_backward_matches_numeric(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 5))
        upstream = rng.normal(size=(3, 5))
        probs = softmax(x)
        analytic = softmax_backward(upstream, probs)

        def forward_loss(inp):
            return float(np.sum(softmax(inp) * upstream))

        check_input_gradient(forward_loss, analytic, x)

    def test_silu_backward_matches_numeric(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 4))
        upstream = rng.normal(size=(4, 4))
        analytic = silu_backward(upstream, x)

        def forward_loss(inp):
            return float(np.sum(silu(inp) * upstream))

        check_input_gradient(forward_loss, analytic, x)

    def test_cross_entropy_perfect_prediction(self):
        logits = np.zeros((1, 3))
        logits[0, 1] = 100.0
        loss, _ = cross_entropy(logits, np.array([1]))
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_uniform(self):
        logits = np.zeros((1, 4))
        loss, _ = cross_entropy(logits, np.array([2]))
        assert loss == pytest.approx(np.log(4))

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(2, 3, 5))
        targets = rng.integers(0, 5, size=(2, 3))
        _, grad = cross_entropy(logits, targets)

        def forward_loss(inp):
            loss, _ = cross_entropy(inp, targets)
            return loss

        check_input_gradient(forward_loss, grad, logits)

    def test_cross_entropy_rejects_bad_target(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((1, 3)), np.array([3]))
