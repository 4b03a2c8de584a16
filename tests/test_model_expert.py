"""Tests for the SwiGLU expert."""

import numpy as np
import pytest

from repro.model.expert import SwiGLUExpert

from helpers import check_input_gradient, check_parameter_gradients


def make_expert(hidden=8, inter=12, seed=0):
    return SwiGLUExpert(hidden, inter, rng=np.random.default_rng(seed))


class TestForwardBackward:
    def test_output_shape(self):
        expert = make_expert()
        x = np.random.default_rng(0).normal(size=(5, 8))
        out, _ = expert.forward(x)
        assert out.shape == (5, 8)

    def test_parameter_gradients(self):
        rng = np.random.default_rng(1)
        expert = make_expert(seed=1)
        x = rng.normal(size=(4, 8))
        target = rng.normal(size=(4, 8))

        def loss_fn():
            out, _ = expert.forward(x)
            return float(np.sum((out - target) ** 2))

        def backward_fn():
            out, cache = expert.forward(x)
            expert.backward(2 * (out - target), cache)

        check_parameter_gradients(expert, loss_fn, backward_fn, max_elements=25)

    def test_input_gradient(self):
        rng = np.random.default_rng(2)
        expert = make_expert(seed=2)
        x = rng.normal(size=(4, 8))
        target = rng.normal(size=(4, 8))
        out, cache = expert.forward(x)
        grad_in = expert.backward(2 * (out - target), cache)

        def forward_loss(inp):
            out2, _ = expert.forward(inp)
            return float(np.sum((out2 - target) ** 2))

        check_input_gradient(forward_loss, grad_in, x)

    def test_flops_formula(self):
        expert = make_expert(hidden=8, inter=12)
        assert expert.flops_per_token() == 6 * 8 * 12


class TestFlattening:
    def test_flat_size(self):
        expert = make_expert(hidden=8, inter=12)
        assert expert.flatten_parameters().size == 3 * 8 * 12

    def test_flatten_roundtrip(self):
        expert = make_expert(seed=3)
        flat = expert.flatten_parameters()
        other = make_expert(seed=99)
        other.load_flat_parameters(flat)
        assert np.array_equal(other.flatten_parameters(), flat)
        x = np.random.default_rng(0).normal(size=(3, 8))
        out1, _ = expert.forward(x)
        out2, _ = other.forward(x)
        assert np.allclose(out1, out2)

    def test_flatten_gradients_match_parameters_order(self):
        expert = make_expert(seed=4)
        x = np.random.default_rng(1).normal(size=(3, 8))
        out, cache = expert.forward(x)
        expert.backward(np.ones_like(out), cache)
        flat_grads = expert.flatten_gradients()
        named = dict(expert.named_parameters())
        manual = np.concatenate([named[n].grad.reshape(-1)
                                 for n in expert.parameter_order()])
        assert np.array_equal(flat_grads, manual)

    def test_load_wrong_size_rejected(self):
        expert = make_expert()
        with pytest.raises(ValueError):
            expert.load_flat_parameters(np.zeros(10))

    def test_load_zeroes_gradients(self):
        expert = make_expert(seed=5)
        x = np.random.default_rng(2).normal(size=(2, 8))
        out, cache = expert.forward(x)
        expert.backward(np.ones_like(out), cache)
        expert.load_flat_parameters(expert.flatten_parameters())
        assert all(np.all(p.grad == 0) for p in expert.parameters())
