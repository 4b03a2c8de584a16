"""Tests for the full MoE transformer."""

import numpy as np
import pytest

from repro.model.transformer import MoETransformer
from repro.workloads.model_configs import tiny_test_config
from repro.workloads.routing_traces import routing_from_assignments


@pytest.fixture
def model():
    return MoETransformer(tiny_test_config(), aux_loss_weight=1e-2, seed=0)


def batch(model, batch_size=2, seq=8, seed=0):
    rng = np.random.default_rng(seed)
    vocab = model.config.vocab_size
    inputs = rng.integers(0, vocab, size=(batch_size, seq))
    targets = rng.integers(0, vocab, size=(batch_size, seq))
    return inputs, targets


class TestForward:
    def test_logits_shape(self, model):
        inputs, targets = batch(model)
        out = model.forward(inputs, targets)
        assert out.logits.shape == (2, 8, model.config.vocab_size)

    def test_loss_composition(self, model):
        inputs, targets = batch(model)
        out = model.forward(inputs, targets)
        assert out.loss == pytest.approx(
            out.lm_loss + model.aux_loss_weight * out.aux_loss)

    def test_initial_loss_near_uniform(self, model):
        inputs, targets = batch(model, batch_size=4, seq=16)
        out = model.forward(inputs, targets)
        assert out.lm_loss == pytest.approx(np.log(model.config.vocab_size), rel=0.2)

    def test_expert_counts_shape(self, model):
        inputs, targets = batch(model)
        out = model.forward(inputs, targets)
        assert out.expert_counts.shape == (model.config.num_layers,
                                           model.config.num_experts)
        assert out.expert_counts.sum() == (model.config.num_layers
                                           * 2 * 8 * model.config.top_k)

    def test_forward_without_targets(self, model):
        inputs, _ = batch(model)
        out = model.forward(inputs)
        assert out.lm_loss == 0.0
        with pytest.raises(ValueError):
            model.backward(out)

    def test_rejects_1d_input(self, model):
        with pytest.raises(ValueError):
            model.forward(np.array([1, 2, 3]))

    def test_num_parameters_positive(self, model):
        assert model.num_parameters() > 100_000


class TestBackward:
    def test_all_parameters_receive_gradients(self, model):
        inputs, targets = batch(model, batch_size=4, seq=16, seed=3)
        model.zero_grad()
        out = model.forward(inputs, targets)
        model.backward(out)
        zero_grads = [name for name, p in model.named_parameters()
                      if np.abs(p.grad).sum() == 0]
        # Only rarely-routed experts may legitimately have zero gradients.
        assert all("experts" in name for name in zero_grads)

    def test_gradient_descent_reduces_loss(self, model):
        inputs, targets = batch(model, batch_size=4, seq=16, seed=4)
        out1 = model.forward(inputs, targets)
        model.zero_grad()
        model.backward(out1)
        lr = 0.05
        for param in model.parameters():
            param.value -= lr * param.grad
        out2 = model.forward(inputs, targets)
        assert out2.loss < out1.loss

    def test_aux_weight_changes_gradients(self):
        config = tiny_test_config()
        inputs = np.random.default_rng(5).integers(0, config.vocab_size, size=(2, 8))
        targets = np.random.default_rng(6).integers(0, config.vocab_size, size=(2, 8))
        grads = {}
        for weight in (0.0, 1.0):
            model = MoETransformer(config, aux_loss_weight=weight, seed=0)
            model.zero_grad()
            out = model.forward(inputs, targets)
            model.backward(out)
            gate_name = "blocks.0.moe.gate.weight"
            grads[weight] = dict(model.named_parameters())[gate_name].grad.copy()
        assert not np.allclose(grads[0.0], grads[1.0])


class TestRoutingExtraction:
    """A forward pass's per-layer expert choices counted into ``R``."""

    @staticmethod
    def routing(model, out, num_devices):
        return routing_from_assignments(np.stack(out.expert_indices),
                                        model.config.num_experts, num_devices)

    def test_routing_shape_and_conservation(self, model):
        inputs, targets = batch(model, batch_size=4, seq=8)
        out = model.forward(inputs, targets)
        routing = self.routing(model, out, num_devices=4)
        assert routing.shape == (model.config.num_layers, 4,
                                 model.config.num_experts)
        total_assignments = 4 * 8 * model.config.top_k
        assert routing.sum() == model.config.num_layers * total_assignments

    def test_routing_single_device(self, model):
        inputs, targets = batch(model)
        out = model.forward(inputs, targets)
        routing = self.routing(model, out, num_devices=1)
        assert np.array_equal(routing[:, 0, :], out.expert_counts)
