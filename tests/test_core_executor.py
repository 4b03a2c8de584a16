"""Tests for the FSEP executor: distributed MoE == single-device reference."""

import numpy as np
import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.executor import FSEPExecutor
from repro.core.layout import ExpertLayout
from repro.core.layout_tuner import ExpertLayoutTuner
from repro.core.cost_model import MoECostModel
from repro.model.moe_layer import MoELayer
from repro.workloads.model_configs import BYTES_PER_ELEMENT, tiny_test_config


@pytest.fixture
def moe_layer():
    return MoELayer(hidden_size=16, intermediate_size=32, num_experts=8,
                    top_k=2, rng=np.random.default_rng(0))


@pytest.fixture
def topology():
    return ClusterTopology(num_nodes=2, devices_per_node=2)


@pytest.fixture
def executor(moe_layer, topology):
    return FSEPExecutor(moe_layer, topology)


def custom_layout(num_devices=4, num_experts=8, capacity=2, seed=0):
    """A full-capacity layout covering all experts with some replication."""
    rng = np.random.default_rng(seed)
    assignment = np.zeros((num_devices, num_experts), dtype=np.int64)
    # one replica of every expert, round robin
    for expert in range(num_experts):
        assignment[expert % num_devices, expert] = 1
    # fill leftover capacity with random hot replicas
    for device in range(num_devices):
        while assignment[device].sum() < capacity:
            assignment[device, rng.integers(num_experts)] += 1
    return ExpertLayout(assignment, capacity)


class TestForwardEquivalence:
    def test_matches_reference_forward(self, moe_layer, executor):
        x = np.random.default_rng(1).normal(size=(2, 8, 16))
        reference, _ = moe_layer.forward(x)
        result = executor.forward(x)
        assert np.allclose(result.output, reference, atol=1e-10)

    def test_matches_reference_with_replicated_layout(self, moe_layer, executor):
        x = np.random.default_rng(2).normal(size=(2, 8, 16))
        reference, _ = moe_layer.forward(x)
        layout = custom_layout(capacity=4, seed=3)
        result = executor.forward(x, layout)
        assert np.allclose(result.output, reference, atol=1e-10)

    def test_matches_reference_with_tuned_layout(self, moe_layer, executor,
                                                 topology):
        x = np.random.default_rng(3).normal(size=(2, 16, 16))
        reference, _ = moe_layer.forward(x)
        # Tune a layout from this batch's routing and re-run.
        first = executor.forward(x)
        cost_model = MoECostModel.from_model_config(tiny_test_config(), topology)
        tuner = ExpertLayoutTuner(topology, cost_model, capacity=4)
        tuned = tuner.solve(first.routing)
        result = executor.forward(x, tuned.layout)
        assert np.allclose(result.output, reference, atol=1e-10)

    def test_routing_matrix_consistent(self, executor):
        x = np.random.default_rng(4).normal(size=(2, 8, 16))
        result = executor.forward(x)
        assert result.routing.sum() == 2 * 8 * 2
        assert np.array_equal(result.routing_plan.row_sums(), result.routing)

    def test_tokens_per_device_matches_plan(self, executor):
        x = np.random.default_rng(5).normal(size=(2, 8, 16))
        result = executor.forward(x)
        assert np.array_equal(result.tokens_per_device,
                              result.routing_plan.to_dense().sum(axis=(0, 1)))

    @pytest.mark.parametrize("shape,seed", [((2, 8), 3), ((3, 7), 4),
                                            ((1, 3), 5)])
    def test_dispatch_follows_the_plan(self, executor, shape, seed):
        """Every (token, slot) pair runs on the device a per-pair scan of
        the plan sends it to: each row's pairs, in token order, fill the
        row's destinations in order."""
        x = np.random.default_rng(seed).normal(size=(*shape, 16))
        result = executor.forward(x, custom_layout(capacity=4, seed=seed))
        indices = result.cache["gating"].expert_indices
        plan = result.routing_plan
        shard = -(-indices.shape[0] // executor.num_devices)
        left = plan.tokens.copy()
        expected = np.full(indices.shape, -1)
        for token, slot in np.ndindex(*indices.shape):
            row = (token // shard) * executor.num_experts + indices[token, slot]
            entry = plan.offsets[row]
            while left[entry] == 0:
                entry += 1
            left[entry] -= 1
            expected[token, slot] = plan.dest[entry]
        ran = np.full(indices.shape, -1)
        for (dst, expert), (_, token_idx, slot_idx) in \
                result.cache["groups"].items():
            assert np.all(indices[token_idx, slot_idx] == expert)
            ran[token_idx, slot_idx] = dst
        assert np.array_equal(ran, expected)

    def test_communication_volumes_reported(self, executor):
        """Dispatch and combine each move one hidden vector per token the
        plan sends off its sender."""
        x = np.random.default_rng(6).normal(size=(2, 8, 16))
        result = executor.forward(x, custom_layout(capacity=4, seed=3))
        plan = result.routing_plan.to_dense()
        remote = plan.sum() - np.einsum("iei->", plan)
        assert remote > 0
        assert result.unshard_bytes > 0
        assert result.dispatch_bytes == 2 * 16 * BYTES_PER_ELEMENT * remote

    def test_rejects_bad_input(self, executor):
        with pytest.raises(ValueError):
            executor.forward(np.zeros((8, 16)))


class TestBackwardEquivalence:
    def test_gradients_match_reference(self, topology):
        reference_layer = MoELayer(16, 32, 8, 2, rng=np.random.default_rng(7))
        fsep_layer = MoELayer(16, 32, 8, 2, rng=np.random.default_rng(7))
        executor = FSEPExecutor(fsep_layer, topology)
        x = np.random.default_rng(8).normal(size=(2, 8, 16))
        grad_out = np.random.default_rng(9).normal(size=(2, 8, 16))

        ref_out, ref_cache = reference_layer.forward(x)
        reference_layer.zero_grad()
        ref_grad_in = reference_layer.backward(grad_out, ref_cache,
                                               aux_loss_weight=0.1)

        fsep_layer.zero_grad()
        result = executor.forward(x, custom_layout(capacity=4, seed=11))
        fsep_grad_in = executor.backward(grad_out, result, aux_loss_weight=0.1)

        assert np.allclose(fsep_grad_in, ref_grad_in, atol=1e-9)
        ref_params = dict(reference_layer.named_parameters())
        for name, param in fsep_layer.named_parameters():
            assert np.allclose(param.grad, ref_params[name].grad, atol=1e-9), name

    def test_reshard_bytes_recorded(self, moe_layer, executor):
        x = np.random.default_rng(10).normal(size=(1, 8, 16))
        result = executor.forward(x)
        executor.backward(np.ones_like(x), result)
        assert result.cache["reshard_bytes"] > 0

    def test_refresh_shards_after_update(self, moe_layer, executor):
        x = np.random.default_rng(11).normal(size=(1, 8, 16))
        before = executor.forward(x).output
        # Modify an expert's parameters and refresh the shards.
        moe_layer.experts[0].gate_proj.weight.value += 0.5
        executor.refresh_shards()
        after = executor.forward(x).output
        reference, _ = moe_layer.forward(x)
        assert np.allclose(after, reference, atol=1e-10)
        assert not np.allclose(after, before)


class TestDefaultLayout:
    @staticmethod
    def slot_by_slot(num_devices, num_experts):
        """The executor's former default: ``ceil(E / N)`` slots per device,
        filled expert after expert across the cluster."""
        capacity = int(np.ceil(num_experts / num_devices))
        assignment = np.zeros((num_devices, num_experts), dtype=np.int64)
        expert = 0
        for device in range(num_devices):
            for _ in range(capacity):
                assignment[device, expert % num_experts] += 1
                expert += 1
        return assignment, capacity

    @pytest.mark.parametrize("nodes,per_node,experts", [
        (1, 2, 8), (2, 2, 8), (1, 3, 8), (2, 4, 8), (3, 2, 4), (1, 4, 6),
        (1, 2, 3),
    ])
    def test_round_robin_with_ceil_capacity(self, nodes, per_node, experts):
        layer = MoELayer(hidden_size=4, intermediate_size=8,
                         num_experts=experts, top_k=2,
                         rng=np.random.default_rng(0))
        executor = FSEPExecutor(layer, ClusterTopology(nodes, per_node))
        layout = executor._default_layout()
        assignment, capacity = self.slot_by_slot(nodes * per_node, experts)
        assert layout.capacity == capacity
        assert np.array_equal(layout.assignment, assignment)
