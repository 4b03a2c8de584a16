"""Tests for the FSEP shard / unshard / reshard machinery."""

import numpy as np
import pytest

from repro.core.fsep import FSEPShardedExperts
from repro.core.layout import ExpertLayout, static_ep_layout


def make_experts(num_experts=4, size=24, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=size) for _ in range(num_experts)]


class TestSharding:
    def test_shard_shapes(self):
        sharded = FSEPShardedExperts(make_experts(), num_devices=4)
        assert sharded.num_experts == 4
        assert sharded.expert_size == 24
        assert sharded.chunk_size == 6

    def test_padding_when_not_divisible(self):
        sharded = FSEPShardedExperts(make_experts(size=25), num_devices=4)
        assert sharded.padded_expert_size == 28
        assert sharded.chunk_size == 7
        # Restoration drops the padding.
        assert sharded.restore_expert(0).size == 25

    def test_restore_roundtrip(self):
        experts = make_experts(seed=7)
        sharded = FSEPShardedExperts(experts, num_devices=4)
        for idx, original in enumerate(experts):
            assert np.array_equal(sharded.restore_expert(idx), original)

    def test_memory_per_device(self):
        sharded = FSEPShardedExperts(make_experts(), num_devices=4)
        assert sharded.memory_per_device_bytes() == 4 * 6 * 2

    def test_mismatched_expert_sizes_rejected(self):
        with pytest.raises(ValueError):
            FSEPShardedExperts([np.zeros(8), np.zeros(9)], num_devices=2)

    def test_bad_metadata_rejected(self):
        with pytest.raises(ValueError):
            FSEPShardedExperts(make_experts(size=10), num_devices=2,
                               parameter_shapes=[("w", (3, 3))])


class TestUnshard:
    def test_restores_assigned_experts(self):
        experts = make_experts(seed=1)
        sharded = FSEPShardedExperts(experts, num_devices=4)
        layout = static_ep_layout(num_devices=4, num_experts=4, capacity=2)
        result = sharded.unshard(layout)
        for device in range(4):
            for expert_id, flat in result.device_experts[device].items():
                assert np.array_equal(flat, experts[expert_id])
            assert set(result.device_experts[device]) == set(
                np.nonzero(layout.assignment[device])[0])

    def test_arbitrary_layout_supported(self):
        """The FSEP property: any layout can be restored, not just the EP one."""
        experts = make_experts(seed=2)
        sharded = FSEPShardedExperts(experts, num_devices=4)
        layout = ExpertLayout(np.array([
            [1, 1, 0, 0],
            [1, 1, 0, 0],
            [1, 0, 1, 0],
            [0, 0, 1, 1],
        ]), capacity=2)
        result = sharded.unshard(layout)
        assert set(result.device_experts[1]) == {0, 1}
        assert np.array_equal(result.device_experts[2][2], experts[2])

    def test_traffic_is_balanced_for_full_capacity_layouts(self):
        sharded = FSEPShardedExperts(make_experts(size=32), num_devices=4)
        layout = static_ep_layout(num_devices=4, num_experts=4, capacity=2)
        result = sharded.unshard(layout)
        sends = result.traffic.sum(axis=1)
        recvs = result.traffic.sum(axis=0)
        # Every device sends and receives the same volume (regular All-to-All).
        assert np.allclose(sends, sends[0])
        assert np.allclose(recvs, recvs[0])

    def test_traffic_volume_matches_analysis(self):
        """Per-device receive volume equals C * (N-1)/N * Psi_expert bytes."""
        num_devices, capacity = 4, 2
        sharded = FSEPShardedExperts(make_experts(size=32), num_devices=num_devices)
        layout = static_ep_layout(num_devices, 4, capacity)
        result = sharded.unshard(layout)
        per_device_recv = result.traffic.sum(axis=0)[0]
        expected = sharded.unshard_bytes_per_device(capacity)
        assert per_device_recv == pytest.approx(expected)

    def test_incomplete_layout_rejected(self):
        sharded = FSEPShardedExperts(make_experts(), num_devices=4)
        bad = ExpertLayout(np.zeros((4, 4), dtype=int), capacity=2)
        with pytest.raises(ValueError):
            sharded.unshard(bad)

    def test_wrong_layout_shape_rejected(self):
        sharded = FSEPShardedExperts(make_experts(), num_devices=4)
        with pytest.raises(ValueError):
            sharded.unshard(static_ep_layout(8, 4, 1))


class TestReshard:
    def test_gradient_reduction_matches_sum(self):
        """Reshard must reduce replica gradients exactly like a plain sum."""
        experts = make_experts(seed=3)
        sharded = FSEPShardedExperts(experts, num_devices=4)
        rng = np.random.default_rng(5)
        grads_dev0 = rng.normal(size=24)
        grads_dev2 = rng.normal(size=24)
        result = sharded.reshard({0: {1: grads_dev0}, 2: {1: grads_dev2}})
        reduced = sharded.reduce_full_gradient(result, 1)
        assert np.allclose(reduced, grads_dev0 + grads_dev2)
        # Experts nobody computed keep zero gradients.
        assert np.allclose(sharded.reduce_full_gradient(result, 0), 0.0)

    def test_traffic_counted_per_sender(self):
        sharded = FSEPShardedExperts(make_experts(size=32), num_devices=4)
        grad = np.ones(32)
        result = sharded.reshard({1: {0: grad}})
        # Device 1 sends 3 chunks (to devices 0, 2, 3) of 8 elements each.
        assert result.traffic[1].sum() == pytest.approx(3 * 8 * 2)
        assert result.total_bytes == pytest.approx(3 * 8 * 2)

    def test_wrong_gradient_size_rejected(self):
        sharded = FSEPShardedExperts(make_experts(), num_devices=4)
        with pytest.raises(ValueError):
            sharded.reshard({0: {0: np.zeros(7)}})

    def test_unknown_device_or_expert_rejected(self):
        sharded = FSEPShardedExperts(make_experts(), num_devices=4)
        with pytest.raises(ValueError):
            sharded.reshard({9: {0: np.zeros(24)}})
        with pytest.raises(ValueError):
            sharded.reshard({0: {9: np.zeros(24)}})


class TestUpdates:
    def test_set_expert(self):
        sharded = FSEPShardedExperts(make_experts(), num_devices=4)
        new_values = np.arange(24, dtype=float)
        sharded.set_expert(2, new_values)
        assert np.array_equal(sharded.restore_expert(2), new_values)

    def test_fsdp_equivalence_of_full_restore(self):
        """Restoring every expert everywhere reproduces the dense parameters."""
        experts = make_experts(seed=8)
        sharded = FSEPShardedExperts(experts, num_devices=4)
        layout = ExpertLayout(np.ones((4, 4), dtype=np.int64), capacity=4)
        result = sharded.unshard(layout)
        for device in range(4):
            for expert_id, original in enumerate(experts):
                assert np.array_equal(result.device_experts[device][expert_id],
                                      original)
