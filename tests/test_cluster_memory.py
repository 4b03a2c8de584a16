"""Tests for the per-device memory model."""

import pytest

from repro.cluster.memory import MemoryModel, MemoryBreakdown
from repro.cluster.topology import ClusterTopology
from repro.workloads.model_configs import get_model_config


@pytest.fixture
def memory_model(paper_topology):
    return MemoryModel(get_model_config("mixtral-8x7b-e8k2"), paper_topology)


class TestMemoryBreakdown:
    def test_total_sums_fields(self):
        breakdown = MemoryBreakdown(parameters=1.0, gradients=2.0,
                                    optimizer_state=3.0, activations=4.0,
                                    transient_buffers=5.0)
        assert breakdown.total == 15.0


class TestParadigmBudgets:
    def test_fsep_close_to_fsdp(self, memory_model):
        """FSEP adds only 2*C*Psi_expert over plain FSDP (Sec. 3.1)."""
        tokens = 8192
        fsdp = memory_model.fsdp_breakdown(tokens)
        fsep = memory_model.fsep_breakdown(tokens)
        extra = fsep.total - (fsdp.total - 2 * fsdp.transient_buffers
                              - 2 * (fsdp.parameters - memory_model.total_param_bytes
                                     / memory_model.topology.num_devices))
        # The dominant check: FSEP's parameter+gradient overhead above the
        # sharded state equals the analysis value.
        n = memory_model.topology.num_devices
        sharded = memory_model.total_param_bytes / n
        overhead = (fsep.parameters - sharded) + (fsep.gradients - sharded)
        config = memory_model.config
        # 2 * C * Psi_expert bf16 bytes: this layer's restored experts plus
        # the next layer's prefetched ones.
        fsep_extra = 2 * config.expert_capacity * config.expert_params_per_layer * 2
        expected = 2 * fsep_extra + 2 * config.non_expert_params_per_layer * 2
        assert overhead == pytest.approx(expected, rel=1e-6)

    def test_fsep_fits_on_a100(self, memory_model):
        breakdown = memory_model.fsep_breakdown(tokens_per_device=16384)
        assert memory_model.fits(breakdown)

    def test_fsdp_ep_fully_sharded_states(self, memory_model):
        tokens = 8192
        breakdown = memory_model.fsdp_ep_breakdown(tokens, ep_size=4)
        n = memory_model.topology.num_devices
        assert breakdown.optimizer_state == pytest.approx(
            memory_model.config.total_params * 12 / n)

    def test_fsdp_ep_requires_divisible_ep(self, memory_model):
        with pytest.raises(ValueError):
            memory_model.fsdp_ep_breakdown(1024, ep_size=5)

    def test_megatron_more_optimizer_memory_than_fsdp(self, memory_model):
        tokens = 8192
        megatron = memory_model.megatron_breakdown(tokens, tp_size=4, ep_size=4)
        fsdp = memory_model.fsdp_breakdown(tokens)
        assert megatron.optimizer_state > fsdp.optimizer_state

    def test_megatron_optimizer_sharding_reduces_memory(self, memory_model):
        tokens = 8192
        plain = memory_model.megatron_breakdown(tokens, tp_size=4, ep_size=4)
        sharded = memory_model.megatron_breakdown(tokens, tp_size=4, ep_size=4,
                                                  optimizer_sharding_dp=8)
        assert sharded.optimizer_state < plain.optimizer_state

    def test_megatron_invalid_dp(self, memory_model):
        with pytest.raises(ValueError):
            memory_model.megatron_breakdown(1024, tp_size=2, ep_size=4,
                                            optimizer_sharding_dp=0)

    def test_activations_scale_with_tokens(self, memory_model):
        small = memory_model.fsep_breakdown(1024)
        large = memory_model.fsep_breakdown(4096)
        assert large.activations == pytest.approx(4 * small.activations)


class TestFeasibility:
    def test_fits_rejects_bad_margin(self, memory_model):
        breakdown = memory_model.fsep_breakdown(1024)
        with pytest.raises(ValueError):
            memory_model.fits(breakdown, safety_margin=0.0)

    def test_max_tokens_positive_for_fsep(self, memory_model):
        assert memory_model.max_tokens_per_device("fsep") > 0

    def test_max_tokens_monotone_in_memory(self, paper_topology):
        config = get_model_config("mixtral-8x7b-e8k2")
        model = MemoryModel(config, paper_topology)
        loose = model.max_tokens_per_device("fsep", safety_margin=0.9)
        tight = model.max_tokens_per_device("fsep", safety_margin=0.5)
        assert loose >= tight

    def test_max_tokens_unknown_paradigm(self, memory_model):
        with pytest.raises(ValueError):
            memory_model.max_tokens_per_device("unknown")

    def test_checkpointing_reduces_activations(self, paper_topology):
        config = get_model_config("mixtral-8x7b-e8k2")
        with_ckpt = MemoryModel(config, paper_topology, activation_checkpointing=True)
        without = MemoryModel(config, paper_topology, activation_checkpointing=False)
        assert (with_ckpt.fsep_breakdown(8192).activations
                < without.fsep_breakdown(8192).activations)
