"""Tests for the Table 2 model configuration registry."""

import pytest

from repro.workloads.model_configs import (
    MODEL_REGISTRY,
    MoEModelConfig,
    get_model_config,
    list_model_configs,
    tiny_test_config,
)


class TestRegistry:
    def test_all_six_configs_present(self):
        assert len(list_model_configs()) == 6

    def test_lookup_known(self):
        cfg = get_model_config("mixtral-8x7b-e8k2")
        assert cfg.num_experts == 8 and cfg.top_k == 2

    def test_lookup_unknown_lists_available(self):
        with pytest.raises(KeyError, match="mixtral-8x7b-e8k2"):
            get_model_config("nonexistent")

    def test_registry_names_match_keys(self):
        for name, cfg in MODEL_REGISTRY.items():
            assert cfg.name == name


class TestTable2Numbers:
    """Derived parameter counts should match Table 2 within a few percent."""

    @pytest.mark.parametrize("name,total_b,activated_b", [
        ("mixtral-8x7b-e8k2", 46.70, 12.88),
        ("mixtral-8x22b-e8k2", 45.46, 12.86),
        ("qwen-8x7b-e8k2", 46.69, 12.88),
        ("mixtral-8x7b-e16k4", 35.09, 9.73),
        ("mixtral-8x22b-e16k4", 35.46, 10.09),
        ("qwen-8x7b-e16k4", 35.09, 9.73),
    ])
    def test_parameter_counts(self, name, total_b, activated_b):
        cfg = get_model_config(name)
        assert cfg.total_params / 1e9 == pytest.approx(total_b, rel=0.05)
        assert cfg.activated_params / 1e9 == pytest.approx(activated_b, rel=0.06)

    @pytest.mark.parametrize("name,capacity", [
        ("mixtral-8x7b-e8k2", 2),
        ("mixtral-8x7b-e16k4", 4),
    ])
    def test_expert_capacity_matches_section_5_1(self, name, capacity):
        assert get_model_config(name).expert_capacity == capacity

    def test_e16k4_keeps_per_layer_expert_params(self):
        e8 = get_model_config("mixtral-8x7b-e8k2")
        e16 = get_model_config("mixtral-8x7b-e16k4")
        per_layer_e8 = e8.num_experts * e8.expert_params_per_layer
        per_layer_e16 = e16.num_experts * e16.expert_params_per_layer
        assert per_layer_e16 == pytest.approx(per_layer_e8, rel=0.01)


class TestDerivedQuantities:
    def test_expert_flops_formula(self):
        cfg = get_model_config("mixtral-8x7b-e8k2")
        assert cfg.expert_flops_per_token == 6 * 4096 * 14336

    def test_activation_bytes_checkpointing_smaller(self):
        cfg = get_model_config("mixtral-8x7b-e8k2")
        assert (cfg.activation_bytes_per_token(checkpointing=True)
                < cfg.activation_bytes_per_token(checkpointing=False))

    def test_summary_fields(self):
        summary = get_model_config("mixtral-8x7b-e8k2").summary()
        assert summary["experts"] == 8
        assert summary["layers"] == 32

    def test_head_dim(self):
        cfg = get_model_config("mixtral-8x7b-e8k2")
        assert cfg.head_dim == 128


class TestVariants:
    def test_with_experts_rescales_intermediate(self):
        cfg = get_model_config("mixtral-8x7b-e8k2")
        variant = cfg.with_experts(num_experts=16, top_k=4, expert_capacity=4)
        assert variant.intermediate_size == cfg.intermediate_size // 2
        assert variant.num_experts == 16

    def test_validation_rejects_bad_topk(self):
        with pytest.raises(ValueError):
            MoEModelConfig(name="bad", num_layers=1, hidden_size=64,
                           intermediate_size=128, num_attention_heads=4,
                           num_kv_heads=2, vocab_size=128, num_experts=4,
                           top_k=5, expert_capacity=1)

    def test_validation_rejects_bad_heads(self):
        with pytest.raises(ValueError):
            MoEModelConfig(name="bad", num_layers=1, hidden_size=65,
                           intermediate_size=128, num_attention_heads=4,
                           num_kv_heads=2, vocab_size=128, num_experts=4,
                           top_k=2, expert_capacity=1)

    def test_tiny_config_valid(self):
        cfg = tiny_test_config(num_experts=16, top_k=4, expert_capacity=4)
        assert cfg.num_experts == 16
        assert cfg.top_k == 4
