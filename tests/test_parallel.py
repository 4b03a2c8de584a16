"""Tests for the tensor-parallel cost model."""

import pytest

from repro.parallel.tp import TensorParallelCost
from repro.workloads.model_configs import get_model_config


class TestTensorParallelCost:
    def test_no_tp_has_no_allreduce(self, paper_topology):
        config = get_model_config("mixtral-8x7b-e8k2")
        cost = TensorParallelCost(paper_topology, config, tp_size=1)
        assert cost.allreduce_time_per_layer(8192) == 0.0
        assert cost.compute_efficiency() == 1.0

    def test_larger_tp_slower_attention(self, paper_topology):
        config = get_model_config("mixtral-8x7b-e8k2")
        tp1 = TensorParallelCost(paper_topology, config, tp_size=1)
        tp4 = TensorParallelCost(paper_topology, config, tp_size=4)
        tp8 = TensorParallelCost(paper_topology, config, tp_size=8)
        t1 = tp1.attention_forward_time(8192)
        t4 = tp4.attention_forward_time(8192)
        t8 = tp8.attention_forward_time(8192)
        assert t1 < t4 < t8

    def test_efficiency_decreases_with_tp(self, paper_topology):
        config = get_model_config("mixtral-8x7b-e8k2")
        effs = [TensorParallelCost(paper_topology, config, tp).compute_efficiency()
                for tp in (1, 2, 4, 8)]
        assert effs == sorted(effs, reverse=True)

    def test_validation(self, paper_topology):
        config = get_model_config("mixtral-8x7b-e8k2")
        with pytest.raises(ValueError):
            TensorParallelCost(paper_topology, config, tp_size=0)
        cost = TensorParallelCost(paper_topology, config, tp_size=2)
        with pytest.raises(ValueError):
            cost.attention_forward_time(-5)
