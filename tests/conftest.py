"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.collectives import CollectiveCostModel
from repro.cluster.topology import ClusterTopology
from repro.core.cost_model import MoECostModel
from repro.workloads.datasets import SyntheticTextDataset, WIKITEXT_LIKE
from repro.workloads.model_configs import get_model_config, tiny_test_config
from repro.workloads.scenarios import ScenarioContext, SyntheticTraceSource


@pytest.fixture
def small_topology() -> ClusterTopology:
    """A 2-node x 4-device cluster: small but multi-node."""
    return ClusterTopology(num_nodes=2, devices_per_node=4)

@pytest.fixture
def paper_topology() -> ClusterTopology:
    """The 4-node x 8-A100 cluster of the paper's evaluation."""
    return ClusterTopology.paper_cluster()


@pytest.fixture
def single_node_topology() -> ClusterTopology:
    """A single-node 4-device cluster."""
    return ClusterTopology.single_node(4)


@pytest.fixture
def mixtral_e8k2():
    """Mixtral-8x7B e8k2 configuration (Table 2)."""
    return get_model_config("mixtral-8x7b-e8k2")


@pytest.fixture
def mixtral_e16k4():
    """Mixtral-8x7B e16k4 configuration (Table 2)."""
    return get_model_config("mixtral-8x7b-e16k4")


@pytest.fixture
def tiny_config():
    """Tiny 8-expert top-2 model used by the numpy-model tests."""
    return tiny_test_config()


@pytest.fixture
def small_cost_model(small_topology) -> MoECostModel:
    """Cost model with realistic (compute-dominant) per-token costs.

    The planner/tuner tests use the Mixtral-8x7B expert size so the cost
    model's trade-off between balance and locality matches the paper's
    regime (expert computation dominates per-token communication).
    """
    return MoECostModel.from_model_config(
        get_model_config("mixtral-8x7b-e8k2"), small_topology)


@pytest.fixture
def collectives(small_topology) -> CollectiveCostModel:
    return CollectiveCostModel(small_topology)


@pytest.fixture
def skewed_trace(small_topology):
    """A short skewed routing trace on the small topology (8 experts, top-2)."""
    ctx = ScenarioContext(
        num_devices=small_topology.num_devices,
        num_experts=8,
        num_layers=2,
        tokens_per_device=2048,
        top_k=2,
        iterations=6,
        skew=0.4,
        seed=11,
    )
    return SyntheticTraceSource(ctx).materialize()


@pytest.fixture
def wikitext_dataset() -> SyntheticTextDataset:
    return SyntheticTextDataset(WIKITEXT_LIKE)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
