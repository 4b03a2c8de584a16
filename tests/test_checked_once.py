"""Structural guards on routing plans: each plan the program builds is
checked once, and pricing holds no per-pair buffer.

* Lite routing checks an iteration's plans once, as one
  :class:`~repro.core.routing_plan.RoutingBatch`; each layer's plan is a
  view of it and is not checked again.  A policy that tunes its layouts
  (the oracle solves each layer on its own) routes no candidate: the
  dispatch is its only routing batch.
* Owner routing (StaticEP, FasterMoE) checks each ``from_owners`` input
  pair once and builds its plan without checking it again.
* Pricing 8 lite-routed layers at 1024 devices sums bytes per (device,
  link class), so it never holds an ``(L, N, N)`` buffer.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

import repro.core.lite_routing as lite_routing_mod
from repro.baselines.fastermoe import FasterMoEPolicy
from repro.baselines.static_ep import StaticEPPolicy
from repro.cluster.collectives import CollectiveCostModel
from repro.cluster.topology import ClusterTopology
from repro.core.cost_model import BYTES_PER_ELEMENT, token_all_to_all
from repro.core.layout import static_ep_layout
from repro.core.lite_routing import lite_route_batch
from repro.core.routing_plan import RoutingBatch, RoutingPlan
from repro.sim.systems import available_systems, make_system
from repro.workloads.model_configs import get_model_config
from repro.workloads.scenarios import ScenarioContext, make_scenario

CONFIG = get_model_config("mixtral-8x7b-e8k2")
LAYERS = 4


def first_frame(num_devices, layers, tokens_per_device=4096):
    ctx = ScenarioContext(num_devices=num_devices,
                          num_experts=CONFIG.num_experts, num_layers=layers,
                          tokens_per_device=tokens_per_device,
                          top_k=CONFIG.top_k, iterations=1, seed=0)
    return next(iter(make_scenario("drifting", ctx).iter_iterations()))


def counting(counts, key, function):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return function(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("name", available_systems())
def test_one_iteration_checks_each_plan_once(name, monkeypatch):
    topology = ClusterTopology(num_nodes=4, devices_per_node=8)
    system = make_system(name, CONFIG, topology, 4096)
    frame = first_frame(topology.num_devices, LAYERS)
    counts = Counter()
    monkeypatch.setattr(RoutingPlan, "__post_init__", counting(
        counts, "plan", RoutingPlan.__post_init__))
    monkeypatch.setattr(RoutingBatch, "__post_init__", counting(
        counts, "batch", RoutingBatch.__post_init__))
    monkeypatch.setattr(RoutingPlan, "from_owners", classmethod(counting(
        counts, "owners", RoutingPlan.from_owners.__func__)))
    monkeypatch.setattr(lite_routing_mod, "_route", counting(
        counts, "routes", lite_routing_mod._route))

    decisions = system.policy.decide_iteration(frame)

    assert len(decisions) == LAYERS
    assert counts["plan"] == 0, "a built plan was checked again"
    if isinstance(system.policy, (StaticEPPolicy, FasterMoEPolicy)):
        assert counts["owners"] == LAYERS
        assert counts["batch"] == counts["routes"] == 0
        return
    assert counts["owners"] == 0
    assert counts["batch"] == counts["routes"]
    # The iteration's dispatch: one batch, layer l its view l.
    batches = {id(decision.routing_plan.batch) for decision in decisions}
    assert counts["batch"] == len(batches) == 1
    assert [decision.routing_plan.index for decision in decisions] == \
        list(range(LAYERS))


def test_pricing_1024_devices_holds_no_pairwise_buffer():
    """8 lite-routed layers at 128x8 devices: a ``(8, N, N)`` float64
    buffer alone is 64 MB; the class sums need a few MB of entry-sized
    temporaries."""
    topology = ClusterTopology(num_nodes=128, devices_per_node=8)
    n = topology.num_devices
    frame = first_frame(n, 8)
    layout = static_ep_layout(n, CONFIG.num_experts, CONFIG.expert_capacity)
    batch = lite_route_batch(frame, [layout] * 8, topology)
    collectives = CollectiveCostModel(topology)
    bytes_per_token = CONFIG.hidden_size * BYTES_PER_ELEMENT
    expected = token_all_to_all(collectives, batch, bytes_per_token, 1.0)
    tracemalloc.start()
    try:
        seconds, loads = token_all_to_all(collectives, batch,
                                          bytes_per_token, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(seconds, expected[0])
    assert np.array_equal(loads, expected[1])
    assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
