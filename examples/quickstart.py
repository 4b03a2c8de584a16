#!/usr/bin/env python
"""Quickstart: plan one iteration of load-adaptive expert re-layout.

This example walks the core LAER-MoE loop on the paper's 32-GPU cluster:

1. build the cluster topology and a Mixtral-8x7B e8k2 configuration;
2. generate a skewed, drifting routing trace (what the gate produces);
3. let the load-balancing planner tune an expert layout from the previous
   iteration's routing and dispatch the current iteration's tokens;
4. compare the resulting balance and cost against the static FSDP+EP layout.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_table, print_report
from repro.cluster import ClusterTopology
from repro.core import (
    LoadBalancingPlanner,
    MoECostModel,
    lite_route,
)
from repro.core.layout import static_ep_layout
from repro.workloads import (
    ScenarioContext,
    SyntheticTraceSource,
    get_model_config,
)


def main() -> None:
    # 1. The hardware and model of the paper's evaluation.
    topology = ClusterTopology.paper_cluster()
    config = get_model_config("mixtral-8x7b-e8k2")
    print(f"Cluster: {topology.describe()}")
    print(f"Model:   {config.name} "
          f"({config.total_params / 1e9:.1f}B params, "
          f"{config.num_experts} experts, top-{config.top_k})")

    # 2. A routing trace with the skew and drift of Fig. 1(a).
    source = SyntheticTraceSource(ScenarioContext(
        num_devices=topology.num_devices,
        num_experts=config.num_experts,
        num_layers=1,
        tokens_per_device=16384,
        top_k=config.top_k,
        iterations=4,
        skew=0.45,
        seed=7,
    ))
    trace = source.materialize()
    print(f"Mean expert-load imbalance of the trace: {trace.mean_imbalance():.2f}x")

    # 3. The planner: cost model + layout tuner + token dispatcher.
    cost_model = MoECostModel.from_model_config(config, topology)
    planner = LoadBalancingPlanner(
        topology, cost_model, config.num_experts, config.expert_capacity)

    rows = []
    for iteration in range(trace.num_iterations):
        routing = trace.layer(iteration, 0)
        plans = planner.plan_iteration(routing[None, :, :])
        plan = plans[0]

        static_layout = static_ep_layout(topology.num_devices,
                                         config.num_experts,
                                         config.expert_capacity)
        static_plan = lite_route(routing, static_layout, topology)
        static_cost = cost_model.evaluate(static_plan)

        ideal = routing.sum() / topology.num_devices
        rows.append({
            "iteration": iteration,
            "layout_source": "tuned" if plan.planned_from_history else "fallback",
            "laer_max_tokens": plan.cost.max_tokens,
            "static_max_tokens": static_cost.max_tokens,
            "ideal_tokens": int(ideal),
            "laer_layer_ms": round(plan.cost.total * 1000, 1),
            "static_layer_ms": round(static_cost.total * 1000, 1),
        })

    print_report(format_table(
        rows, title="Per-iteration MoE-layer cost: LAER-MoE planner vs static EP"))

    final = rows[-1]
    speedup = final["static_layer_ms"] / final["laer_layer_ms"]
    print(f"After one iteration of history the planner reaches "
          f"{final['laer_max_tokens'] / final['ideal_tokens']:.2f}x of the ideal "
          f"per-device load (static EP: "
          f"{final['static_max_tokens'] / final['ideal_tokens']:.2f}x), "
          f"a {speedup:.2f}x faster MoE layer.")


if __name__ == "__main__":
    main()
