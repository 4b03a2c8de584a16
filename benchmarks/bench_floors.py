"""Same-host performance floors.

Each test times a fast path against the slower path it replaces (or, for
the two permanently installed hooks, prices one disarmed call), in one
process on one host, so the ratio survives a change of host where an
absolute timing would not.  Every test first checks that the timed paths
do the work they claim, then asserts its floor.  Absolute end-to-end
timings of the same entry points, layer by layer, are the repository
benchmark's job (``perfbench/``, declared in ``BENCHMARK.json``).

Run with ``python -m pytest benchmarks -q`` (about 25 s).
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from functools import partialmethod
from typing import Callable, Dict, List, Tuple, TypeVar

import numpy as np
import pytest

import repro.core.lite_routing as lite_routing_mod
import repro.core.relocation as relocation_mod
import repro.core.replica_allocation as replica_allocation_mod
import repro.workloads.routing_traces as traces_mod
from repro.api.runner import run_experiment
from repro.api.specs import ClusterSpec, ExperimentSpec, SystemSpec, WorkloadSpec
from repro.chaos import store_digest
from repro.chaos.injection import active as active_injector
from repro.chaos.injection import inject
from repro.chaos.injection import uninstall as uninstall_injector
from repro.cluster.collectives import CollectiveCostModel
from repro.cluster.topology import ClusterTopology
from repro.core.cost_model import CostBreakdown, MoECostModel
from repro.core.layout_tuner import ExpertLayoutTuner
from repro.core.lite_routing import LiteRouting, lite_route, lite_route_batch
from repro.core.relocation import relocate_experts
from repro.core.replica_allocation import (
    allocate_replicas_priority_queue,
    even_replicas,
)
from repro.fleet import launch_fleet
from repro.scalar_reference import (
    scalar_all_to_all,
    scalar_allocate_replicas,
    scalar_draw_routing_frame,
    scalar_lite_route,
    scalar_relocate_experts,
    scalar_simulate_iteration,
)
from repro.serve import ReproServer, ServeClient
from repro.sim.iteration import IterationSimulator
from repro.sim.systems import available_systems, make_system
from repro.store import FIXED_CREATED_AT_ENV, ResultStore
from repro.study import StudyAxes, StudyRunner, StudySpec
from repro.suite import adversarial_search, default_suite
from repro.telemetry.trace import active as active_tracer
from repro.telemetry.trace import span
from repro.telemetry.trace import uninstall as uninstall_tracer
from repro.workloads.model_configs import get_model_config
from repro.workloads.scenarios import (
    ScenarioContext,
    default_runnable_scenarios,
    make_scenario,
)

#: Speedup floors (fast path over the path it replaces).
ALL_TO_ALL_FLOOR = 10.0
RUN_EXPERIMENT_FLOOR = 5.0
TUNER_BATCH_FLOOR = 2.0
#: Closed-form candidate scoring over building and pricing the candidates'
#: lite-routing plans; 2.2-2.4x measured on 2 vCPUs (Python 3.11, numpy 2.4).
CLOSED_FORM_SCORING_FLOOR = 1.5
PLANNER_STEP_FLOOR = 5.0
HOT_OVER_COLD_FLOOR = 20.0
SEARCH_RESUME_FLOOR = 3.0

#: Per-call ceilings of the hooks every untraced, chaos-free run pays for:
#: one global load and a truthiness test (plus a no-op context manager for
#: the span), which must stay negligible inside the simulator's loops.
INJECT_DISARMED_CEILING_NS = 1_000.0
SPAN_DISABLED_CEILING_NS = 2_000.0
HOOK_CALLS = 200_000

#: Below this many usable CPUs the fleet's workers share one core, so the
#: fleet-vs-in-process comparison measures the scheduler, not the fleet.
MIN_CPUS_FOR_FLEET_FLOOR = 4

TOKENS_PER_DEVICE = 16384

T = TypeVar("T")


def _timed(fn: Callable[[], T]) -> Tuple[T, float]:
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _speedup(slow: Callable[[], object], fast: Callable[[], object],
             repeats: int) -> float:
    """Best time of ``slow`` over best time of ``fast``, ``repeats`` each.

    The two are timed alternately, so a drift in host speed (a shared
    virtual machine can drift by over 1.5x within a minute) slows both alike.
    """
    slow_s = fast_s = float("inf")
    for _ in range(repeats):
        slow_s = min(slow_s, _timed(slow)[1])
        fast_s = min(fast_s, _timed(fast)[1])
    return slow_s / fast_s


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Vectorized kernels vs their scalar references
# ----------------------------------------------------------------------
def _rebind_everywhere(name: str, original: object,
                       replacement: object) -> List[object]:
    """Rebind ``name`` in every imported module holding ``original``."""
    rebound = []
    for module in list(sys.modules.values()):
        if (module is not None
                and getattr(module, name, None) is original):
            setattr(module, name, replacement)
            rebound.append(module)
    return rebound


def _scalar_lite_route_batch(routing, layouts, topology):
    """:func:`lite_route_batch` as a per-layout loop of ``scalar_lite_route``
    (``routing`` broadcasts over the layouts the same way)."""
    routing = np.broadcast_to(routing, (len(layouts),) + np.shape(routing)[-2:])
    return [scalar_lite_route(matrix, layout, topology)
            for matrix, layout in zip(routing, layouts)]


@contextmanager
def scalar_kernels():
    """Swap every vectorized kernel for its scalar reference, then restore.

    Yields ``{kernel name: modules it was rebound in}`` for the module-level
    kernels, Algorithm 4's per-slot priority queue and Algorithm 1's
    per-replica device scan among them.  ``CollectiveCostModel.all_to_all``
    and ``IterationSimulator.simulate_iteration`` are patched on their
    classes: the simulator runs its per-layer loop and charges each layer's
    token All-to-All with the per-pair loop.  The layout tuner routes no
    candidate (it prices them in closed form, which has a floor of its
    own): the scalar side replaces the dispatch of every iteration's layers.
    """
    kernels = {
        "draw_routing_frame": (traces_mod.draw_routing_frame,
                               scalar_draw_routing_frame),
        "lite_route": (lite_routing_mod.lite_route, scalar_lite_route),
        "lite_route_batch": (lite_routing_mod.lite_route_batch,
                             _scalar_lite_route_batch),
        "relocate_experts": (relocation_mod.relocate_experts,
                             scalar_relocate_experts),
        "allocate_replicas_priority_queue": (
            replica_allocation_mod.allocate_replicas_priority_queue,
            scalar_allocate_replicas),
    }
    vectorized_all_to_all = CollectiveCostModel.all_to_all
    vectorized_simulate = IterationSimulator.simulate_iteration
    CollectiveCostModel.all_to_all = scalar_all_to_all
    IterationSimulator.simulate_iteration = partialmethod(
        scalar_simulate_iteration, all_to_all=scalar_all_to_all)
    rebound: Dict[str, List[object]] = {
        name: _rebind_everywhere(name, vectorized, scalar)
        for name, (vectorized, scalar) in kernels.items()}
    try:
        yield rebound
    finally:
        CollectiveCostModel.all_to_all = vectorized_all_to_all
        IterationSimulator.simulate_iteration = vectorized_simulate
        for name, modules in rebound.items():
            for module in modules:
                setattr(module, name, kernels[name][0])


def test_vectorized_all_to_all_beats_scalar_loop():
    topology = ClusterTopology(num_nodes=8, devices_per_node=8)
    model = CollectiveCostModel(topology)
    group = list(range(topology.num_devices))
    rng = np.random.default_rng(7)
    traffic = rng.uniform(0.0, 1e8, size=(len(group), len(group)))
    np.fill_diagonal(traffic, 0.0)
    assert model.all_to_all(traffic) == pytest.approx(
        scalar_all_to_all(model, traffic, group), rel=1e-9)

    speedup = _speedup(lambda: scalar_all_to_all(model, traffic, group),
                       lambda: model.all_to_all(traffic), 3)
    assert speedup >= ALL_TO_ALL_FLOOR


def test_vectorized_run_experiment_beats_scalar_kernels():
    """A LAER ``run_experiment`` on 8x8 devices against the scalar kernels.

    First, at 128x8 devices, the one-pass simulator must equal its
    per-layer reference exactly for every registered system on the first
    drifting frame."""
    config = get_model_config("mixtral-8x7b-e8k2")
    topology = ClusterTopology(num_nodes=128, devices_per_node=8)
    ctx = ScenarioContext(num_devices=topology.num_devices,
                          num_experts=config.num_experts, num_layers=2,
                          tokens_per_device=TOKENS_PER_DEVICE,
                          top_k=config.top_k, iterations=1, seed=3)
    frame = next(iter(make_scenario("drifting", ctx).iter_iterations()))
    for name in available_systems():
        system = make_system(name, config, topology, TOKENS_PER_DEVICE)
        decisions = system.policy.decide_iteration(frame)
        fast = system.simulator.simulate_iteration(0, decisions)
        exact = scalar_simulate_iteration(system.simulator, 0, decisions)
        assert (fast.total_time, fast.breakdown, fast.layers) == \
            (exact.total_time, exact.breakdown, exact.layers), name

    spec = ExperimentSpec(
        name="bench-perf",
        cluster=ClusterSpec(num_nodes=8, devices_per_node=8),
        workload=WorkloadSpec(model="mixtral-8x7b-e8k2", layers=8,
                              tokens_per_device=TOKENS_PER_DEVICE,
                              iterations=3),
        systems=(SystemSpec(name="laer"),),
    )
    run_experiment(spec)  # warm caches and imports before timing either path
    vectorized, vectorized_s = _timed(lambda: run_experiment(spec))
    with scalar_kernels() as rebound:
        assert all(rebound.values()), rebound
        scalar, scalar_s = _timed(lambda: run_experiment(spec))

    # Same simulated work.  The throughputs differ: the scalar routing draw
    # consumes the generator row by row, so it draws a different trace
    # (kernel equivalence is tests/test_vectorized_kernels.py's job).
    for result in (vectorized, scalar):
        laer = result.systems["laer"]
        assert len(laer.per_layer_relative_max_tokens) == 8
        assert laer.tokens_per_iteration == TOKENS_PER_DEVICE * 64
    assert scalar_s / vectorized_s >= RUN_EXPERIMENT_FLOOR


def test_batched_tuner_eval_beats_per_candidate_loop():
    """Eight candidate layouts, as a tuner batch scores them: the pq scheme
    of each of 8 seeded load vectors, placed under one routing's loads."""
    topology = ClusterTopology(num_nodes=2, devices_per_node=4)
    model_config = get_model_config("mixtral-8x7b-e8k2")
    cost_model = MoECostModel.from_model_config(model_config, topology)
    n, num_experts, capacity = topology.num_devices, model_config.num_experts, 4
    rng = np.random.default_rng(7)
    routing = rng.integers(0, 2 * TOKENS_PER_DEVICE // num_experts,
                           size=(n, num_experts))
    expert_loads = routing.sum(axis=0)
    layouts = [relocate_experts(
                   allocate_replicas_priority_queue(loads, n, num_experts,
                                                    capacity),
                   expert_loads, topology, capacity)
               for loads in rng.integers(1, 1000, size=(8, num_experts))]

    def per_candidate() -> List[float]:
        return [cost_model.evaluate(lite_route(routing, layout, topology))
                .total for layout in layouts]

    def batched() -> List[float]:
        plans = lite_route_batch(routing, layouts, topology)
        return [cost.total for cost in cost_model.evaluate_batch(plans)]

    assert len(layouts) == 8
    assert batched() == per_candidate()
    assert _speedup(per_candidate, batched, 20) >= TUNER_BATCH_FLOOR


def test_closed_form_scoring_beats_candidate_plans():
    """The 16 candidates of one 32x8 drifting frame (8 layers x pq and
    even), scored as the layout tuner scores them, against lite-routing
    their plans and pricing those.  Every cost field must agree exactly."""
    config = get_model_config("mixtral-8x7b-e8k2")
    topology = ClusterTopology(num_nodes=32, devices_per_node=8)
    cost_model = MoECostModel.from_model_config(config, topology)
    tuner = ExpertLayoutTuner(topology, cost_model, config.expert_capacity)
    ctx = ScenarioContext(num_devices=topology.num_devices,
                          num_experts=config.num_experts, num_layers=8,
                          tokens_per_device=4096, top_k=config.top_k,
                          iterations=1, seed=0)
    frame = next(iter(make_scenario("drifting", ctx).iter_iterations()))
    routings, layouts = [], []
    for routing in frame:
        loads = routing.sum(axis=0)
        for replicas in tuner.candidate_replica_schemes(
                loads, config.num_experts):
            routings.append(routing)
            layouts.append(relocate_experts(replicas, loads, topology,
                                            config.expert_capacity))
    routings = np.stack(routings)

    def plans() -> List[CostBreakdown]:
        return cost_model.evaluate_batch(
            lite_route_batch(routings, layouts, topology))

    def closed_form() -> List[CostBreakdown]:
        return cost_model.evaluate_batch(LiteRouting(routings, layouts))

    assert len(layouts) == 16
    for got, want in zip(closed_form(), plans(), strict=True):
        assert (got.total, got.comm_time, got.comp_time, got.max_tokens) == \
            (want.total, want.comm_time, want.comp_time, want.max_tokens)
        assert np.array_equal(got.tokens_per_device, want.tokens_per_device)
    assert _speedup(plans, closed_form, 20) >= CLOSED_FORM_SCORING_FLOOR


def test_compact_planner_step_beats_scalar_kernels():
    """Routing plus relocation at 1024 devices: the compact plans and the
    placement over node classes against the dense per-rank route and the
    per-replica device scan.  Both must agree exactly on the pq and even
    schemes of the first frame of every runnable registered scenario, and
    the closed-form pq scheme must equal the priority queue's.  The drifting
    frame's schemes must also be placed alike under equal and all-zero
    loads, where the node classes tie; its frame is timed."""
    config = get_model_config("mixtral-8x7b-e8k2")
    topology = ClusterTopology(num_nodes=128, devices_per_node=8)
    n, e, c = topology.num_devices, config.num_experts, config.expert_capacity

    def step(relocate, route, routing, loads, schemes):
        layouts = [relocate(replicas, loads, topology, c)
                   for replicas in schemes]
        return layouts, [route(routing, layout, topology)
                         for layout in layouts]

    timed = None
    for scenario in sorted(default_runnable_scenarios()):
        ctx = ScenarioContext(num_devices=n, num_experts=e, num_layers=1,
                              tokens_per_device=TOKENS_PER_DEVICE,
                              top_k=config.top_k, iterations=1, seed=3)
        routing = next(iter(make_scenario(scenario, ctx).iter_iterations()))[0]
        loads = routing.sum(axis=0)
        pq = allocate_replicas_priority_queue(loads, n, e, c)
        assert np.array_equal(pq, scalar_allocate_replicas(loads, n, e, c)), \
            scenario
        problem = (routing, loads, (pq, even_replicas(n, e, c)))
        layouts, plans = step(relocate_experts, lite_route, *problem)
        scalar_layouts, scalar_plans = step(
            scalar_relocate_experts, scalar_lite_route, *problem)
        assert layouts == scalar_layouts, scenario
        for plan, scalar in zip(plans, scalar_plans):
            dense = scalar.to_dense()
            assert np.array_equal(plan.to_dense(), dense), scenario
        if scenario == "drifting":
            timed = problem

    for loads in (np.full(e, 512.0), np.zeros(e)):
        for replicas in timed[2]:
            assert relocate_experts(replicas, loads, topology, c) == \
                scalar_relocate_experts(replicas, loads, topology, c)
    speedup = _speedup(
        lambda: step(scalar_relocate_experts, scalar_lite_route, *timed),
        lambda: step(relocate_experts, lite_route, *timed), 3)
    assert speedup >= PLANNER_STEP_FLOOR


# ----------------------------------------------------------------------
# Caches and resumability vs the work they save
# ----------------------------------------------------------------------
def test_serve_cache_hits_beat_misses(tmp_path):
    def spec(seed: int) -> ExperimentSpec:
        # Heavy enough that a miss measures simulation, not HTTP framing:
        # about 60 ms of run_experiment on a 2-vCPU host.
        return ExperimentSpec(
            name="bench-serve",
            cluster=ClusterSpec(num_nodes=2, devices_per_node=8),
            workload=WorkloadSpec(tokens_per_device=8192, layers=2,
                                  iterations=20, warmup=2, seed=seed),
            systems=("laer",), reference="laer")

    cold = [spec(100), spec(101)]
    hot = [spec(100)] * 100  # stored by the cold requests
    with ReproServer(tmp_path / "store", port=0) as server:
        client = ServeClient(server.address, client="bench")
        try:
            client.wait_ready()
            cold_replies, cold_s = _timed(
                lambda: [client.submit(s) for s in cold])
            hot_replies, hot_s = _timed(
                lambda: [client.submit(s) for s in hot])
        finally:
            client.close()

    assert all(reply.done and reply.cache == "miss" for reply in cold_replies)
    assert all(reply.done and reply.cache == "hit" for reply in hot_replies)
    hot_rps, cold_rps = len(hot) / hot_s, len(cold) / cold_s
    assert hot_rps / cold_rps >= HOT_OVER_COLD_FLOOR


def test_suite_search_resume_beats_cold_search(tmp_path):
    suite = default_suite()
    store = ResultStore(tmp_path / "store")
    cluster = ClusterSpec(num_nodes=1, devices_per_node=8)

    def search():
        return adversarial_search(suite, "static_ep", store, budget=10,
                                  seed=0, cluster=cluster)

    cold, cold_s = _timed(search)
    resumed, resume_s = _timed(search)
    assert (cold.simulated, resumed.simulated) == (10, 0)
    assert resumed.winner.run_id == cold.winner.run_id
    assert cold_s / resume_s >= SEARCH_RESUME_FLOOR


# ----------------------------------------------------------------------
# The fleet vs in-process study execution
# ----------------------------------------------------------------------
def test_fleet_beats_in_process_study(tmp_path, monkeypatch):
    # Fleet workers inherit the environment, so both stores get this
    # timestamp and their bytes can agree.
    monkeypatch.setenv(FIXED_CREATED_AT_ENV, "1000000000.0")
    # Cells heavy enough (multi-node, 4 layers, 16 iterations) that worker
    # start-up is amortized: near-instant cells would time process spawn.
    base = ExperimentSpec(
        name="bench",
        cluster=ClusterSpec(num_nodes=2, devices_per_node=8),
        workload=WorkloadSpec(tokens_per_device=8192, layers=4,
                              iterations=16, warmup=2, seed=23),
        systems=("laer",), reference="laer")
    study = StudySpec(name="bench-fleet", base=base, axes=StudyAxes(
        systems=(("fsdp_ep",), ("laer",)), cluster_sizes=(2, 4)))
    in_process_store = ResultStore(tmp_path / "in-process")
    fleet_store = ResultStore(tmp_path / "fleet")

    in_process, in_process_s = _timed(
        lambda: StudyRunner(in_process_store).run(study))
    fleet, fleet_s = _timed(
        lambda: launch_fleet(study, fleet_store, workers=2,
                             poll_interval=0.05))
    assert len(in_process.executed) == len(fleet.executed) == 4
    assert (store_digest(tmp_path / "in-process")
            == store_digest(tmp_path / "fleet"))

    cpus = _usable_cpus()
    if cpus < MIN_CPUS_FOR_FLEET_FLOOR:
        pytest.skip(f"fleet timing needs >= {MIN_CPUS_FOR_FLEET_FLOOR} "
                    f"usable CPUs, this host has {cpus}")
    assert fleet_s < in_process_s


# ----------------------------------------------------------------------
# Permanently installed hooks, disarmed
# ----------------------------------------------------------------------
def test_disarmed_inject_call_is_cheap():
    uninstall_injector()
    assert active_injector() is None

    def calls() -> None:
        for _ in range(HOOK_CALLS):
            inject("store.pre-run-file")

    _, elapsed = _timed(calls)
    assert elapsed * 1e9 / HOOK_CALLS <= INJECT_DISARMED_CEILING_NS


def test_disabled_span_is_cheap():
    uninstall_tracer()
    assert active_tracer() is None

    def calls() -> None:
        for _ in range(HOOK_CALLS):
            with span("sim.decide"):
                pass

    _, elapsed = _timed(calls)
    assert elapsed * 1e9 / HOOK_CALLS <= SPAN_DISABLED_CEILING_NS
