"""Tests for the declarative experiment API (specs, registry, runner)."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.api import (
    ClusterSpec,
    ExperimentResult,
    ExperimentRunner,
    ExperimentSpec,
    SystemSpec,
    WorkloadSpec,
    run_experiment,
    run_planner_study,
)
from repro.baselines import StaticEPPolicy
from repro.sim.engine import compare_systems
from repro.sim.systems import (
    available_systems,
    make_system,
    register_system,
    register_system_variant,
    unregister_system,
)
from repro.workloads.scenarios import available_scenarios


def small_spec(**overrides) -> ExperimentSpec:
    """A fast 4-device experiment used throughout these tests."""
    defaults = dict(
        name="api-test",
        cluster=ClusterSpec(num_nodes=1, devices_per_node=4),
        workload=WorkloadSpec(tokens_per_device=2048, layers=2,
                              iterations=3, warmup=1, seed=7),
        systems=("fsdp_ep", "laer"),
        reference="fsdp_ep",
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestSpecRoundTrip:
    def test_default_spec_round_trips(self):
        spec = ExperimentSpec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_custom_spec_round_trips_through_json(self):
        spec = small_spec(systems=(
            SystemSpec("laer"),
            SystemSpec("laer", label="laer_raw", options={"comm_opt": False}),
            "fsdp_ep",
        ), reference="laer")
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        # The JSON itself is plain data (no repr round-tripping involved).
        assert json.loads(spec.to_json())["reference"] == "laer"

    def test_save_and_load(self, tmp_path):
        spec = small_spec()
        path = spec.save(tmp_path / "exp.json")
        assert ExperimentSpec.load(path) == spec

    def test_string_systems_normalised(self):
        spec = small_spec(systems=("fsdp_ep", "laer"))
        assert all(isinstance(s, SystemSpec) for s in spec.systems)
        assert spec.system_keys == ("fsdp_ep", "laer")

    @pytest.mark.parametrize("scenario", available_scenarios())
    def test_every_scenario_round_trips_through_json(self, scenario):
        spec = small_spec(workload=WorkloadSpec(
            tokens_per_device=2048, layers=2, iterations=3, warmup=1,
            seed=7, scenario=scenario))
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.workload.scenario == scenario

    def test_scenario_params_round_trip(self):
        spec = small_spec(workload=WorkloadSpec(
            tokens_per_device=2048, layers=2, iterations=3, warmup=1,
            scenario="bursty-churn", params={"period": 20, "burst_length": 4}))
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.workload.params == {"period": 20, "burst_length": 4}
        assert json.loads(spec.to_json())["workload"]["scenario"] \
            == "bursty-churn"

    def test_pre_scenario_spec_json_still_loads(self):
        """Old (PR 1 era) spec JSON has no scenario/params keys."""
        legacy = ExperimentSpec().to_dict()
        del legacy["workload"]["scenario"]
        del legacy["workload"]["params"]
        spec = ExperimentSpec.from_dict(legacy)
        assert spec.workload.scenario == "drifting"
        assert spec.workload.params == {}

    def test_pre_overflow_spec_json_still_loads(self):
        """Old (PR <= 4 era) spec JSON has no overflow knobs."""
        legacy = ExperimentSpec().to_dict()
        assert "overflow_penalty" not in legacy  # defaults stay unserialized
        assert "token_capacity" not in legacy
        spec = ExperimentSpec.from_dict(legacy)
        assert spec.overflow_penalty == 0.0
        assert spec.token_capacity is None

    def test_default_overflow_knobs_keep_run_ids_stable(self):
        """Content-hashed run ids predate the overflow knobs: a spec that
        does not use them must hash exactly as it did before they existed,
        or every pre-existing store would stop resuming."""
        from repro.store import run_id_for, spec_fingerprint

        plain = small_spec()
        explicit_defaults = small_spec(overflow_penalty=0.0,
                                       token_capacity=None)
        assert spec_fingerprint(plain) == spec_fingerprint(explicit_defaults)
        assert run_id_for(plain) == run_id_for(explicit_defaults)
        assert spec_fingerprint(plain) != spec_fingerprint(
            small_spec(overflow_penalty=1.0))

    def test_overflow_knobs_round_trip(self):
        spec = small_spec(overflow_penalty=1.5, token_capacity=4096)
        data = spec.to_dict()
        assert data["overflow_penalty"] == 1.5
        assert data["token_capacity"] == 4096
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.overflow_penalty == 1.5
        assert restored.token_capacity == 4096

    def test_invalid_overflow_knobs_rejected(self):
        with pytest.raises(ValueError, match="overflow_penalty"):
            small_spec(overflow_penalty=-0.5)
        with pytest.raises(ValueError, match="token_capacity"):
            small_spec(token_capacity=0)

    @pytest.mark.parametrize("knobs, run_id, fingerprint", [
        ({}, "api-test-d14909a48b6e",
         "bcac4859bc874a5ba20e1f01d8bff6fea92c88379bc460fe3900ae7a7de8f869"),
        ({"overflow_penalty": 1.5, "token_capacity": 4096},
         "api-test-cc397b3d1490",
         "4b1376b1d50b2ba2a3734e6b9003646b08f543ae6a705d7ec211d3dac642ad6e"),
        ({"drop_policy": "truncate"}, "api-test-7658ae71f0c8",
         "4cb1e7dbf9f8a1513df2bdff8eeb247f410c844c3a0ba86b1141f895b702686b"),
        ({"drop_policy": "recompute"}, "api-test-150a2b77eedf",
         "17c964a12ff3d4908b82cc28415c8e5ade850d6a27f864d682cdaeb3c8926019"),
        ({"drop_policy": "recompute", "overflow_penalty": 3.0},
         "api-test-bd41c73faa6a",
         "d7b298370c9550218830f861598cc2747188a19d7f228ae532f749c629ef521d"),
    ])
    def test_overflow_knobs_hash_to_golden_ids(self, knobs, run_id,
                                               fingerprint):
        """Stored runs are found by these content hashes, so none may
        move."""
        from repro.store import run_id_for, spec_fingerprint

        spec = small_spec(**knobs)
        assert spec.overflow.to_dict() == knobs
        assert run_id_for(spec) == run_id
        assert spec_fingerprint(spec) == fingerprint


class TestSpecValidation:
    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown ExperimentSpec field"):
            ExperimentSpec.from_dict({"nme": "typo"})

    def test_unknown_nested_field_rejected(self):
        with pytest.raises(ValueError, match="unknown WorkloadSpec field"):
            ExperimentSpec.from_dict({"workload": {"modle": "x"}})

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            WorkloadSpec(model="gpt-4")

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="unknown system"):
            small_spec(systems=("deepspeed",))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate system label"):
            small_spec(systems=("laer", "laer"))

    def test_unknown_system_option_rejected_at_spec_load(self):
        with pytest.raises(ValueError, match="does not accept parameter"):
            SystemSpec("laer", options={"comm_op": False})  # typo of comm_opt
        with pytest.raises(ValueError, match="does not accept parameter"):
            SystemSpec("fsdp_ep", options={"variant": "full"})

    def test_empty_systems_rejected(self):
        with pytest.raises(ValueError, match="at least one system"):
            small_spec(systems=())

    def test_invalid_cluster_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_nodes=0)

    def test_invalid_workload_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(iterations=0)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            WorkloadSpec(scenario="full-moon")

    def test_unknown_scenario_param_rejected(self):
        with pytest.raises(ValueError, match="does not accept parameter"):
            WorkloadSpec(scenario="bursty-churn", params={"burst_len": 2})
        with pytest.raises(ValueError, match="does not accept parameter"):
            WorkloadSpec(scenario="steady", params={"period": 4})


class TestRegistry:
    def test_all_builtin_systems_registered(self):
        assert available_systems() == [
            "megatron", "fsdp_ep", "fastermoe", "smartmoe", "prophet",
            "flexmoe", "laer", "oracle", "laer_pq_only", "laer_even_only",
            "laer_no_comm_opt", "static_ep",
        ]

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_system("laer")
            def _factory(ctx):  # pragma: no cover - never invoked
                raise AssertionError

    def test_variant_of_unknown_base_rejected(self):
        with pytest.raises(ValueError, match="unknown system"):
            register_system_variant("x", "no_such_base")

    def test_variant_with_unknown_params_rejected(self):
        with pytest.raises(ValueError, match="does not accept parameter"):
            register_system_variant("laer_typo", "laer", comm_op=False)
        assert "laer_typo" not in available_systems()

    def test_unknown_override_rejected_at_build(self, small_topology,
                                                mixtral_e8k2):
        with pytest.raises(ValueError, match="does not accept parameter"):
            make_system("laer", mixtral_e8k2, small_topology, 2048, bogus=1)

    def test_user_registered_system_usable_from_spec(self, small_topology,
                                                     mixtral_e8k2):
        @register_system("custom_ep", description="registry test system")
        def _build(ctx):
            return ctx.build(StaticEPPolicy(*ctx.policy_args()),
                             paradigm="fsdp_ep")

        try:
            built = make_system("custom_ep", mixtral_e8k2, small_topology, 2048)
            assert built.name == "custom_ep"
            assert built.paradigm == "fsdp_ep"
            spec = small_spec(systems=("custom_ep",), reference="custom_ep")
            result = ExperimentRunner().run(spec)
            assert result.systems["custom_ep"].throughput > 0
        finally:
            unregister_system("custom_ep")
        with pytest.raises(ValueError, match="unknown system"):
            make_system("custom_ep", mixtral_e8k2, small_topology, 2048)

    def test_registered_variant_matches_option_override(self, small_topology,
                                                        mixtral_e8k2):
        variant = make_system("laer_no_comm_opt", mixtral_e8k2,
                              small_topology, 2048)
        override = make_system("laer", mixtral_e8k2, small_topology, 2048,
                               comm_opt=False)
        assert (variant.simulator.schedule.relaxed_prefetch
                == override.simulator.schedule.relaxed_prefetch is False)


class TestRunner:
    def test_throughputs_match_direct_compare_systems(self):
        spec = small_spec()
        result = ExperimentRunner().run(spec)

        topology = spec.cluster.to_topology()
        config = spec.workload.model_config()
        trace = spec.workload.make_trace(topology.num_devices)
        systems = [make_system(name, config, topology,
                               spec.workload.tokens_per_device)
                   for name in ("fsdp_ep", "laer")]
        direct = compare_systems(systems, trace, warmup=spec.workload.warmup)

        for name in ("fsdp_ep", "laer"):
            assert result.systems[name].throughput == direct[name].throughput

    def test_result_fields_and_speedups(self):
        result = run_experiment(small_spec())
        laer = result.systems["laer"]
        assert laer.speedup_vs_reference == pytest.approx(
            result.speedup("laer", "fsdp_ep"))
        assert laer.mean_iteration_s > 0
        assert len(laer.per_layer_relative_max_tokens) == 2
        assert 0.0 <= laer.all_to_all_fraction() <= 1.0
        assert sum(laer.breakdown_fractions().values()) == pytest.approx(
            1.0, abs=0.05)

    def test_result_json_round_trip(self, tmp_path):
        result = run_experiment(small_spec())
        path = result.save(tmp_path / "result.json")
        restored = ExperimentResult.load(path)
        assert restored.spec == result.spec
        assert restored.reference == result.reference
        assert restored.throughputs() == result.throughputs()
        assert (restored.systems["laer"].breakdown_s
                == result.systems["laer"].breakdown_s)
        assert restored.execution_mode == result.execution_mode

    def test_execution_mode_recorded(self):
        sequential = run_experiment(small_spec())
        assert sequential.execution_mode == "sequential"
        # Results from pre-mode JSON files load with an empty mode.
        data = sequential.to_dict()
        del data["execution_mode"]
        assert ExperimentResult.from_dict(data).execution_mode == ""

    def test_reference_substitution_recorded(self):
        result = run_experiment(small_spec(reference="megatron"))
        assert result.requested_reference == "megatron"
        assert result.reference == "fsdp_ep"
        assert result.reference_substituted

    def test_labelled_options_create_distinct_systems(self):
        spec = small_spec(systems=(
            SystemSpec("laer"),
            SystemSpec("laer", label="laer_raw", options={"comm_opt": False}),
        ), reference="laer")
        result = run_experiment(spec)
        assert set(result.systems) == {"laer", "laer_raw"}
        assert (result.systems["laer"].throughput
                > result.systems["laer_raw"].throughput)

    def test_overflow_penalty_slows_bursty_churn(self):
        """The capacity-overflow regression test: a bursty-churn workload
        whose hotspots exceed the per-device token budget must get slower
        when the penalty is on, and stay bit-identical when it is off."""
        def bursty(**overrides):
            return small_spec(
                workload=WorkloadSpec(
                    tokens_per_device=1024, layers=1, iterations=4, warmup=1,
                    seed=7, scenario="bursty-churn", params={"period": 4}),
                systems=("fsdp_ep",), reference="fsdp_ep", **overrides)

        baseline = ExperimentRunner().run(bursty())
        off = ExperimentRunner().run(
            bursty(overflow_penalty=0.0, token_capacity=1024))
        charged = ExperimentRunner().run(
            bursty(overflow_penalty=1.0, token_capacity=1024))
        # Off by default: a zero penalty changes nothing, and no overflow
        # bucket appears in the breakdown.
        assert off.throughputs() == baseline.throughputs()
        assert "overflow" not in baseline.systems["fsdp_ep"].breakdown_s
        # Charged: the bursty hotspots overflow the 1024-token budget.
        assert (charged.systems["fsdp_ep"].mean_iteration_s
                > baseline.systems["fsdp_ep"].mean_iteration_s)
        assert charged.systems["fsdp_ep"].breakdown_s["overflow"] > 0.0
        # The overflow result serializes and round-trips like any other.
        assert ExperimentResult.from_dict(charged.to_dict()).to_dict() \
            == charged.to_dict()

    def test_runner_executes_non_default_scenario(self):
        spec = small_spec(workload=WorkloadSpec(
            tokens_per_device=2048, layers=2, iterations=4, warmup=1, seed=7,
            scenario="multi-tenant-mix", params={"tenants": 2}))
        result = run_experiment(spec)
        drifting = run_experiment(small_spec(workload=WorkloadSpec(
            tokens_per_device=2048, layers=2, iterations=4, warmup=1,
            seed=7)))
        assert result.systems["laer"].throughput > 0
        # A different scenario genuinely changes the simulated workload.
        assert (result.systems["laer"].throughput
                != drifting.systems["laer"].throughput)

    def test_planner_study_aggregates_all_layers(self):
        spec = small_spec()
        stats = run_planner_study(spec)
        # Warmup iterations are replayed but not reported, matching the runner.
        assert len(stats) == spec.workload.iterations
        assert stats[0].iteration == spec.workload.warmup
        # Past warmup the planner beats (or matches) static EP.
        assert stats[-1].planned_rel_max_tokens <= stats[-1].static_rel_max_tokens
        assert stats[-1].planned_ms > 0

    def test_planner_study_runs_on_the_calibrated_machine(self):
        from repro.calib.profile import CalibrationProfile
        from repro.core.cost_model import MoECostModel
        from repro.core.layout import static_ep_layout
        from repro.core.lite_routing import lite_route

        spec = small_spec()
        profile = CalibrationProfile(intra_node_bandwidth_scale=0.5,
                                     flops_scale=0.8, comm_bytes_scale=1.25)
        nominal = run_planner_study(spec)
        calibrated = run_planner_study(spec.with_calibration(profile))
        assert ([s.to_dict() for s in calibrated]
                != [s.to_dict() for s in nominal])
        # The first reported static-EP cost, charged by hand on the
        # calibrated machine.
        topology = profile.apply_to_topology(spec.cluster.to_topology())
        config = spec.workload.model_config()
        cost_model = MoECostModel.from_model_config(
            config, topology, comm_bytes_scale=profile.comm_bytes_scale)
        static = static_ep_layout(topology.num_devices, config.num_experts,
                                  config.expert_capacity)
        frames = spec.workload.make_source(topology.num_devices)
        frame = list(frames.iter_iterations())[spec.workload.warmup]
        static_total = sum(
            cost_model.evaluate(lite_route(routing, static, topology)).total
            for routing in frame)
        assert calibrated[0].static_ms == static_total * 1000.0


class TestResultRoundTripAudit:
    """Store round-trips must be bit-exact (regression for lossy fields)."""

    def test_to_dict_is_plain_json_data(self):
        result = run_experiment(small_spec())

        def walk(obj):
            if isinstance(obj, dict):
                for key, value in obj.items():
                    assert type(key) is str
                    walk(value)
            elif isinstance(obj, list):
                for value in obj:
                    walk(value)
            else:
                # Builtin types only: numpy scalars (float64 etc.) would
                # serialize fine but break in-memory equality with the
                # deserialized result.
                assert type(obj) in (str, int, float, bool, type(None)), \
                    f"non-plain value {obj!r} of type {type(obj)}"

        walk(result.to_dict())

    def test_json_round_trip_is_bit_exact(self):
        result = run_experiment(small_spec())
        text = result.to_json()
        restored = ExperimentResult.from_json(text)
        assert restored.to_dict() == result.to_dict()
        assert restored.to_json() == text
        assert restored.spec == result.spec
        assert restored.execution_mode == result.execution_mode

    def test_null_execution_mode_loads_as_default(self):
        result = run_experiment(small_spec())
        data = result.to_dict()
        # Hand-edited / legacy files may carry an explicit null.
        data["execution_mode"] = None
        assert ExperimentResult.from_dict(data).execution_mode == ""


class TestImportFootprint:
    def test_api_does_not_import_numpy_model(self):
        """A simulated run never loads the numpy model or its executor."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parent.parent)
        script = ("import sys, repro.api; "
                  "print('\\n'.join(sorted(sys.modules)))")
        loaded = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True).stdout.split()
        heavy = [name for name in loaded
                 if name.startswith(("repro.model", "repro.training",
                                     "repro.core.executor"))]
        assert "repro.api" in loaded
        assert heavy == []

    def test_grouped_collective_does_not_import_numpy_ma(self):
        """Checking a collective's group for duplicate ranks must not import
        ``numpy.ma``, as numpy 2's first ``np.unique`` call does: every
        fresh fleet worker would pay for it in its first cell."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parent.parent)
        script = textwrap.dedent("""
            import sys
            from repro.api import (ClusterSpec, ExperimentSpec,
                                   WorkloadSpec, run_experiment)
            from repro.cluster.collectives import CollectiveCostModel
            groups = []
            resolve = CollectiveCostModel._resolve_group
            def recorded(model, group):
                groups.append(group)
                return resolve(model, group)
            CollectiveCostModel._resolve_group = recorded
            before = "numpy.ma" in sys.modules
            run_experiment(ExperimentSpec(
                cluster=ClusterSpec(num_nodes=2, devices_per_node=4),
                workload=WorkloadSpec(tokens_per_device=256, layers=1,
                                      iterations=1, warmup=0),
                systems=("fsdp_ep",), reference="fsdp_ep"))
            print(before, "numpy.ma" in sys.modules,
                  any(group is not None for group in groups))
        """)
        loaded = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True).stdout.split()
        # Not loaded before the run, not loaded by it, and the run resolved
        # a grouped collective.
        assert loaded == ["False", "False", "True"]
