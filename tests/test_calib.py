"""Tests for the calibration subsystem (repro.calib)."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.api.specs import ClusterSpec, ExperimentSpec, WorkloadSpec
from repro.calib import (
    CalibrationProfile,
    MeasureConfig,
    ObservationSet,
    fit_calibration,
    fit_report,
    fit_summary_line,
    measure,
    run_microbenchmarks,
)
from repro.calib.measure import (
    AllToAllObservation,
    CommObservation,
    ComputeObservation,
)
from repro.cluster.collectives import CollectiveCostModel
from repro.cluster.topology import ClusterTopology, LinkType
from repro.core.comm_schedule import TOKEN_ALL_TO_ALLS
from repro.core.cost_model import BYTES_PER_ELEMENT, token_all_to_all
from repro.core.layout import static_ep_layout
from repro.core.lite_routing import lite_route
from repro.core.routing_plan import RoutingPlan
from repro.store.result_store import run_id_for
from repro.workloads.model_configs import get_model_config

PROFILE_FIELDS = ("intra_node_bandwidth_scale", "inter_node_bandwidth_scale",
                  "intra_node_latency_s", "inter_node_latency_s",
                  "flops_scale", "comm_bytes_scale")


def drawn_profile(seed: int = 3) -> CalibrationProfile:
    return measure.draw_machine(seed)


# ----------------------------------------------------------------------
# CalibrationProfile
# ----------------------------------------------------------------------
class TestCalibrationProfile:
    def test_json_round_trip_is_lossless(self, tmp_path):
        profile = drawn_profile()
        assert CalibrationProfile.from_json(profile.to_json()) == profile
        path = profile.save(tmp_path / "profile.json")
        assert CalibrationProfile.load(path) == profile

    def test_identity_serializes_to_nothing(self):
        identity = CalibrationProfile.identity()
        assert identity.to_dict() == {}
        assert CalibrationProfile.from_dict({}) == identity
        assert drawn_profile().to_dict() != {}

    def test_profile_id_is_content_hashed(self):
        assert drawn_profile(1).profile_id == drawn_profile(1).profile_id
        assert drawn_profile(1).profile_id != drawn_profile(2).profile_id
        # Provenance is metadata, not identity.
        relabeled = dataclasses.replace(drawn_profile(1), source="elsewhere")
        assert relabeled.profile_id == drawn_profile(1).profile_id

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            CalibrationProfile.from_dict({"warp_factor": 9})

    def test_validation(self):
        with pytest.raises(ValueError):
            CalibrationProfile(flops_scale=0.0)
        with pytest.raises(ValueError):
            CalibrationProfile(intra_node_bandwidth_scale=-1.0)
        with pytest.raises(ValueError):
            CalibrationProfile(inter_node_latency_s=-1e-6)

    def test_apply_to_topology_scales_and_replaces(self, small_topology):
        profile = CalibrationProfile(
            intra_node_bandwidth_scale=0.5, inter_node_bandwidth_scale=0.25,
            intra_node_latency_s=1e-5, inter_node_latency_s=4e-5,
            flops_scale=0.8)
        calibrated = profile.apply_to_topology(small_topology)
        assert calibrated.intra_node_bandwidth == \
            small_topology.intra_node_bandwidth * 0.5
        assert calibrated.inter_node_bandwidth == \
            small_topology.inter_node_bandwidth * 0.25
        assert calibrated.intra_node_latency == 1e-5
        assert calibrated.inter_node_latency == 4e-5
        assert calibrated.device_spec.effective_flops == pytest.approx(
            small_topology.device_spec.effective_flops * 0.8)
        # Identity application changes nothing, not even the device spec.
        same = CalibrationProfile.identity().apply_to_topology(small_topology)
        assert same.device_spec is small_topology.device_spec


# ----------------------------------------------------------------------
# Spec threading + run-id invariance
# ----------------------------------------------------------------------
def tiny_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        name="calib-test",
        cluster=ClusterSpec(num_nodes=2, devices_per_node=4),
        workload=WorkloadSpec(tokens_per_device=512, layers=1, iterations=2,
                              warmup=1, seed=11),
        systems=("fsdp_ep",),
        reference="fsdp_ep",
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestSpecCalibration:
    def test_uncalibrated_spec_emits_no_calibration_key(self):
        assert "calibration" not in tiny_spec().to_dict()

    def test_uncalibrated_run_id_is_unchanged_by_the_field(self):
        # The field exists but, unset, must not perturb the content hash —
        # every run id ever stored stays addressable.
        spec = tiny_spec()
        assert spec.calibration is None
        assert run_id_for(spec) == run_id_for(tiny_spec())
        assert run_id_for(spec) != run_id_for(
            spec.with_calibration(drawn_profile()))

    def test_calibrated_spec_round_trips_losslessly(self):
        spec = tiny_spec().with_calibration(drawn_profile())
        restored = ExperimentSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert restored.calibration == spec.calibration
        assert run_id_for(restored) == run_id_for(spec)

    def test_calibration_changes_simulated_throughput(self):
        from repro.api.runner import run_experiment
        baseline = run_experiment(tiny_spec())
        calibrated = run_experiment(
            tiny_spec().with_calibration(drawn_profile()))
        slow = calibrated.systems["fsdp_ep"].throughput
        fast = baseline.systems["fsdp_ep"].throughput
        # The drawn machine is strictly degraded (bw, flops < 1; added
        # latency; byte overhead >= 1), so throughput must drop.
        assert slow < fast

    def test_make_system_calibrates_a_nominal_topology(self):
        """make_system(calibration=p) on the nominal topology simulates
        exactly what run_experiment(spec.with_calibration(p)) does."""
        from repro.api.runner import run_experiment
        from repro.sim.engine import compare_systems
        from repro.sim.systems import make_system

        profile = drawn_profile()
        names = ("fsdp_ep", "laer")
        spec = tiny_spec(systems=names)
        expected = run_experiment(spec.with_calibration(profile))
        topology = spec.cluster.to_topology()
        systems = [make_system(name, spec.workload.model_config(), topology,
                               spec.workload.tokens_per_device,
                               calibration=profile)
                   for name in names]
        runs = compare_systems(systems,
                               spec.workload.make_source(topology.num_devices),
                               warmup=spec.workload.warmup)
        for name in names:
            assert runs[name].throughput == expected.systems[name].throughput
            assert (runs[name].mean_breakdown()
                    == expected.systems[name].breakdown_s)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
class TestMeasurement:
    def test_draw_machine_is_deterministic(self):
        assert drawn_profile(7) == drawn_profile(7)
        assert drawn_profile(7) != drawn_profile(8)
        machine = drawn_profile(7)
        assert CalibrationProfile.from_dict(machine.to_dict()) == machine

    def test_ground_truth_written_before_profiles_still_loads(self, tmp_path):
        """``repro calib measure`` wrote the hidden machine as these six
        keys before it wrote a profile; such a file loads as the profile
        ``draw_machine`` now draws for its seed."""
        path = tmp_path / "ground_truth.json"
        path.write_text(json.dumps({
            "comm_bytes_scale": 1.1299380820709422,
            "flops_scale": 0.7282385926721198,
            "inter_node_bandwidth_scale": 0.5947242026384398,
            "inter_node_latency_s": 2.746486108193104e-05,
            "intra_node_bandwidth_scale": 0.5842596668574498,
            "intra_node_latency_s": 6.807646791238382e-06,
        }, indent=2, sort_keys=True) + "\n")
        assert CalibrationProfile.load(path) == dataclasses.replace(
            drawn_profile(3), source="")

    def test_microbenchmarks_cover_all_terms(self, small_topology):
        observations = run_microbenchmarks(
            small_topology, drawn_profile(0),
            config=MeasureConfig.tiny(), seed=0)
        counts = observations.counts()
        assert counts["comm"] > 0
        assert counts["compute"] == small_topology.num_devices * 2
        assert counts["all_to_all"] == 2
        kinds = {small_topology.link_type(o.link_src, o.link_dst)
                 for o in observations.comm}
        assert kinds == {LinkType.INTRA_NODE, LinkType.INTER_NODE}

    def test_observation_csv_round_trip(self, small_topology, tmp_path):
        observations = run_microbenchmarks(
            small_topology, drawn_profile(2),
            config=MeasureConfig.tiny(), seed=2)
        observations.save(tmp_path / "obs")
        meta = json.loads((tmp_path / "obs" / "meta.json").read_text())
        assert meta["all_to_all_price"] == measure.ALL_TO_ALL_PRICE
        restored = ObservationSet.load(tmp_path / "obs")
        assert restored.comm == observations.comm
        assert restored.compute == observations.compute
        assert restored.all_to_all == observations.all_to_all
        assert restored.model == observations.model
        assert restored.num_nodes == observations.num_nodes

    def test_load_rejects_empty_directory(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValueError, match="no observations"):
            ObservationSet.load(tmp_path / "empty")

    @pytest.mark.parametrize("overrides", [
        {"all_to_all_tokens": (4096,)},
        {"all_to_all_tokens": (4096, 4096)},
        {"compute_flops": (1e12,)},
        {"compute_flops": (4e12, 4e12, 4e12)},
        {"transfer_sizes": (1e6,)},
        {"all_to_all_tokens": (0, 4096)},
    ])
    def test_schedule_needs_two_distinct_positive_sizes_per_term(
            self, overrides):
        """A term measured at one size has no variance for R² to explain."""
        with pytest.raises(ValueError, match=next(iter(overrides))):
            MeasureConfig(**overrides)

    def test_tiny_schedule_measures_two_all_to_all_sizes(self):
        assert len(set(MeasureConfig.tiny().all_to_all_tokens)) == 2

    def synthesized(self, small_topology, tmp_path):
        observations = run_microbenchmarks(
            small_topology, drawn_profile(2),
            config=MeasureConfig.tiny(), seed=2)
        return observations.save(tmp_path / "obs")

    @pytest.mark.parametrize("price", [None, "serial-sum"])
    def test_load_refuses_observations_synthesized_under_another_price(
            self, small_topology, tmp_path, price):
        """A directory ``repro calib measure`` wrote before the current
        All-to-All price (no ``all_to_all_price`` in ``meta.json``) or
        under another one would fit a wrong ``comm_bytes_scale``."""
        directory = self.synthesized(small_topology, tmp_path)
        meta = json.loads((directory / "meta.json").read_text())
        meta.pop("all_to_all_price", None)
        if price is not None:
            meta["all_to_all_price"] = price
        (directory / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="repro calib measure"):
            ObservationSet.load(directory)

    def test_external_observations_without_meta_still_load(
            self, small_topology, tmp_path):
        directory = self.synthesized(small_topology, tmp_path)
        (directory / "meta.json").unlink()
        restored = ObservationSet.load(directory)
        assert restored.source == str(directory)
        assert len(restored.all_to_all) == 2


# ----------------------------------------------------------------------
# Fitting
# ----------------------------------------------------------------------
class TestFit:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_noise_free_fit_recovers_the_hidden_machine(
            self, small_topology, seed):
        truth = drawn_profile(seed)
        observations = run_microbenchmarks(small_topology, truth, seed=seed)
        fit = fit_calibration(observations)
        assert fit.r2_min >= 0.99
        assert fit.profile.intra_node_bandwidth_scale == pytest.approx(
            truth.intra_node_bandwidth_scale, rel=1e-9)
        assert fit.profile.inter_node_bandwidth_scale == pytest.approx(
            truth.inter_node_bandwidth_scale, rel=1e-9)
        assert fit.profile.intra_node_latency_s == pytest.approx(
            truth.intra_node_latency_s, rel=1e-9)
        assert fit.profile.inter_node_latency_s == pytest.approx(
            truth.inter_node_latency_s, rel=1e-9)
        assert fit.profile.flops_scale == pytest.approx(
            truth.flops_scale, rel=1e-9)
        assert fit.profile.comm_bytes_scale == pytest.approx(
            truth.comm_bytes_scale, rel=1e-9)
        assert fit_summary_line(fit).startswith("calib fit: ok")

    def test_robust_fit_survives_noise_and_outliers(self, small_topology):
        machine = drawn_profile(4)
        observations = run_microbenchmarks(
            small_topology, machine,
            config=MeasureConfig(noise=0.03), seed=4)
        # One wildly corrupted measurement on top of the noise.
        bad = observations.comm[0]
        observations.comm[0] = CommObservation(
            link_src=bad.link_src, link_dst=bad.link_dst,
            num_bytes=bad.num_bytes, seconds=bad.seconds * 50.0)
        robust = fit_calibration(observations, robust=True)
        assert robust.profile.intra_node_bandwidth_scale == pytest.approx(
            machine.intra_node_bandwidth_scale, rel=0.15)
        assert robust.profile.inter_node_bandwidth_scale == pytest.approx(
            machine.inter_node_bandwidth_scale, rel=0.15)

    def test_fit_requires_observations(self):
        with pytest.raises(ValueError):
            fit_calibration(ObservationSet())

    def test_r2_of_a_constant_term_is_undefined(self, small_topology):
        """One All-to-All size leaves nothing for the byte scale to explain:
        any scale would read R² 1, so the term's R² is NaN and no floor
        passes it."""
        observations = run_microbenchmarks(
            small_topology, drawn_profile(5),
            config=MeasureConfig.tiny(), seed=5)
        del observations.all_to_all[1:]
        fit = fit_calibration(observations)
        assert np.isnan(fit.term("all_to_all").r2)
        assert fit.term("compute").r2 == pytest.approx(1.0, abs=1e-9)
        assert np.isnan(fit.r2_min)
        assert fit_summary_line(fit).startswith("calib fit: poor")
        assert "r2_min=nan" in fit_summary_line(fit)

    def test_report_renders_all_sections(self, small_topology):
        observations = run_microbenchmarks(
            small_topology, drawn_profile(1),
            config=MeasureConfig.tiny(), seed=1)
        fit = fit_calibration(observations)
        text = fit_report(fit, title="unit")
        assert "Fitted profile" in text
        assert "Worst-fit links" in text
        assert "Largest residuals" in text
        assert fit.profile.profile_id in fit_summary_line(fit)


# ----------------------------------------------------------------------
# Calibrated topology feeds the whole cost stack
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_fitted_profile_reproduces_hidden_machine_timings(
            self, small_topology):
        """A fit applied to the nominal topology predicts the hidden one."""
        machine = drawn_profile(9)
        observations = run_microbenchmarks(small_topology, machine, seed=9)
        fit = fit_calibration(observations)
        calibrated = fit.profile.apply_to_topology(small_topology)
        hidden = machine.apply_to_topology(small_topology)
        size = 64 * 1024 * 1024
        for src, dst in ((0, 1), (0, 4), (3, 7)):
            assert calibrated.p2p_time(src, dst, size) == pytest.approx(
                hidden.p2p_time(src, dst, size), rel=1e-9)
        assert calibrated.device_spec.effective_flops == pytest.approx(
            hidden.device_spec.effective_flops, rel=1e-9)


# ----------------------------------------------------------------------
# Observations priced by the simulator's own kernels
# ----------------------------------------------------------------------
#: The hidden machine, written out rather than drawn: the observations
#: below use no calibration code but ``apply_to_topology``.
HIDDEN = CalibrationProfile(
    intra_node_bandwidth_scale=0.584, inter_node_bandwidth_scale=0.595,
    intra_node_latency_s=6.8e-6, inter_node_latency_s=27.5e-6,
    flops_scale=0.728, comm_bytes_scale=1.130)

MODEL = "mixtral-8x7b-e8k2"
CLUSTER_SHAPES = pytest.mark.parametrize(
    "num_nodes, devices_per_node", [(2, 4), (8, 8), (32, 8)],
    ids=["2x4", "8x8", "32x8"])


def kernel_priced_observations(nominal: ClusterTopology) -> ObservationSet:
    """What a measurement campaign would see on ``HIDDEN`` if the machine
    behaved exactly as the simulator charges: alpha-beta transfers, FLOPs
    at the hidden efficiency, and ``TOKEN_ALL_TO_ALLS`` uniform token
    exchanges priced by ``token_all_to_all`` at the hidden byte scale."""
    hidden = HIDDEN.apply_to_topology(nominal)
    config = get_model_config(MODEL)
    n, per_node = nominal.num_devices, nominal.devices_per_node
    observations = ObservationSet(model=MODEL, num_nodes=nominal.num_nodes,
                                  devices_per_node=per_node)
    for src, dst in ((0, 1), (0, per_node)):  # one intra-, one inter-node
        for size in (2.0 ** 20, 2.0 ** 24, 2.0 ** 28):
            observations.comm.append(CommObservation(
                src, dst, size, hidden.p2p_time(src, dst, size)))
    for flops in (1e12, 8e12):
        observations.compute.append(ComputeObservation(
            0, flops, flops / hidden.device_spec.effective_flops))
    collectives = CollectiveCostModel(hidden)
    for tokens in (4096, 16384):
        # Whole tokens per (sender, receiver) pair, all on expert 0.
        dense = np.zeros((n, config.num_experts, n), dtype=np.int64)
        dense[:, 0, :] = tokens // n
        (seconds,), _ = token_all_to_all(
            collectives, [RoutingPlan.from_dense(dense)],
            config.hidden_size * BYTES_PER_ELEMENT, HIDDEN.comm_bytes_scale)
        observations.all_to_all.append(AllToAllObservation(
            tokens, TOKEN_ALL_TO_ALLS * float(seconds)))
    return observations


class TestFitsTheChargedPrice:
    @CLUSTER_SHAPES
    def test_fit_recovers_the_hidden_machine(self, num_nodes,
                                             devices_per_node):
        nominal = ClusterTopology(num_nodes=num_nodes,
                                  devices_per_node=devices_per_node)
        fit = fit_calibration(kernel_priced_observations(nominal))
        for name in PROFILE_FIELDS:
            assert getattr(fit.profile, name) == pytest.approx(
                getattr(HIDDEN, name), rel=1e-6), name
        assert fit.r2_min == pytest.approx(1.0, abs=1e-9)

    @CLUSTER_SHAPES
    def test_fit_predicts_a_skewed_exchange_it_never_saw(
            self, num_nodes, devices_per_node):
        """A lite-routed drifting frame, priced on the hidden machine, is
        predicted on the calibrated topology at the fitted byte scale."""
        nominal = ClusterTopology(num_nodes=num_nodes,
                                  devices_per_node=devices_per_node)
        fitted = fit_calibration(kernel_priced_observations(nominal)).profile
        config = get_model_config(MODEL)
        n = nominal.num_devices
        workload = WorkloadSpec(model=MODEL, tokens_per_device=4096,
                                layers=1, iterations=1, warmup=0)
        routing = next(workload.make_source(n).iter_iterations())[0]
        plan = lite_route(routing, static_ep_layout(
            n, config.num_experts, config.expert_capacity), nominal)
        bytes_per_token = config.hidden_size * BYTES_PER_ELEMENT

        def price(profile: CalibrationProfile) -> float:
            collectives = CollectiveCostModel(
                profile.apply_to_topology(nominal))
            (seconds,), _ = token_all_to_all(
                collectives, [plan], bytes_per_token,
                profile.comm_bytes_scale)
            return float(seconds)

        assert price(fitted) == pytest.approx(price(HIDDEN), rel=0.01)
