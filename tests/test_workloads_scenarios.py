"""Tests for the Scenario API: trace sources and the scenario registry."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.api.specs import WorkloadSpec
from repro.workloads.routing_traces import routing_from_assignments
from repro.workloads.scenarios import (
    BurstyChurnTraceSource,
    FileTraceSource,
    MixtureTraceSource,
    ScenarioContext,
    StragglerTraceSource,
    SyntheticTraceSource,
    TraceSource,
    available_scenarios,
    default_runnable_scenarios,
    make_scenario,
    register_scenario,
    registered_scenario,
    scenario_descriptions,
    unregister_scenario,
)
from repro.workloads.trace_io import save_assignments, save_trace

CTX = ScenarioContext(num_devices=4, num_experts=8, num_layers=2,
                      tokens_per_device=512, top_k=2, iterations=8, seed=5)


class TestScenarioContext:
    """The one validated description of a routing workload."""

    REJECTIONS = [
        ("num_devices", 0, "num_devices, num_experts and num_layers"),
        ("num_experts", 0, "num_devices, num_experts and num_layers"),
        ("num_layers", 0, "num_devices, num_experts and num_layers"),
        ("tokens_per_device", 0, "tokens_per_device must be positive"),
        ("top_k", 9, r"top_k must be in \[1, num_experts\]"),
        ("top_k", 0, r"top_k must be in \[1, num_experts\]"),
        ("iterations", 0, "iterations must be positive"),
        ("skew", -1.0, "skew must be positive"),
        ("skew", 0.0, "skew must be positive"),
        ("drift", -0.1, "drift and device_noise must be non-negative"),
        ("device_noise", -0.1, "drift and device_noise must be non-negative"),
        ("churn_prob", 1.5, "churn_prob must be a probability"),
        ("churn_prob", -0.1, "churn_prob must be a probability"),
    ]

    @pytest.mark.parametrize("field,value,message", REJECTIONS,
                             ids=[f"{f}={v}" for f, v, _ in REJECTIONS])
    def test_rejects_an_invalid_workload(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(CTX, **{field: value})

    def test_shares_the_spec_popularity_defaults(self):
        """A spec and a context left at their defaults describe the same
        popularity process, so the two sets of defaults cannot split."""
        spec = WorkloadSpec()
        ctx = ScenarioContext(num_devices=4, num_experts=8, num_layers=2,
                              tokens_per_device=512, top_k=2, iterations=8)
        for name in ("skew", "drift", "churn_prob", "device_noise", "seed"):
            assert getattr(ctx, name) == getattr(spec, name), name


class TestRegistry:
    def test_at_least_six_builtins(self):
        names = available_scenarios()
        assert len(names) >= 6
        for expected in ("steady", "drifting", "bursty-churn", "diurnal",
                         "phase-shift", "straggler", "multi-tenant-mix"):
            assert expected in names

    def test_descriptions_cover_every_scenario(self):
        descriptions = scenario_descriptions()
        assert set(descriptions) == set(available_scenarios())
        assert all(descriptions.values())

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            registered_scenario("no-such-scenario")
        with pytest.raises(ValueError, match="unknown scenario"):
            make_scenario("no-such-scenario", CTX)

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="does not accept parameter"):
            make_scenario("steady", CTX, bogus=1)
        with pytest.raises(ValueError, match="does not accept parameter"):
            make_scenario("bursty-churn", CTX, burst_len=2)

    def test_bad_param_value_rejected(self):
        with pytest.raises(ValueError):
            make_scenario("bursty-churn", CTX, period=1)
        with pytest.raises(ValueError):
            make_scenario("straggler", CTX, num_failed=CTX.num_devices)
        with pytest.raises(ValueError):
            make_scenario("multi-tenant-mix", CTX, tenants=1)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_scenario("steady")
            def _factory(ctx):  # pragma: no cover - never invoked
                raise AssertionError

    def test_user_registered_scenario(self):
        @register_scenario("custom-steady", description="registry test")
        def _build(ctx, skew_override=0.3):
            return SyntheticTraceSource(dataclasses.replace(
                ctx, drift=0.0, churn_prob=0.0, skew=skew_override))

        try:
            source = make_scenario("custom-steady", CTX, skew_override=0.2)
            frames = list(source.iter_iterations())
            assert len(frames) == CTX.iterations
        finally:
            unregister_scenario("custom-steady")
        with pytest.raises(ValueError, match="unknown scenario"):
            make_scenario("custom-steady", CTX)

    def test_lookup_is_case_insensitive(self):
        assert registered_scenario("STEADY").name == "steady"


class TestBuiltinSources:
    @pytest.mark.parametrize("name", [
        "steady", "drifting", "bursty-churn", "diurnal", "phase-shift",
        "straggler", "multi-tenant-mix", "compose",
    ])
    def test_shapes_dtype_and_token_conservation(self, name):
        source = make_scenario(name, CTX)
        assert isinstance(source, TraceSource)
        assert source.num_iterations == CTX.iterations
        assert (source.num_layers, source.num_devices, source.num_experts) \
            == (CTX.num_layers, CTX.num_devices, CTX.num_experts)
        assert source.tokens_per_device == CTX.tokens_per_device
        assert source.top_k == CTX.top_k
        expected_total = (CTX.num_devices * CTX.tokens_per_device * CTX.top_k)
        frames = list(source.iter_iterations())
        assert len(frames) == CTX.iterations
        for frame in frames:
            assert frame.shape == (CTX.num_layers, CTX.num_devices,
                                   CTX.num_experts)
            assert frame.dtype == np.int64
            assert (frame >= 0).all()
            # Global token count is conserved per layer in every scenario.
            assert (frame.sum(axis=(1, 2)) == expected_total).all()

    @pytest.mark.parametrize("name", [
        "steady", "drifting", "bursty-churn", "diurnal", "phase-shift",
        "straggler", "multi-tenant-mix", "compose",
    ])
    def test_restartable_fork_and_materialize_agree(self, name):
        source = make_scenario(name, CTX)
        first = list(source.iter_iterations())
        second = list(source.iter_iterations())          # restartable
        forked = list(source.fork().iter_iterations())   # independent copy
        trace = source.materialize()
        assert trace.num_iterations == CTX.iterations
        for it in range(CTX.iterations):
            assert np.array_equal(first[it], second[it])
            assert np.array_equal(first[it], forked[it])
            assert np.array_equal(first[it], trace.iteration(it))

    def test_seed_changes_the_stream(self):
        a = make_scenario("drifting", CTX)
        b = make_scenario("drifting", ScenarioContext(
            num_devices=4, num_experts=8, num_layers=2, tokens_per_device=512,
            top_k=2, iterations=8, seed=6))
        assert not all(np.array_equal(x, y) for x, y in
                       zip(a.iter_iterations(), b.iter_iterations()))

    def test_steady_popularity_is_stationary(self):
        source = make_scenario("steady", CTX)
        frames = list(source.iter_iterations())
        # Expert popularity shares stay close across iterations (only
        # multinomial sampling noise, no drift of the underlying profile).
        shares = [f[0].sum(axis=0) / f[0].sum() for f in frames]
        spread = np.abs(shares[0] - shares[-1]).max()
        assert spread < 0.05

    def test_bursty_churn_reshuffles_inside_bursts(self):
        source = BurstyChurnTraceSource(
            dataclasses.replace(CTX, drift=0.0, iterations=12), period=6,
            burst_length=2)
        frames = list(source.iter_iterations())
        hottest = [int(np.argmax(f[0].sum(axis=0))) for f in frames]
        calm = [hottest[it] for it in range(12) if not source.in_burst(it)]
        # With zero drift the calm phases keep a stable hotspot per regime;
        # the trace still changes hotspot identity at least once overall.
        assert len(set(hottest)) > 1
        assert len(calm) > len(set(calm))

    def test_straggler_windows_zero_failed_devices(self):
        inner = SyntheticTraceSource(CTX)
        source = StragglerTraceSource(inner, period=4, duration=1,
                                      num_failed=1)
        frames = list(source.iter_iterations())
        inner_frames = list(inner.iter_iterations())
        for it, frame in enumerate(frames):
            failed = source.failed_devices(it)
            if failed:
                assert (frame[:, failed, :] == 0).all()
                # Global expert load is preserved through redistribution.
                assert np.array_equal(frame.sum(axis=1),
                                      inner_frames[it].sum(axis=1))
            else:
                assert np.array_equal(frame, inner_frames[it])

    def test_straggler_rotates_failed_devices(self):
        inner = SyntheticTraceSource(CTX)
        source = StragglerTraceSource(inner, period=4, duration=1,
                                      num_failed=1)
        assert source.failed_devices(0) != source.failed_devices(4)

    def test_multi_tenant_mix_sums_component_budgets(self):
        source = make_scenario("multi-tenant-mix", CTX, tenants=3)
        assert isinstance(source, MixtureTraceSource)
        assert len(source.components) == 3
        assert source.tokens_per_device == CTX.tokens_per_device
        components = [list(c.iter_iterations()) for c in source.components]
        for it, frame in enumerate(source.iter_iterations()):
            assert np.array_equal(frame,
                                  sum(comp[it] for comp in components))

    def test_mixture_rejects_mismatched_components(self):
        a = SyntheticTraceSource(CTX)
        b = SyntheticTraceSource(dataclasses.replace(CTX, num_experts=16))
        with pytest.raises(ValueError, match="mixture components"):
            MixtureTraceSource((a, b))


class TestPinnedFrames:
    """Every default-runnable scenario's frames and shape, pinned by digest.

    A suite is comparable across changes only while its workloads stay
    fixed, so a refactor of the routing process must leave these frames
    bit-identical.  The digests cover the integer frames of numpy's
    ``Generator`` streams; a numpy upgrade that changes one of its
    distributions changes them too, and they may be re-pinned only after
    the same upgrade gives the same new digests on the previous commit.
    """

    #: Three workload shapes: "8x16-churn" reshuffles the hot experts on a
    #: quarter of the drifting steps; "6x4-quiet" draws without per-device
    #: noise, over enough iterations for two churn bursts and four phases.
    CONTEXTS = {
        "4x8": ScenarioContext(num_devices=4, num_experts=8, num_layers=2,
                               tokens_per_device=512, top_k=2, iterations=8,
                               seed=5),
        "8x16-churn": ScenarioContext(
            num_devices=8, num_experts=16, num_layers=3, tokens_per_device=256,
            top_k=4, iterations=14, seed=11, skew=0.3, drift=0.2,
            churn_prob=0.25),
        "6x4-quiet": ScenarioContext(
            num_devices=6, num_experts=4, num_layers=1, tokens_per_device=100,
            top_k=1, iterations=26, seed=0, device_noise=0.0),
    }
    #: (num_iterations, num_layers, num_devices, num_experts,
    #: tokens_per_device, top_k) of every source built at each shape.
    SHAPES = {
        "4x8": (8, 2, 4, 8, 512, 2),
        "8x16-churn": (14, 3, 8, 16, 256, 4),
        "6x4-quiet": (26, 1, 6, 4, 100, 1),
    }
    PINNED_FRAMES = {
        "4x8": {
            "steady":
                "b9122d1119c8e756ad30e11151d7411b6db384863da8e2b7e661ff62f2231c60",
            "drifting":
                "36dd9962181ac07c572c9490144b5e5233fcbe3aedef009b38ddcb9578e72179",
            "bursty-churn":
                "a722b8bf5649143c632f2de6f2fc09cac779d96dfd1e7437a46c83a490767662",
            "diurnal":
                "45125fc48e48f75a53227534ccc3314ac3170bb336f6260fabce56b38d41c59c",
            "phase-shift":
                "6c6224a064fc5bd60ad02c9bfe27a78220bb4ae92e7f7fc0bab397827c2d97b0",
            "straggler":
                "2e64c46e2852becc4ee24689e7d4e5cf38095dbfef846ab999ee00708805b0dd",
            "multi-tenant-mix":
                "3c3b09f9eda9f4042917e8987b224a1fb1455bfb0b5dcb0eaad9b332c7eac172",
            "compose":
                "c50ee0b187b26ebf83e0ad8415e3d2407f106a3a4903cc993cee167d063a4307",
        },
        "8x16-churn": {
            "steady":
                "b399d03881b7a83291fb0b79aab9c142cee271fdf18582866c732f9ab49fcb72",
            "drifting":
                "67714d19d047d5da4be1904f6bd3d02d4f86fe85ddab29636deb9c69874c6edc",
            "bursty-churn":
                "412d85beffc26892ff7ea35b3926c9283bdafe263a7280cba02a2d0fae25cb8b",
            "diurnal":
                "0283485f1c4839498a2434604527caa587ded5936aaa31263963e99c4aedd0bd",
            "phase-shift":
                "7e790dbcf1fdbaddd1ebfc70137a5170119971ec791fadb52c5f5a1742ae471f",
            "straggler":
                "c274b05772d0b12496e69197931bce01ef198a99c125104cce13e2c035f27f52",
            "multi-tenant-mix":
                "d198c65ef60afee49f0376760aae3e0d1ec8a471cae82a2e12b1bbd2fae6c80b",
            "compose":
                "52716c621f537a7db18e27f91bbe01a1984bf83ca3bea544a70c0e8095800aab",
        },
        "6x4-quiet": {
            "steady":
                "1ff025b11cd694a2c2891368b6bd6435f692af3007f4a4c9d08a725379f34857",
            "drifting":
                "bc67454e1a03520a683856140c2447a805a54b2a22819cc81f8c86bfa47d1552",
            "bursty-churn":
                "74592334ab97442b0632227a9fe6270ab81a3d43d08b2b126ee5f404ad20eeb9",
            "diurnal":
                "b26f12bb6f0bca3506014a21f55fd82ad537e01cf52acef004b86e7400393899",
            "phase-shift":
                "4c55f029eed7c18d71a1a956339a2b6b818c75f257e3ad1e51f46962ea8741c8",
            "straggler":
                "9ad81720268e11293db4141292bd46bb2746b29db257dd196f5d5b794f0716ec",
            "multi-tenant-mix":
                "ee898146daebb5b4dda4d4c11279c018f2dfe71cd5420cebeda0b3107477aeca",
            "compose":
                "4bb5a51d9d4ece6d9bdf42abe214a220665bf42be68f6d838eef7041f1b66246",
        },
    }
    #: A one-layer 4x8 walk at 16,384 tokens, top-2, skew 0.5 and
    #: ``churn_prob=0.02``, which reshuffles once in these 50 iterations.
    DEFAULTS_FRAMES = (
        "865d0624bb68ca4535f7ea1ad67f47bfca3dc7b1486998e367d019707649c2aa")

    @staticmethod
    def digest(source):
        digest = hashlib.sha256()
        for frame in source.iter_iterations():
            frame = np.ascontiguousarray(frame)
            digest.update(f"{frame.dtype.str}{frame.shape}".encode())
            digest.update(frame.tobytes())
        return digest.hexdigest()

    @staticmethod
    def shape(source):
        return (source.num_iterations, source.num_layers, source.num_devices,
                source.num_experts, source.tokens_per_device, source.top_k)

    def test_every_runnable_scenario_is_pinned(self):
        for pinned in self.PINNED_FRAMES.values():
            assert sorted(pinned) == sorted(default_runnable_scenarios())

    @pytest.mark.parametrize("key", sorted(CONTEXTS))
    def test_scenario_frames_and_shapes(self, key):
        for name, expected in self.PINNED_FRAMES[key].items():
            source = make_scenario(name, self.CONTEXTS[key])
            assert self.shape(source) == self.SHAPES[key], name
            assert self.digest(source) == expected, name

    def test_synthetic_source_on_config_defaults(self):
        source = SyntheticTraceSource(ScenarioContext(
            num_devices=4, num_experts=8, num_layers=1,
            tokens_per_device=16384, top_k=2, iterations=50, skew=0.5,
            churn_prob=0.02))
        assert self.shape(source) == (50, 1, 4, 8, 16384, 2)
        assert self.digest(source) == self.DEFAULTS_FRAMES


class TestFileTraceSource:
    def test_lazy_round_trip(self, tmp_path):
        trace = SyntheticTraceSource(CTX).materialize()
        path = save_trace(trace, tmp_path / "trace.npz")
        source = FileTraceSource(path)
        assert source.num_iterations == trace.num_iterations
        assert source.tokens_per_device == trace.tokens_per_device
        for frame, expected in zip(source.iter_iterations(),
                                   trace.iter_iterations()):
            assert np.array_equal(frame, expected)
        assert np.array_equal(source.fork().materialize().routing,
                              trace.routing)

    def test_missing_file_fails_on_first_access(self, tmp_path):
        source = FileTraceSource(tmp_path / "missing.npz")  # cheap to build
        with pytest.raises(FileNotFoundError):
            source.num_iterations


class TestRoutingTraceAsSource:
    def test_trace_satisfies_protocol(self):
        trace = SyntheticTraceSource(
            dataclasses.replace(CTX, iterations=4)).materialize()
        assert isinstance(trace, TraceSource)
        frames = list(trace.iter_iterations())
        assert len(frames) == 4
        assert trace.fork() is trace
        assert trace.materialize() is trace
        assert np.array_equal(frames[2], trace.iteration(2))


class TestTraceReplayScenario:
    """The trace-driven scenario: recorded assignments -> routing frames."""

    def record(self, tmp_path, iterations=3, layers=2, devices=4, slots=1024,
               experts=8, seed=0):
        rng = np.random.default_rng(seed)
        assignments = rng.integers(
            0, experts, size=(iterations, layers, devices, slots))
        return save_assignments(assignments, tmp_path / "rec.npz"), assignments

    def test_replay_matches_routing_from_assignments(self, tmp_path):
        path, assignments = self.record(tmp_path)
        source = make_scenario("trace-replay", CTX, path=str(path))
        frames = list(source.iter_iterations())
        assert len(frames) == CTX.iterations
        expected = routing_from_assignments(
            list(assignments[0, 0]), CTX.num_experts)
        assert np.array_equal(frames[0][0], expected)
        # tokens_per_device derives from the recording (slots / top_k).
        assert source.tokens_per_device == 1024 // CTX.top_k

    def test_replay_cycles_when_recording_is_short(self, tmp_path):
        path, _ = self.record(tmp_path, iterations=3)
        source = make_scenario("trace-replay", CTX, path=str(path))
        frames = list(source.iter_iterations())
        assert np.array_equal(frames[0], frames[3])
        assert not np.array_equal(frames[0], frames[1])

    def test_scale_multiplies_counts(self, tmp_path):
        path, _ = self.record(tmp_path)
        base = make_scenario("trace-replay", CTX, path=str(path))
        scaled = make_scenario("trace-replay", CTX, path=str(path), scale=3)
        first = next(iter(base.iter_iterations()))
        assert np.array_equal(next(iter(scaled.iter_iterations())), 3 * first)

    def test_device_remap_preserves_global_expert_loads(self, tmp_path):
        path, _ = self.record(tmp_path, devices=2)
        source = make_scenario("trace-replay", CTX, path=str(path))
        frame = next(iter(source.iter_iterations()))
        assert frame.shape[1] == CTX.num_devices
        # tokens_per_device stays in *token* units after the remap: the
        # 2-device 1024-slot recording spread over 4 devices is ~512 slots
        # = ~256 tokens each (plus at most one remainder slot per expert),
        # NOT ~512 "tokens" (the slot count, which would double throughput).
        lower = 2 * 1024 // 4 // CTX.top_k
        upper = -(-(2 * 1024 // 4 + CTX.num_experts) // CTX.top_k)
        assert lower <= source.tokens_per_device <= upper
        recorded = make_scenario(
            "trace-replay",
            ScenarioContext(num_devices=2, num_experts=8, num_layers=2,
                            tokens_per_device=512, top_k=2, iterations=8),
            path=str(path))
        original = next(iter(recorded.iter_iterations()))
        assert np.array_equal(frame.sum(axis=1), original.sum(axis=1))

    def test_missing_path_is_a_value_error(self):
        with pytest.raises(ValueError, match="requires parameter"):
            make_scenario("trace-replay", CTX)

    def test_lazy_and_fork_pickle_safe(self, tmp_path):
        import pickle

        path, _ = self.record(tmp_path)
        source = make_scenario("trace-replay", CTX, path=str(path))
        first = list(source.iter_iterations())
        forked = list(source.fork().iter_iterations())
        pickled = list(pickle.loads(pickle.dumps(source)).iter_iterations())
        for a, b, c in zip(first, forked, pickled):
            assert np.array_equal(a, b) and np.array_equal(a, c)

    def test_out_of_range_expert_rejected(self, tmp_path):
        assignments = np.full((1, 2, 4, 64), 9)  # expert 9 of 8
        path = save_assignments(assignments, tmp_path / "bad.npz")
        source = make_scenario("trace-replay", CTX, path=str(path))
        with pytest.raises(ValueError, match="only"):
            list(source.iter_iterations())


class TestComposeScenario:
    def test_default_is_straggler_on_diurnal(self):
        composed = make_scenario("compose", CTX)
        manual = StragglerTraceSource(
            make_scenario("diurnal", CTX))
        for a, b in zip(composed.iter_iterations(),
                        manual.iter_iterations()):
            assert np.array_equal(a, b)

    def test_base_params_and_wrapper_params_forwarded(self):
        composed = make_scenario(
            "compose", CTX, base="diurnal", base_params={"period": 4},
            wrappers=[{"name": "straggler",
                       "params": {"period": 3, "duration": 1}}])
        manual = StragglerTraceSource(
            make_scenario("diurnal", CTX, period=4), period=3, duration=1)
        for a, b in zip(composed.iter_iterations(),
                        manual.iter_iterations()):
            assert np.array_equal(a, b)

    def test_wrappers_stack_in_order(self):
        composed = make_scenario(
            "compose", CTX, base="steady",
            wrappers=["straggler", "tenant-overlay"])
        frames = list(composed.iter_iterations())
        assert len(frames) == CTX.iterations
        # The overlay adds a second tenant's tokens on top.
        assert composed.tokens_per_device > CTX.tokens_per_device

    def test_self_composition_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            make_scenario("compose", CTX, base="compose")

    def test_unknown_wrapper_and_bad_entries_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario wrapper"):
            make_scenario("compose", CTX, wrappers=["no-such-wrapper"])
        with pytest.raises(ValueError, match="'name'"):
            make_scenario("compose", CTX, wrappers=[{"params": {}}])
        with pytest.raises(ValueError, match="only 'name' and 'params'"):
            make_scenario("compose", CTX,
                          wrappers=[{"name": "straggler", "extra": 1}])
        with pytest.raises(ValueError, match="does not accept"):
            make_scenario("compose", CTX,
                          wrappers=[{"name": "straggler",
                                     "params": {"bogus": 1}}])

    def test_user_registered_wrapper(self):
        from repro.workloads.scenarios import (
            SCENARIO_WRAPPERS,
            available_scenario_wrappers,
            register_scenario_wrapper,
        )

        @register_scenario_wrapper("double", description="wrapper test")
        def _double(inner, ctx):
            trace = inner.materialize()
            trace.routing = trace.routing * 2
            return trace

        try:
            assert "double" in available_scenario_wrappers()
            composed = make_scenario("compose", CTX, base="steady",
                                     wrappers=["double"])
            base = make_scenario("steady", CTX)
            assert np.array_equal(
                next(iter(composed.iter_iterations())),
                2 * next(iter(base.iter_iterations())))
        finally:
            SCENARIO_WRAPPERS.unregister("double")

    def test_compose_usable_from_workload_spec(self):
        from repro.api import WorkloadSpec

        workload = WorkloadSpec(
            tokens_per_device=1024, layers=1, iterations=2, warmup=0,
            scenario="compose",
            params={"base": "diurnal",
                    "wrappers": [{"name": "straggler",
                                  "params": {"period": 4}}]})
        source = workload.make_source(num_devices=4)
        frames = list(source.iter_iterations())
        assert len(frames) == 2
