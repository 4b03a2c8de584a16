"""Contract tests for :class:`repro.registry.Registry` and its four instances."""

from __future__ import annotations

import pytest

from repro.registry import Registry, RegistryEntry
from repro.sim.systems import SYSTEMS
from repro.study.registry import STUDIES
from repro.workloads.scenarios import SCENARIO_WRAPPERS, SCENARIOS


@pytest.fixture
def widgets():
    registry = Registry("widget", skip=1)

    @registry.register("gear", teeth=12, description="a toothed wheel")
    def _gear(ctx, teeth: int = 8, size=1.5):
        return (ctx, teeth, size)

    @registry.register("axle")
    def _axle(ctx, length: float):
        return (ctx, length)

    return registry


class TestRegistration:
    def test_duplicate_name_rejected(self, widgets):
        with pytest.raises(ValueError,
                           match="widget 'gear' is already registered"):
            @widgets.register("GEAR")
            def _other(ctx):  # pragma: no cover - never invoked
                raise AssertionError

    def test_override_replaces_the_entry_in_place(self, widgets):
        @widgets.register("gear", override=True, description="replaced")
        def _replacement(ctx):
            return "replaced"

        assert widgets.get("gear").build(None) == "replaced"
        assert widgets.descriptions()["gear"] == "replaced"
        assert widgets.names() == ["gear", "axle"]

    def test_decorator_returns_the_factory(self, widgets):
        def factory(ctx):
            return ctx

        assert widgets.register("plain")(factory) is factory

    def test_unknown_bound_param_rejected_at_registration(self, widgets):
        with pytest.raises(ValueError, match="does not accept parameter"):
            @widgets.register("cog", tooth=3)
            def _cog(ctx, teeth: int = 8):  # pragma: no cover
                raise AssertionError
        assert "cog" not in widgets.names()

    def test_unregister_removes_the_entry(self, widgets):
        widgets.unregister("GEAR")
        assert widgets.names() == ["axle"]
        with pytest.raises(ValueError, match="unknown widget 'gear'"):
            widgets.get("gear")
        widgets.unregister("gear")  # absent names are ignored

    def test_register_variant_merges_params(self, widgets):
        entry = widgets.register_variant("big_gear", "gear", size=3.0)
        assert isinstance(entry, RegistryEntry)
        assert entry.params == {"teeth": 12, "size": 3.0}
        assert entry.description == "a toothed wheel"
        assert widgets.get("big_gear").build("ctx") == ("ctx", 12, 3.0)
        assert widgets.get("gear").params == {"teeth": 12}
        with pytest.raises(ValueError, match="does not accept parameter"):
            widgets.register_variant("bad_gear", "gear", colour="red")
        with pytest.raises(ValueError, match="unknown widget"):
            widgets.register_variant("x", "no-such-base")


class TestLookup:
    def test_lookup_is_case_insensitive(self, widgets):
        assert widgets.get("GeAr").name == "gear"

    def test_unknown_name_error_names_kind_and_lists_names(self, widgets):
        with pytest.raises(ValueError) as info:
            widgets.get("spring")
        assert str(info.value) == (
            "unknown widget 'spring'; available: ['gear', 'axle']")

    def test_names_and_descriptions_keep_registration_order(self, widgets):
        assert widgets.names() == ["gear", "axle"]
        assert widgets.descriptions() == {"gear": "a toothed wheel",
                                          "axle": ""}


class TestParams:
    def test_build_merges_bound_params_and_overrides(self, widgets):
        entry = widgets.get("gear")
        assert entry.build("ctx") == ("ctx", 12, 1.5)
        assert entry.build("ctx", teeth=20, size=2.0) == ("ctx", 20, 2.0)

    def test_unknown_param_names_the_entry(self, widgets):
        with pytest.raises(ValueError) as info:
            widgets.get("gear").build("ctx", colour="red")
        assert str(info.value) == (
            "widget 'gear' does not accept parameter(s) ['colour']; "
            "accepted: ['size', 'teeth']")

    def test_missing_required_param_names_the_entry(self, widgets):
        entry = widgets.get("axle")
        assert entry.required == frozenset({"length"})
        with pytest.raises(ValueError,
                           match=r"widget 'axle' requires parameter\(s\) "
                                 r"\['length'\]"):
            entry.build("ctx")
        assert entry.build("ctx", length=2.0) == ("ctx", 2.0)

    def test_bound_param_satisfies_a_required_one(self, widgets):
        entry = widgets.register_variant("long_axle", "axle", length=9.0)
        assert entry.required == frozenset()
        assert entry.build("ctx") == ("ctx", 9.0)

    def test_skip_excludes_caller_supplied_arguments(self):
        pairs = Registry("pair", skip=2)

        @pairs.register("p")
        def _p(first, second, knob: int = 1):
            return (first, second, knob)

        entry = pairs.get("p")
        assert entry.accepted == frozenset({"knob"})
        assert entry.build("a", "b", knob=2) == ("a", "b", 2)

    def test_var_keyword_factory_accepts_any_param(self):
        loose = Registry("loose")

        @loose.register("any", colour="red")
        def _any(**kwargs):
            return kwargs

        entry = loose.get("any")
        assert entry.accepted is None
        assert entry.build(size=3) == {"colour": "red", "size": 3}

    def test_param_details_rows(self, widgets):
        assert widgets.get("gear").param_details() == [
            {"param": "teeth", "type": "int", "default": "12"},
            {"param": "size", "type": "float", "default": "1.5"},
        ]
        assert widgets.get("axle").param_details() == [
            {"param": "length", "type": "float", "default": "(required)"},
        ]


class TestModuleRegistries:
    """Kinds, skips and registration order of the package's registries.

    The order fixes every ``available_*()`` listing and the
    ``sweep-scenarios`` grid, and so its run ids.
    """

    def test_systems(self):
        assert (SYSTEMS.kind, SYSTEMS.skip) == ("system", 1)
        assert SYSTEMS.names()[:12] == [
            "megatron", "fsdp_ep", "fastermoe", "smartmoe", "prophet",
            "flexmoe", "laer", "oracle", "laer_pq_only", "laer_even_only",
            "laer_no_comm_opt", "static_ep"]

    def test_scenarios(self):
        assert (SCENARIOS.kind, SCENARIOS.skip) == ("scenario", 1)
        assert SCENARIOS.names()[:9] == [
            "steady", "drifting", "bursty-churn", "diurnal", "phase-shift",
            "straggler", "multi-tenant-mix", "trace-replay", "compose"]

    def test_scenario_wrappers(self):
        assert (SCENARIO_WRAPPERS.kind, SCENARIO_WRAPPERS.skip) == (
            "scenario wrapper", 2)
        assert SCENARIO_WRAPPERS.names()[:2] == ["straggler",
                                                 "tenant-overlay"]

    def test_studies(self):
        assert (STUDIES.kind, STUDIES.skip) == ("study", 0)
        assert STUDIES.names()[:2] == ["sweep-cluster-sizes",
                                       "sweep-scenarios"]
