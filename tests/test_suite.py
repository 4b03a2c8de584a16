"""Tests for the suite subsystem (spec, characterization, report, search)."""

import json
from pathlib import Path

import pytest

from repro.api.specs import ClusterSpec, ExperimentSpec, WorkloadSpec
from repro.store import ResultStore, run_id_for
from repro.suite import (
    METRIC_KEYS,
    MemberProfile,
    SuiteCharacterization,
    SuiteMember,
    SuiteSpec,
    adversarial_search,
    characterize_member,
    characterize_suite,
    coverage_report,
    default_suite,
    format_suite_report,
    graduate,
    member_rows,
    search_tags,
)

REPO_SUITE = Path(__file__).resolve().parents[1] / "suites" / "default-v1.json"


def tiny_suite(**overrides):
    kwargs = dict(
        name="tiny", version=1, tokens_per_device=512, layers=2,
        iterations=6, warmup=1,
        members=(
            SuiteMember(name="skewed", scenario="steady", seed=3, skew=0.15),
            SuiteMember(name="drifty", scenario="drifting", seed=4),
            SuiteMember(name="bursty", scenario="bursty-churn", seed=5,
                        params={"period": 4, "burst_length": 1}),
        ))
    kwargs.update(overrides)
    return SuiteSpec(**kwargs)


class TestSuiteSpec:
    def test_round_trip(self):
        suite = default_suite()
        clone = SuiteSpec.from_dict(json.loads(suite.to_json()))
        assert clone == suite
        assert clone.suite_id == suite.suite_id

    def test_checked_in_suite_matches_default(self):
        assert SuiteSpec.load(REPO_SUITE) == default_suite()

    def test_suite_id_is_content_hashed(self):
        suite = tiny_suite()
        assert suite.suite_id == tiny_suite().suite_id
        assert suite.suite_id.startswith("tiny-v1-")
        assert suite.suite_id != tiny_suite(tokens_per_device=1024).suite_id

    def test_save_and_load(self, tmp_path):
        suite = tiny_suite()
        path = suite.save(tmp_path / "tiny.json")
        assert SuiteSpec.load(path) == suite

    def test_with_member_bumps_version_without_mutating(self):
        suite = tiny_suite()
        grown = suite.with_member(SuiteMember(name="extra", scenario="steady",
                                              seed=9))
        assert grown.version == suite.version + 1
        assert ([m.name for m in grown.members]
                == [m.name for m in suite.members] + ["extra"])
        assert grown.suite_id != suite.suite_id
        assert suite.version == 1 and len(suite.members) == 3

    def test_duplicate_member_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            tiny_suite(members=(
                SuiteMember(name="twin", scenario="steady"),
                SuiteMember(name="twin", scenario="drifting"),
            ))

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            SuiteMember(name="bad", scenario="no-such-scenario")

    def test_unknown_scenario_param_rejected(self):
        with pytest.raises(ValueError, match="does not accept"):
            SuiteMember(name="bad", scenario="steady", params={"bogus": 1})

    def test_unknown_suite_field_rejected(self):
        data = tiny_suite().to_dict()
        data["frobnicate"] = True
        with pytest.raises(ValueError, match="frobnicate"):
            SuiteSpec.from_dict(data)

    def test_member_workload_pins_seed_and_overrides(self):
        suite = tiny_suite()
        workload = suite.member_workload(suite.member("skewed"))
        assert workload.seed == 3
        assert workload.skew == 0.15
        assert workload.scenario == "steady"
        assert workload.tokens_per_device == 512
        # Members without overrides keep the WorkloadSpec defaults.
        default = suite.member_workload(suite.member("drifty"))
        assert default.skew == WorkloadSpec().skew


def synthetic_profile(name, values):
    metrics = dict(zip(METRIC_KEYS, values))
    return MemberProfile(name=name, scenario="steady",
                         imbalance_mean=metrics["imbalance_p50"], **metrics)


class TestCharacterization:
    def test_profiles_cover_all_metrics(self):
        suite = tiny_suite()
        ch = characterize_suite(suite, num_devices=4)
        assert ch.suite_id == suite.suite_id
        assert len(ch.profiles) == 3
        for profile in ch.profiles:
            for key in METRIC_KEYS:
                value = getattr(profile, key)
                assert isinstance(value, float)
                assert value == value  # not NaN
            assert profile.imbalance_p50 <= profile.imbalance_p90 \
                <= profile.imbalance_p99

    def test_metrics_separate_the_regimes(self):
        suite = default_suite()
        balanced = characterize_member(suite.member("steady-balanced"),
                                       suite, 8)
        skewed = characterize_member(suite.member("steady-skewed"), suite, 8)
        drifting = characterize_member(suite.member("drifting"), suite, 8)
        assert skewed.imbalance_p50 > balanced.imbalance_p50
        assert skewed.hot_concentration > balanced.hot_concentration
        assert drifting.drift_velocity > balanced.drift_velocity

    def test_characterization_round_trips(self, tmp_path):
        ch = characterize_suite(tiny_suite(), num_devices=4)
        path = ch.save(tmp_path / "ch.json")
        assert SuiteCharacterization.load(path) == ch

    def test_coverage_flags_redundant_pairs(self):
        twin = [1.0, 1.2, 1.4, 0.3, 0.1, 0.05, 0.4]
        far = [5.0, 6.0, 7.0, 0.9, 0.8, 0.5, 0.9]
        profiles = [synthetic_profile("a", twin),
                    synthetic_profile("b", twin),
                    synthetic_profile("c", far)]
        coverage = coverage_report(profiles)
        flagged = {n["member"]: n for n in coverage["nearest_neighbors"]}
        assert flagged["a"]["nearest"] == "b" and flagged["a"]["redundant"]
        assert flagged["b"]["redundant"]
        assert not flagged["c"]["redundant"]

    def test_coverage_reports_empty_regions(self):
        # Every metric sits at the extremes -- the mid third is empty.
        low = [0.0] * len(METRIC_KEYS)
        high = [1.0] * len(METRIC_KEYS)
        coverage = coverage_report([synthetic_profile("lo", low),
                                    synthetic_profile("hi", high)])
        regions = {(e["metric"], e["region"])
                   for e in coverage["empty_regions"]}
        assert ("imbalance_p50", "mid") in regions
        assert all(region == "mid" for _, region in regions)

    def test_coverage_spread_tracks_min_max(self):
        profiles = [synthetic_profile("lo", [0.0] * len(METRIC_KEYS)),
                    synthetic_profile("hi", [2.0] * len(METRIC_KEYS))]
        spread = {s["metric"]: s for s in coverage_report(profiles)["spread"]}
        assert spread["churn_rate"]["min"] == 0.0
        assert spread["churn_rate"]["max"] == 2.0
        assert spread["churn_rate"]["range"] == 2.0


class TestSuiteReport:
    def test_report_renders_members_and_coverage(self):
        ch = characterize_suite(tiny_suite(), num_devices=4)
        text = format_suite_report(ch)
        assert text.startswith("# Suite report: tiny v1")
        assert "## Member workload metrics" in text
        assert "## Coverage: metric spread" in text
        assert "## Coverage: nearest neighbors" in text
        assert "## Coverage: empty regions" in text
        for name in ("skewed", "drifty", "bursty"):
            assert name in text
        for key in METRIC_KEYS:
            assert key in text

    def test_member_rows_match_profiles(self):
        ch = characterize_suite(tiny_suite(), num_devices=4)
        rows = member_rows(ch)
        assert [row["member"] for row in rows] == ["skewed", "drifty",
                                                   "bursty"]
        assert rows[0]["imbalance_p50"] == pytest.approx(
            ch.profiles[0].imbalance_p50, abs=1e-4)


class TestDropPolicySpec:
    def test_default_spec_omits_drop_policy(self):
        spec = ExperimentSpec(name="t")
        assert "drop_policy" not in spec.to_dict()
        # Run ids are content hashes of to_dict, so key absence means the
        # ids of every pre-existing stored spec are untouched by the field.
        explicit = ExperimentSpec(name="t", drop_policy="penalty")
        assert explicit.to_dict() == spec.to_dict()
        assert run_id_for(explicit, ("x",)) == run_id_for(spec, ("x",))

    def test_drop_policy_round_trips(self):
        spec = ExperimentSpec(name="t", drop_policy="truncate")
        data = spec.to_dict()
        assert data["drop_policy"] == "truncate"
        clone = ExperimentSpec.from_json(json.dumps(data))
        assert clone == spec
        assert clone.drop_policy == "truncate"

    def test_drop_policy_changes_run_id(self):
        plain = ExperimentSpec(name="t")
        truncate = ExperimentSpec(name="t", drop_policy="truncate")
        assert run_id_for(plain, ()) != run_id_for(truncate, ())

    def test_invalid_drop_policy_rejected(self):
        with pytest.raises(ValueError, match="drop_policy"):
            ExperimentSpec(name="t", drop_policy="discard")


CLUSTER = ClusterSpec(num_nodes=1, devices_per_node=8)


class TestAdversarialSearch:
    def search(self, suite, store, budget, seed=3):
        return adversarial_search(suite, "static_ep", store, budget=budget,
                                  seed=seed, cluster=CLUSTER)

    def test_budget_validation(self, tmp_path):
        with pytest.raises(ValueError, match="budget"):
            self.search(tiny_suite(), ResultStore(tmp_path / "s"), budget=0)

    def test_search_persists_every_candidate(self, tmp_path):
        suite = tiny_suite()
        store = ResultStore(tmp_path / "store")
        result = self.search(suite, store, budget=6)
        assert len(result.evaluations) == 6
        assert result.simulated == 6 and result.cached == 0
        assert set(result.member_regrets) == {m.name for m in suite.members}
        for evaluation in result.evaluations:
            assert evaluation.run_id in store
        assert result.winner is not None
        assert result.winner.regret == max(e.regret
                                           for e in result.evaluations)

    def test_rerun_is_fully_cached_and_identical(self, tmp_path):
        suite = tiny_suite()
        store = ResultStore(tmp_path / "store")
        first = self.search(suite, store, budget=6)
        second = self.search(suite, store, budget=6)
        assert second.simulated == 0 and second.cached == 6
        assert [e.run_id for e in second.evaluations] \
            == [e.run_id for e in first.evaluations]
        assert second.winner.run_id == first.winner.run_id
        assert second.winner.regret == first.winner.regret

    def test_interrupted_search_resumes_without_resimulating(self, tmp_path):
        suite = tiny_suite()
        store = ResultStore(tmp_path / "store")
        # A search killed mid-budget leaves its evaluations in the store...
        partial = self.search(suite, store, budget=4)
        assert partial.simulated == 4
        # ...so the full-budget resume replays them from the store and only
        # simulates the remainder of its (deterministic) trajectory.
        resumed = self.search(suite, store, budget=10)
        assert resumed.cached == 4 and resumed.simulated == 6
        # The resumed search is bit-identical to one that never stopped.
        fresh = self.search(suite, ResultStore(tmp_path / "fresh"), budget=10)
        assert fresh.simulated == 10
        assert [e.run_id for e in resumed.evaluations] \
            == [e.run_id for e in fresh.evaluations]
        assert resumed.winner.run_id == fresh.winner.run_id
        assert resumed.winner.regret == fresh.winner.regret

    def test_winner_beats_every_default_member(self, tmp_path):
        # The acceptance bar: against static expert parallelism, the search
        # must find a scenario with strictly higher regret than every
        # curated default-v1 member.
        suite = SuiteSpec.load(REPO_SUITE)
        store = ResultStore(tmp_path / "store")
        result = adversarial_search(suite, "static_ep", store, budget=12,
                                    seed=7, cluster=CLUSTER)
        assert set(result.member_regrets) == {m.name for m in suite.members}
        assert result.winner.regret > result.max_member_regret

    def test_search_tags_scope_suite_and_target(self):
        tags = search_tags(tiny_suite(), "static_ep")
        assert tags == ("suite-search:tiny-v1", "target:static_ep")

    def test_graduate_admits_winner_into_next_version(self, tmp_path):
        suite = tiny_suite()
        store = ResultStore(tmp_path / "store")
        result = self.search(suite, store, budget=6)
        grown = graduate(suite, result)
        assert grown.version == 2
        assert len(grown.members) == 4
        newest = grown.members[-1]
        assert newest.name == "adversarial-static_ep-v2"
        assert newest.scenario == result.winner.candidate.scenario
        assert newest.seed == result.winner.candidate.seed
        # Graduating the same winner again is a different suite version.
        assert grown.suite_id != suite.suite_id

    def test_graduate_without_winner_is_an_error(self):
        from repro.suite.search import SearchResult

        empty = SearchResult(suite_id="x", target="static_ep", seed=0,
                             budget=1)
        with pytest.raises(ValueError, match="no winner"):
            graduate(tiny_suite(), empty)

    def test_summary_mentions_cache_split(self, tmp_path):
        suite = tiny_suite()
        store = ResultStore(tmp_path / "store")
        result = self.search(suite, store, budget=4)
        text = result.summary()
        assert "simulated 4, cached 0" in text
        assert "winner" in text
