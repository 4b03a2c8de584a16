"""Tests for the persistent result store (repro.store)."""

import json
import os

import pytest

from repro.api import (
    ClusterSpec,
    ExperimentResult,
    ExperimentRunner,
    ExperimentSpec,
    SystemResult,
    WorkloadSpec,
)
from repro.store import (
    ResultStore,
    diff_results,
    run_id_for,
    spec_fingerprint,
)


def small_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        name="store-test",
        cluster=ClusterSpec(num_nodes=1, devices_per_node=4),
        workload=WorkloadSpec(tokens_per_device=1024, layers=1,
                              iterations=2, warmup=1, seed=11),
        systems=("fsdp_ep", "laer"),
        reference="fsdp_ep",
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


@pytest.fixture(scope="module")
def result() -> ExperimentResult:
    return ExperimentRunner().run(small_spec())


def fake_result(name: str, systems=("a", "b"), throughput=100.0,
                breakdown=None) -> ExperimentResult:
    """A hand-built result (no simulation) for fast store-semantics tests."""
    spec = small_spec(name=name, systems=("fsdp_ep", "laer"))
    built = {}
    for index, key in enumerate(systems):
        built[key] = SystemResult(
            key=key, system="fsdp_ep", throughput=throughput * (index + 1),
            mean_iteration_s=0.5, tokens_per_iteration=4096,
            speedup_vs_reference=float(index + 1),
            breakdown_s=dict(breakdown or {"expert_compute": 0.25}),
        )
    return ExperimentResult(spec=spec, reference=systems[0],
                            requested_reference=systems[0], systems=built,
                            execution_mode="sequential")


class TestRunIdentity:
    def test_fingerprint_is_content_addressed(self):
        assert spec_fingerprint(small_spec()) == spec_fingerprint(small_spec())
        assert spec_fingerprint(small_spec()) != spec_fingerprint(
            small_spec(workload=WorkloadSpec(tokens_per_device=2048,
                                             layers=1, iterations=2,
                                             warmup=1, seed=11)))

    def test_run_id_depends_on_tags_but_not_tag_order(self):
        spec = small_spec()
        assert run_id_for(spec) == run_id_for(spec)
        assert run_id_for(spec, ["a", "b"]) == run_id_for(spec, ["b", "a"])
        assert run_id_for(spec) != run_id_for(spec, ["baseline"])

    def test_run_id_is_filesystem_safe(self):
        spec = small_spec(name="Study/Cell n2x8, params=1")
        run_id = run_id_for(spec)
        assert "/" not in run_id and " " not in run_id
        assert run_id.startswith("study-cell")


class TestPutGetQuery:
    def test_round_trip_is_bit_exact(self, tmp_path, result):
        store = ResultStore(tmp_path / "store")
        run = store.put(result, tags=["smoke"], created_at=123.0)
        loaded = store.get(run.run_id)
        assert loaded.result.to_dict() == result.to_dict()
        assert loaded.tags == ("smoke",)
        assert loaded.created_at == 123.0
        assert run.run_id in store
        assert run_id_for(result.spec, ["smoke"]) == run.run_id
        assert run_id_for(result.spec) not in store  # untagged id differs

    def test_get_missing_run_raises(self, tmp_path):
        with pytest.raises(KeyError, match="no run"):
            ResultStore(tmp_path).get("nope")

    def test_reads_against_missing_store_stay_read_only(self, tmp_path):
        store = ResultStore(tmp_path / "no-such-store")
        assert store.entries() == []
        assert store.query(tag="x") == []
        # A mistyped read path must not conjure a store directory.
        assert not (tmp_path / "no-such-store").exists()

    def test_query_filters(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(result, tags=["baseline"], created_at=1.0)
        assert len(store.query()) == 1
        assert store.query(system="laer")
        assert store.query(scenario="drifting")
        assert store.query(cluster_size=4)
        assert store.query(tag="baseline")
        assert store.query(name="store-test")
        assert store.query(name="store-*")
        assert not store.query(system="megatron")
        assert not store.query(cluster_size=8)
        assert not store.query(tag="other")
        assert not store.query(name="other*")

    def test_delete(self, tmp_path, result):
        store = ResultStore(tmp_path)
        run = store.put(result, created_at=1.0)
        assert store.delete(run.run_id)
        assert run.run_id not in store
        assert not store.query()
        assert not store.delete(run.run_id)


class TestAtomicity:
    def test_crashed_rename_leaves_old_contents(self, tmp_path, monkeypatch,
                                                result):
        store = ResultStore(tmp_path)
        run = store.put(result, created_at=1.0)
        before = store.run_path(run.run_id).read_text()

        def boom(src, dst):
            raise OSError("simulated crash between write and rename")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="simulated crash"):
            store.put(result, created_at=2.0)
        monkeypatch.undo()
        # The target file still holds the previous, complete contents and
        # no temp files leak into the store directory.
        assert store.run_path(run.run_id).read_text() == before
        leftovers = [p for p in store.runs_dir.iterdir()
                     if p.name.startswith(".")]
        assert not leftovers
        assert store.get(run.run_id).created_at == 1.0

    def test_unserializable_payload_never_touches_target(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.root / "x.json"
        store._atomic_write_json(path, {"ok": 1})
        with pytest.raises(TypeError):
            store._atomic_write_json(path, {"bad": object()})
        assert json.loads(path.read_text()) == {"ok": 1}


class TestIndex:
    def test_put_appends_a_journal_line_not_a_full_index(self, tmp_path,
                                                         result):
        store = ResultStore(tmp_path)
        run = store.put(result, created_at=1.0)
        # O(1) increment: one journal line, no compacted index.json yet.
        assert not store.index_path.exists()
        (line,) = store.journal_path.read_text().splitlines()
        record = json.loads(line)
        assert record["op"] == "put"
        entry = record["entry"]
        assert entry["run_id"] == run.run_id
        assert entry["scenario"] == "drifting"
        assert set(entry["metrics"]) == {"fsdp_ep", "laer"}
        # The merged read view serves queries straight from the journal.
        assert [e.run_id for e in store.entries()] == [run.run_id]

    def test_journal_grows_one_line_per_put(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(result, tags=["a"], created_at=1.0)
        store.put(result, tags=["b"], created_at=2.0)
        assert len(store.journal_path.read_text().splitlines()) == 2

    def test_compact_index_matches_cold_rebuild_byte_for_byte(self, tmp_path,
                                                              result):
        store = ResultStore(tmp_path)
        store.put(result, tags=["a"], created_at=1.0)
        store.put(result, tags=["b"], created_at=2.0)
        assert store.compact_index() == 2
        compacted = store.index_path.read_bytes()
        assert store.journal_path.read_text() == ""
        assert store.rebuild_index() == 2
        assert store.index_path.read_bytes() == compacted

    def test_reads_survive_a_concurrent_compaction(self, tmp_path, result,
                                                   monkeypatch):
        """Lock-free reads snapshot journal-then-index: a compaction that
        lands between the two reads must not make journaled runs vanish."""
        store = ResultStore(tmp_path)
        run = store.put(result, created_at=1.0)  # journal-only so far
        real_read_index = ResultStore._read_index_file

        def compact_between_reads(self):
            # Simulate the race: by the time the index file is read, a
            # concurrent compactor has folded and truncated the journal.
            monkeypatch.undo()
            self.compact_index()
            return real_read_index(self)

        monkeypatch.setattr(ResultStore, "_read_index_file",
                            compact_between_reads)
        assert [e.run_id for e in store.entries()] == [run.run_id]

    def test_torn_journal_line_is_skipped(self, tmp_path, result):
        store = ResultStore(tmp_path)
        run = store.put(result, created_at=1.0)
        with store.journal_path.open("a") as handle:
            handle.write('{"op":"put","entry":{"run_id":"torn')  # no newline
        assert [e.run_id for e in store.entries()] == [run.run_id]

    def test_rebuild_from_cold_directory(self, tmp_path, result):
        store = ResultStore(tmp_path)
        run = store.put(result, tags=["t"], created_at=1.0)
        store.journal_path.unlink()
        # Reads rebuild the lost index layer from the run files...
        cold = ResultStore(tmp_path)
        assert [e.run_id for e in cold.query(tag="t")] == [run.run_id]
        assert cold.index_path.exists()
        # ...and an explicit rebuild reports the run count.
        store.index_path.unlink()
        assert store.rebuild_index() == 1

    def test_cold_rebuild_wins_over_a_stale_journal(self, tmp_path, result):
        store = ResultStore(tmp_path)
        keep = store.put(result, tags=["keep"], created_at=1.0)
        stale = store.put(result, tags=["stale"], created_at=2.0)
        # The run file vanishes out-of-band; the journal still records it.
        store.run_path(stale.run_id).unlink()
        assert {e.run_id for e in store.entries()} == {keep.run_id,
                                                       stale.run_id}
        # A cold rebuild trusts the run files, not the journal...
        assert store.rebuild_index() == 1
        assert [e.run_id for e in store.entries()] == [keep.run_id]
        # ...and empties the journal so the phantom cannot resurface.
        assert store.journal_path.read_text() == ""

    def test_corrupt_index_is_absorbed_by_journal_replay(self, tmp_path,
                                                         result):
        store = ResultStore(tmp_path)
        run = store.put(result, created_at=1.0)
        store.index_path.write_text("{not json")
        assert [e.run_id for e in store.entries()] == [run.run_id]

    def test_corrupt_index_with_stale_journal_triggers_rebuild(self, tmp_path,
                                                               result):
        store = ResultStore(tmp_path)
        old = store.put(result, tags=["old"], created_at=1.0)
        store.compact_index()
        new = store.put(result, tags=["new"], created_at=2.0)
        # The compacted index (the only record of `old` besides its run
        # file) is corrupted: the journal alone cannot cover the store, so
        # reads must fall back to a rebuild from the run files.
        store.index_path.write_text("{not json")
        ids = {entry.run_id for entry in store.entries()}
        assert ids == {old.run_id, new.run_id}

    def test_rebuild_skips_unreadable_run_files(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(result, created_at=1.0)
        (store.runs_dir / "broken.json").write_text("{truncated")
        assert store.rebuild_index() == 1

    def test_put_on_missing_index_does_not_mask_older_runs(self, tmp_path,
                                                           result):
        store = ResultStore(tmp_path)
        old = store.put(result, tags=["old"], created_at=1.0)
        store.compact_index()
        store.index_path.unlink()
        new = store.put(result, tags=["new"], created_at=2.0)
        ids = {entry.run_id for entry in store.entries()}
        assert ids == {old.run_id, new.run_id}

    def test_delete_on_corrupt_index_does_not_mask_older_runs(self, tmp_path,
                                                              result):
        store = ResultStore(tmp_path)
        keep = store.put(result, tags=["keep"], created_at=1.0)
        gone = store.put(result, tags=["gone"], created_at=2.0)
        store.index_path.write_text("{not json")
        assert store.delete(gone.run_id)
        assert [entry.run_id for entry in store.entries()] == [keep.run_id]


class TestDiff:
    def test_diff_per_metric_deltas(self, tmp_path):
        store = ResultStore(tmp_path)
        a = store.put(fake_result("a", throughput=100.0), created_at=1.0)
        b = store.put(fake_result("b", throughput=110.0), created_at=2.0)
        diff = store.diff(a.run_id, b.run_id)
        delta = diff.find("a", "throughput")
        assert delta.base == 100.0 and delta.other == 110.0
        assert delta.delta == pytest.approx(10.0)
        assert delta.rel_delta == pytest.approx(0.1)
        assert not diff.systems_only_in_a and not diff.systems_only_in_b
        rows = diff.as_rows()
        assert {"system", "metric", "base", "other", "delta",
                "rel_delta"} <= set(rows[0])

    def test_diff_with_disjoint_systems_and_metrics(self):
        result_a = fake_result("a", systems=("shared", "only_a"),
                               breakdown={"expert_compute": 0.2,
                                          "relayout": 0.01})
        result_b = fake_result("b", systems=("shared", "only_b"),
                               breakdown={"expert_compute": 0.3})
        diff = diff_results("ra", result_a, "rb", result_b)
        assert diff.systems_only_in_a == ("only_a",)
        assert diff.systems_only_in_b == ("only_b",)
        (shared,) = diff.systems
        assert shared.system == "shared"
        assert shared.metrics_only_in_a == ("breakdown.relayout",)
        assert shared.metrics_only_in_b == ()
        assert {d.metric for d in shared.metrics} >= {
            "throughput", "breakdown.expert_compute"}

    def test_zero_base_rel_delta_registers_the_change(self):
        import math

        result_a = fake_result("a", throughput=0.0)
        result_b = fake_result("b", throughput=5.0)
        diff = diff_results("ra", result_a, "rb", result_b)
        # 0 -> X must read as an (infinite) change, not as +0.00%.
        assert math.isinf(diff.find("a", "throughput").rel_delta)
        assert diff.find("a", "throughput").rel_delta > 0
        # 0 -> 0 genuinely is no change.
        both_zero = diff_results("ra", fake_result("a", throughput=0.0),
                                 "rb", fake_result("b", throughput=0.0))
        assert both_zero.find("a", "throughput").rel_delta == 0.0

    def test_zero_baseline_metric_growth_is_flagged(self, tmp_path):
        store = ResultStore(tmp_path)
        baseline = fake_result("exp", breakdown={"exposed_comm": 0.0})
        store.put(baseline, tags=["baseline"], created_at=1.0)
        worse = fake_result("exp", breakdown={"exposed_comm": 0.1})
        store.put(worse, created_at=2.0)
        (report,) = store.regressions(
            "baseline", metrics=("breakdown.exposed_comm",), threshold=0.05)
        assert report.regressed


class TestRegressions:
    def test_throughput_drop_is_flagged(self, tmp_path):
        store = ResultStore(tmp_path)
        baseline = fake_result("exp", throughput=100.0)
        store.put(baseline, tags=["baseline"], created_at=1.0)
        regressed = fake_result("exp", throughput=80.0)
        store.put(regressed, created_at=2.0)
        reports = store.regressions("baseline", threshold=0.05)
        assert len(reports) == 1
        report = reports[0]
        assert report.regressed
        metrics = {r.delta.metric for r in report.regressed_metrics}
        assert "throughput" in metrics
        # Each regression is attributed to the system it belongs to.
        assert {r.system for r in report.regressed_metrics} == {"a", "b"}
        assert report.regressed_metrics[0].as_row()["system"] in ("a", "b")

    def test_improvement_is_not_flagged(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(fake_result("exp", throughput=100.0), tags=["baseline"],
                  created_at=1.0)
        store.put(fake_result("exp", throughput=120.0), created_at=2.0)
        (report,) = store.regressions("baseline")
        assert not report.regressed

    def test_higher_iteration_time_is_a_regression(self, tmp_path):
        store = ResultStore(tmp_path)
        slow = fake_result("exp")
        for system in slow.systems.values():
            system.mean_iteration_s = 1.0
        store.put(fake_result("exp"), tags=["baseline"], created_at=1.0)
        store.put(slow, created_at=2.0)
        (report,) = store.regressions(
            "baseline", metrics=("mean_iteration_s",), threshold=0.05)
        assert report.regressed

    def test_tag_helper_creates_comparable_copy(self, tmp_path):
        store = ResultStore(tmp_path)
        run = store.put(fake_result("exp"), created_at=1.0)
        tagged = store.tag(run.run_id, "baseline")
        assert tagged.run_id != run.run_id
        assert set(tagged.tags) == {"baseline"}
        assert len(store) == 2


class TestAutoCompaction:
    def test_line_threshold_folds_journal_on_put(self, tmp_path):
        store = ResultStore(tmp_path, auto_compact_lines=3,
                            auto_compact_bytes=None)
        for index in range(2):
            store.put(fake_result(f"exp-{index}"), created_at=float(index))
        assert len(store.journal_path.read_text().splitlines()) == 2
        assert not store.index_path.exists()
        store.put(fake_result("exp-2"), created_at=2.0)  # crosses 3 lines
        assert store.journal_path.read_text() == ""
        assert len(json.loads(store.index_path.read_text())["runs"]) == 3
        # The fold lost nothing and the next put journals again.
        store.put(fake_result("exp-3"), created_at=3.0)
        assert len(store.journal_path.read_text().splitlines()) == 1
        assert len(store) == 4

    def test_byte_threshold_folds_journal_on_put(self, tmp_path):
        store = ResultStore(tmp_path, auto_compact_lines=None,
                            auto_compact_bytes=1)  # any appended line trips it
        store.put(fake_result("exp-0"), created_at=0.0)
        assert store.journal_path.read_text() == ""
        assert len(json.loads(store.index_path.read_text())["runs"]) == 1

    def test_thresholds_disabled_by_default_values_of_none(self, tmp_path):
        store = ResultStore(tmp_path, auto_compact_lines=None,
                            auto_compact_bytes=None)
        for index in range(5):
            store.put(fake_result(f"exp-{index}"), created_at=float(index))
        assert len(store.journal_path.read_text().splitlines()) == 5
        assert not store.index_path.exists()

    def test_line_count_survives_a_foreign_append(self, tmp_path):
        """A second writer appending to the same journal invalidates the
        incremental line counter; the recount must see both writers."""
        ours = ResultStore(tmp_path, auto_compact_lines=3,
                           auto_compact_bytes=None)
        theirs = ResultStore(tmp_path)  # no auto-compaction
        ours.put(fake_result("ours-0"), created_at=0.0)
        theirs.put(fake_result("theirs-0"), created_at=1.0)
        ours.put(fake_result("ours-1"), created_at=2.0)  # 3rd line overall
        assert ours.journal_path.read_text() == ""
        assert len(json.loads(ours.index_path.read_text())["runs"]) == 3

    def test_explicit_compact_index_unchanged(self, tmp_path):
        """The escape hatches still work with auto-compaction armed."""
        store = ResultStore(tmp_path, auto_compact_lines=100)
        store.put(fake_result("exp-0"), created_at=0.0)
        assert store.compact_index() == 1
        assert store.journal_path.read_text() == ""
        assert store.rebuild_index() == 1


class TestIndexReadCache:
    def test_repeated_reads_hit_the_cache(self, tmp_path):
        store = ResultStore(tmp_path)
        run = store.put(fake_result("exp"), created_at=1.0)
        store.entries()  # first read populates
        before = store._index_cache_hits
        for _ in range(5):
            assert [e.run_id for e in store.entries()] == [run.run_id]
            assert store.index_entry(run.run_id).run_id == run.run_id
        assert store._index_cache_hits >= before + 10

    def test_own_put_invalidates(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(fake_result("exp-0"), created_at=0.0)
        store.entries()
        store.put(fake_result("exp-1"), created_at=1.0)
        assert len(store.entries()) == 2  # not served stale from cache

    def test_concurrent_writer_invalidates(self, tmp_path):
        """A run persisted by *another* process (second store instance on
        the same root) must show up: the cache key is the journal/index
        stat signature, not our write counter."""
        reader = ResultStore(tmp_path)
        writer = ResultStore(tmp_path)
        first = writer.put(fake_result("exp-0"), created_at=0.0)
        assert [e.run_id for e in reader.entries()] == [first.run_id]
        second = writer.put(fake_result("exp-1"), created_at=1.0)
        assert {e.run_id for e in reader.entries()} == {
            first.run_id, second.run_id}
        # A foreign compaction (journal folded into index.json) too.
        writer.compact_index()
        third = writer.put(fake_result("exp-2"), created_at=2.0)
        assert len(reader.entries()) == 3
        assert reader.index_entry(third.run_id) is not None

    def test_index_entry_missing_run_is_none(self, tmp_path):
        assert ResultStore(tmp_path).index_entry("nope") is None


class TestPruneAndQuarantine:
    def seeded(self, tmp_path):
        """Five runs with spaced timestamps; the oldest is baseline-tagged."""
        store = ResultStore(tmp_path)
        day = 86400.0
        store.put(fake_result("exp-0"), tags=("baseline",), created_at=0.0)
        for index in range(1, 5):
            store.put(fake_result(f"exp-{index}"), created_at=index * day)
        return store, day

    def test_prune_by_age_spares_protected_runs(self, tmp_path):
        store, day = self.seeded(tmp_path)
        deleted = store.prune(older_than_days=2.5, now=5 * day)
        # exp-1 and exp-2 are older than 2.5 days; baseline exp-0 survives.
        assert len(deleted) == 2
        names = {entry.name for entry in store.entries()}
        assert names == {"exp-0", "exp-3", "exp-4"}

    def test_prune_by_count_keeps_newest(self, tmp_path):
        store, day = self.seeded(tmp_path)
        deleted = store.prune(max_runs=2, now=5 * day)
        assert len(deleted) == 3
        assert {entry.name for entry in store.entries()} == \
            {"exp-0", "exp-4"}  # protected + the newest unprotected

    def test_prune_dry_run_deletes_nothing(self, tmp_path):
        store, day = self.seeded(tmp_path)
        doomed = store.prune(max_runs=2, now=5 * day, dry_run=True)
        assert len(doomed) == 3
        assert len(store) == 5

    def test_prune_compacts_the_index(self, tmp_path):
        store, day = self.seeded(tmp_path)
        store.prune(max_runs=3, now=5 * day)
        assert store.journal_path.read_text() == ""

    def test_prune_rejects_negative_bounds(self, tmp_path):
        store, day = self.seeded(tmp_path)
        for bound in ({"older_than_days": -1.0}, {"max_runs": -1}):
            with pytest.raises(ValueError, match="must be non-negative"):
                store.prune(now=5 * day, **bound)
        assert len(store) == 5

    def test_journal_skipped_lines_counts_garbage(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(fake_result("exp-0"), created_at=0.0)
        assert store.journal_skipped_lines() == 0
        with open(store.journal_path, "a") as handle:
            handle.write('{"torn": ')
        assert store.journal_skipped_lines() == 1
        assert len(store.entries()) == 1  # the good line still serves

    def test_quarantine_run_moves_file_and_writes_report(self, tmp_path):
        store = ResultStore(tmp_path)
        run = store.put(fake_result("exp-0"), created_at=0.0)
        store.run_path(run.run_id).write_text("{nope")
        moved = store.quarantine_run(run.run_id, error="torn write")
        assert moved == store.quarantine_dir / f"{run.run_id}.json"
        assert not store.run_path(run.run_id).exists()
        report = json.loads(
            (store.quarantine_dir
             / f"{run.run_id}.report.json").read_text())
        assert report["error"] == "torn write"
        assert store.quarantined() == [run.run_id]

    def test_rebuild_index_quarantines_unreadable_files(self, tmp_path):
        store = ResultStore(tmp_path)
        bad = store.put(fake_result("exp-0"), created_at=0.0)
        good = store.put(fake_result("exp-1"), created_at=1.0)
        store.run_path(bad.run_id).write_text("{nope")
        assert store.rebuild_index() == 1
        assert store.run_ids() == [good.run_id]
        assert store.quarantined() == [bad.run_id]

    def test_fixed_created_at_env_pins_timestamps(self, tmp_path,
                                                  monkeypatch):
        from repro.store import FIXED_CREATED_AT_ENV
        monkeypatch.setenv(FIXED_CREATED_AT_ENV, "1234.5")
        store = ResultStore(tmp_path)
        run = store.put(fake_result("exp-0"))
        assert store.index_entry(run.run_id).created_at == 1234.5
