"""Tests for the study subsystem (specs, registry, resumable runner)."""

import numpy as np
import pytest

from repro.api import ClusterSpec, ExperimentSpec, SystemSpec, WorkloadSpec
from repro.store import ResultStore, run_id_for
from repro.study import (
    StudyAxes,
    StudyRunner,
    StudySpec,
    available_studies,
    make_study,
    register_study,
    registered_study,
    run_study,
    study_descriptions,
    unregister_study,
)


def base_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        name="base",
        cluster=ClusterSpec(num_nodes=1, devices_per_node=4),
        workload=WorkloadSpec(tokens_per_device=1024, layers=1,
                              iterations=2, warmup=1, seed=3),
        systems=("fsdp_ep", "laer"),
        reference="fsdp_ep",
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def tiny_study(**axes) -> StudySpec:
    return StudySpec(name="tiny", base=base_spec(),
                     axes=StudyAxes(**axes))


class TestStudySpec:
    def test_empty_axes_give_a_single_base_cell(self):
        (cell,) = tiny_study().expand()
        assert cell.cell_id == "base"
        assert cell.spec.name == "tiny/base"
        assert cell.spec.cluster == base_spec().cluster

    def test_grid_is_the_cartesian_product(self):
        study = tiny_study(
            scenarios=("steady", "diurnal"),
            cluster_sizes=(1, 2),
        )
        assert study.num_cells == 4
        cells = study.expand()
        assert [c.cell_id for c in cells] == [
            "steady/n1x4", "steady/n2x4", "diurnal/n1x4", "diurnal/n2x4"]
        assert cells[1].spec.workload.scenario == "steady"
        assert cells[1].spec.cluster.num_nodes == 2
        assert cells[3].coords == {"scenario": "diurnal", "num_nodes": 2}

    def test_system_axis_accepts_names_and_specs(self):
        study = tiny_study(systems=(
            "laer",
            ("fsdp_ep", SystemSpec("laer", label="laer_raw",
                                   options={"comm_opt": False})),
        ))
        first, second = study.expand()
        assert first.spec.system_keys == ("laer",)
        assert second.spec.system_keys == ("fsdp_ep", "laer_raw")
        assert second.cell_id == "fsdp_ep+laer_raw"

    def test_scenario_params_axis(self):
        study = tiny_study(scenarios=("diurnal",),
                           scenario_params=({"period": 4}, {"period": 8}))
        cells = study.expand()
        assert [c.spec.workload.params for c in cells] == [
            {"period": 4}, {"period": 8}]
        assert cells[0].cell_id == "diurnal/period=4"

    def test_unknown_scenario_rejected_at_spec_time(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            tiny_study(scenarios=("no-such-scenario",))

    def test_invalid_cluster_sizes_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            tiny_study(cluster_sizes=(0,))
        with pytest.raises(ValueError, match="distinct"):
            tiny_study(cluster_sizes=(2, 2))

    def test_bad_param_combination_fails_at_expand_time(self):
        study = tiny_study(scenarios=("steady",),
                           scenario_params=({"period": 4},))
        with pytest.raises(ValueError, match="does not accept"):
            study.expand()

    def test_json_round_trip_is_lossless(self):
        study = StudySpec(
            name="rt",
            base=base_spec(),
            axes=StudyAxes(systems=(("fsdp_ep", "laer"),),
                           scenarios=("steady",),
                           scenario_params=({},),
                           cluster_sizes=(1, 2)),
            tags=("t1",),
            description="round trip",
        )
        assert StudySpec.from_json(study.to_json()) == study

    def test_save_and_load(self, tmp_path):
        study = tiny_study(cluster_sizes=(1, 2))
        path = study.save(tmp_path / "study.json")
        assert StudySpec.load(path) == study

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            StudySpec.from_dict({"name": "x", "bogus": 1})
        with pytest.raises(ValueError, match="unknown"):
            StudyAxes.from_dict({"sizes": [1]})


class TestRegistry:
    def test_builtins_registered(self):
        names = available_studies()
        assert "sweep-cluster-sizes" in names
        assert "sweep-scenarios" in names
        descriptions = study_descriptions()
        assert set(descriptions) == set(names)
        assert all(descriptions.values())

    def test_unknown_study_and_param_rejected(self):
        with pytest.raises(ValueError, match="unknown study"):
            registered_study("no-such-study")
        with pytest.raises(ValueError, match="does not accept"):
            make_study("sweep-cluster-sizes", bogus=1)

    def test_sweep_cluster_sizes_expands_table4_axis(self):
        study = make_study("sweep-cluster-sizes", sizes=[1, 2, 4],
                           devices_per_node=8)
        cells = study.expand()
        assert [c.spec.cluster.num_devices for c in cells] == [8, 16, 32]
        for cell in cells:
            assert cell.spec.system_keys == ("fsdp_ep", "laer")
            # Weak scaling: per-device budget constant across sizes.
            assert cell.spec.workload.tokens_per_device == \
                study.base.workload.tokens_per_device

    def test_sweep_scenarios_skips_scenarios_needing_params(self):
        study = make_study("sweep-scenarios")
        assert "trace-replay" not in study.axes.scenarios
        assert "drifting" in study.axes.scenarios
        assert "compose" in study.axes.scenarios

    def test_user_registered_study(self):
        @register_study("custom-tiny", description="registry test")
        def _build(sizes=(1,)):
            return StudySpec(name="custom-tiny", base=base_spec(),
                             axes=StudyAxes(cluster_sizes=tuple(sizes)))

        try:
            assert make_study("custom-tiny", sizes=[1, 2]).num_cells == 2
        finally:
            unregister_study("custom-tiny")
        with pytest.raises(ValueError, match="unknown study"):
            make_study("custom-tiny")


class TestStudyRunner:
    def run_tiny(self, store, **kwargs):
        study = tiny_study(cluster_sizes=(1, 2))
        return study, StudyRunner(store).run(study, **kwargs)

    def test_every_cell_is_persisted(self, tmp_path):
        store = ResultStore(tmp_path)
        study, report = self.run_tiny(store)
        assert len(report.cells) == 2
        assert len(report.executed) == 2 and not report.skipped
        for outcome in report.cells:
            result = store.get_result(outcome.run_id)
            assert result.spec.name == f"tiny/{outcome.cell_id}"
        entries = store.query(tag="study:tiny")
        assert len(entries) == 2

    def test_resume_skips_completed_cells(self, tmp_path):
        store = ResultStore(tmp_path)
        _, first = self.run_tiny(store)
        _, second = self.run_tiny(store)
        assert not second.executed
        assert len(second.skipped) == 2
        assert sorted(second.run_ids) == sorted(first.run_ids)

    def test_partial_resume_executes_only_missing_cells(self, tmp_path):
        store = ResultStore(tmp_path)
        study, first = self.run_tiny(store)
        store.delete(first.cells[0].run_id)
        _, second = self.run_tiny(store)
        assert [c.cell_id for c in second.executed] == \
            [first.cells[0].cell_id]
        assert [c.cell_id for c in second.skipped] == \
            [first.cells[1].cell_id]

    def test_store_write_failure_aborts_instead_of_sequential_rerun(
            self, tmp_path, monkeypatch):
        from repro.study import StudyStoreError

        store = ResultStore(tmp_path)

        def disk_full(result, tags=()):
            raise OSError("No space left on device")

        monkeypatch.setattr(store, "put", disk_full)
        with pytest.raises(StudyStoreError, match="No space left"):
            StudyRunner(store).run(
                tiny_study(cluster_sizes=(1,)))

    def test_failed_cell_keeps_completed_cells_in_the_store(self, tmp_path,
                                                            monkeypatch):
        import repro.api.runner as api_runner

        store = ResultStore(tmp_path)
        study = tiny_study(cluster_sizes=(1, 2))
        real_run = api_runner.ExperimentRunner.run
        calls = {"count": 0}

        def failing_second_cell(self, spec):
            calls["count"] += 1
            if calls["count"] == 2:
                raise ValueError("simulated mid-study failure")
            return real_run(self, spec)

        monkeypatch.setattr(api_runner.ExperimentRunner, "run",
                            failing_second_cell)
        with pytest.raises(ValueError, match="mid-study"):
            StudyRunner(store).run(study)
        monkeypatch.undo()
        # The first cell was persisted before the failure, so the re-run
        # resumes past it and only recomputes the failed cell.
        assert len(store) == 1
        report = StudyRunner(store).run(study)
        assert len(report.skipped) == 1 and len(report.executed) == 1

    def test_no_resume_re_executes(self, tmp_path):
        store = ResultStore(tmp_path)
        _, first = self.run_tiny(store)
        _, second = self.run_tiny(store, resume=False)
        assert len(second.executed) == 2

    def test_tags_are_part_of_run_identity(self, tmp_path):
        store = ResultStore(tmp_path)
        study = tiny_study(cluster_sizes=(1,))
        runner = StudyRunner(store)
        first = runner.run(study, tags=["v1"])
        second = runner.run(study, tags=["v2"])
        assert len(second.executed) == 1  # different tag set, no resume
        assert first.run_ids != second.run_ids
        assert store.query(tag="v1") and store.query(tag="v2")

    def test_stored_run_id_matches_content_hash(self, tmp_path):
        store = ResultStore(tmp_path)
        study = tiny_study(cluster_sizes=(1,))
        report = StudyRunner(store).run(study)
        (cell,) = study.expand()
        expected = run_id_for(
            cell.spec, StudyRunner(store).run_tags(study))
        assert report.run_ids == [expected]

    def test_systems_by_cluster_size_grid_persists_every_cell(self, tmp_path):
        # The acceptance shape: a systems x cluster-size grid where every
        # cell lands in the store and a re-run resumes through all of them.
        store = ResultStore(tmp_path)
        study = StudySpec(
            name="grid", base=base_spec(),
            axes=StudyAxes(systems=(("fsdp_ep",), ("fsdp_ep", "laer")),
                           cluster_sizes=(1, 2)))
        runner = StudyRunner(store)
        report = runner.run(study)
        assert len(report.executed) == 4
        assert {c.cell_id for c in report.cells} == {
            "fsdp_ep/n1x4", "fsdp_ep/n2x4",
            "fsdp_ep+laer/n1x4", "fsdp_ep+laer/n2x4"}
        for outcome in report.cells:
            assert outcome.run_id in store
        again = runner.run(study)
        assert not again.executed and len(again.skipped) == 4
        diff = store.diff(report.cells[0].run_id, report.cells[1].run_id)
        assert diff.find("fsdp_ep", "throughput") is not None

    def test_report_summary_mentions_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        _, report = self.run_tiny(store)
        summary = report.summary()
        assert "executed 2" in summary and "skipped 0" in summary


class TestRunStudyConvenience:
    def test_run_study_wrapper(self, tmp_path):
        store = ResultStore(tmp_path)
        report = run_study(tiny_study(cluster_sizes=(1,)), store)
        assert len(report.executed) == 1
        assert not run_study(tiny_study(cluster_sizes=(1,)), store).executed


class TestCellCorrectness:
    def test_cell_results_match_direct_experiment_run(self, tmp_path):
        from repro.api import ExperimentRunner

        store = ResultStore(tmp_path)
        study = tiny_study(cluster_sizes=(2,))
        report = StudyRunner(store).run(study)
        stored = store.get_result(report.run_ids[0])
        direct = ExperimentRunner().run(study.expand()[0].spec)
        assert stored.to_dict()["systems"] == direct.to_dict()["systems"]
        assert np.isclose(stored.systems["laer"].throughput,
                          direct.systems["laer"].throughput)
