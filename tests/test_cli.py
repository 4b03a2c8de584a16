"""Tests for the command-line interface."""

import argparse
import json
import shutil

import pytest

from repro.api import ExperimentResult, ExperimentSpec
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--model", "gpt-4"])

    def test_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.model == "mixtral-8x7b-e8k2"
        assert args.num_nodes == 4

    def test_every_command_dispatches_from_its_parser(self):
        """Every subcommand group is required and every leaf parser carries
        its handler, so each job has one spelling and one dispatch."""
        def walk(parser):
            groups = [action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction)]
            if not groups:
                assert callable(parser.get_default("func")), parser.prog
            for group in groups:
                assert group.required, parser.prog
                for child in group.choices.values():
                    walk(child)

        walk(build_parser())
        for retired in (["study", "ls", "--store", "s"],
                        ["study", "run", "sweep-cluster-sizes",
                         "--store", "s", "--workers", "2"],
                        ["trace", "--num-nodes", "1"]):
            with pytest.raises(SystemExit) as exited:
                main(retired)
            assert exited.value.code == 2, retired


class TestCommands:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "mixtral-8x7b-e8k2" in out
        assert "qwen-8x7b-e16k4" in out

    def test_trace_summary_and_save(self, tmp_path, capsys):
        output = tmp_path / "trace.npz"
        code = main(["trace", "routing", "--num-nodes", "1",
                     "--devices-per-node", "4",
                     "--tokens-per-device", "512", "--iterations", "3",
                     "--output", str(output)])
        assert code == 0
        assert output.exists()
        out = capsys.readouterr().out
        assert "Routing trace summary" in out

    def test_plan(self, capsys):
        code = main(["plan", "--num-nodes", "1", "--devices-per-node", "4",
                     "--tokens-per-device", "1024", "--iterations", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Planner vs static EP" in out
        assert "laer_rel_max_tokens" in out

    def test_compare_small(self, capsys):
        code = main(["compare", "--num-nodes", "1", "--devices-per-node", "4",
                     "--tokens-per-device", "2048", "--iterations", "3",
                     "--systems", "fsdp_ep", "laer", "--reference", "fsdp_ep"])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup_vs_fsdp_ep" in out
        assert "Time breakdown" in out

    def test_compare_warns_on_substituted_reference(self, capsys):
        code = main(["compare", "--num-nodes", "1", "--devices-per-node", "4",
                     "--tokens-per-device", "2048", "--iterations", "3",
                     "--systems", "fsdp_ep", "laer",
                     "--reference", "megatron"])
        assert code == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert "'megatron'" in captured.err
        assert "'fsdp_ep'" in captured.err
        assert "speedup_vs_fsdp_ep" in captured.out

    def test_systems(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        assert "laer_no_comm_opt" in out

    def test_scenarios_lists_builtins(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("steady", "drifting", "bursty-churn", "diurnal",
                     "phase-shift", "straggler", "multi-tenant-mix"):
            assert name in out

    def test_scenarios_verbose_lists_params(self, capsys):
        assert main(["scenarios", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "Parameters of scenario 'bursty-churn'" in out
        assert "Parameters of wrapper 'straggler'" in out
        assert "period" in out and "default" in out
        # trace-replay's path has no default -- flagged as required.
        assert "(required)" in out
        # The terse listing stays terse.
        assert main(["scenarios"]) == 0
        assert "Parameters of" not in capsys.readouterr().out

    def test_compare_with_scenario_and_params(self, capsys):
        code = main(["compare", "--num-nodes", "1", "--devices-per-node", "4",
                     "--tokens-per-device", "2048", "--iterations", "3",
                     "--systems", "fsdp_ep", "laer",
                     "--reference", "fsdp_ep",
                     "--scenario", "bursty-churn", "--param", "period=6"])
        assert code == 0
        assert "speedup_vs_fsdp_ep" in capsys.readouterr().out

    def test_unknown_scenario_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--scenario", "full-moon"])

    def test_bad_scenario_param_is_a_cli_error(self, capsys):
        code = main(["compare", "--num-nodes", "1", "--devices-per-node", "4",
                     "--tokens-per-device", "2048", "--iterations", "3",
                     "--systems", "laer", "--reference", "laer",
                     "--scenario", "steady", "--param", "bogus=1"])
        assert code == 2
        assert "does not accept parameter" in capsys.readouterr().err

    def test_bad_scenario_param_value_is_a_cli_error(self, capsys):
        """Value errors (not just name typos) get the clean error path."""
        code = main(["compare", "--num-nodes", "1", "--devices-per-node", "4",
                     "--tokens-per-device", "2048", "--iterations", "3",
                     "--systems", "laer", "--reference", "laer",
                     "--scenario", "bursty-churn", "--param", "period=1"])
        assert code == 2
        assert "period must be at least 2" in capsys.readouterr().err

    def test_bad_scenario_param_value_in_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        assert main(["run", "--num-nodes", "1", "--devices-per-node", "4",
                     "--tokens-per-device", "2048", "--iterations", "3",
                     "--systems", "laer", "--reference", "laer",
                     "--scenario", "straggler", "--dump-spec",
                     str(spec_path)]) == 0
        capsys.readouterr()
        text = spec_path.read_text().replace('"params": {}',
                                             '"params": {"duration": 99}')
        spec_path.write_text(text)
        assert main(["run", "--spec", str(spec_path)]) == 2
        assert "duration must be in" in capsys.readouterr().err

    def test_malformed_param_is_a_cli_error(self, capsys):
        code = main(["compare", "--num-nodes", "1", "--devices-per-node", "4",
                     "--tokens-per-device", "2048", "--iterations", "3",
                     "--systems", "laer", "--reference", "laer",
                     "--param", "no-equals-sign"])
        assert code == 2
        assert "expected KEY=VALUE" in capsys.readouterr().err

    def test_trace_reports_scenario(self, capsys):
        code = main(["trace", "routing", "--num-nodes", "1",
                     "--devices-per-node", "4",
                     "--tokens-per-device", "512", "--iterations", "3",
                     "--scenario", "diurnal"])
        assert code == 0
        assert "(diurnal)" in capsys.readouterr().out

    def test_plan_aggregates_all_layers(self, capsys):
        code = main(["plan", "--num-nodes", "1", "--devices-per-node", "4",
                     "--tokens-per-device", "1024", "--iterations", "3",
                     "--layers", "3"])
        assert code == 0
        assert "aggregated over 3 MoE layers" in capsys.readouterr().out


class TestRunCommand:
    ARGS = ["--num-nodes", "1", "--devices-per-node", "4",
            "--tokens-per-device", "2048", "--iterations", "3",
            "--systems", "fsdp_ep", "laer", "--reference", "fsdp_ep"]

    def test_dump_spec_and_run_match_compare(self, tmp_path, capsys):
        spec_path = tmp_path / "exp.json"
        assert main(["run", *self.ARGS, "--dump-spec", str(spec_path)]) == 0
        assert spec_path.exists()
        capsys.readouterr()

        assert main(["run", "--spec", str(spec_path)]) == 0
        run_out = capsys.readouterr().out
        assert main(["compare", *self.ARGS]) == 0
        compare_out = capsys.readouterr().out
        assert run_out == compare_out

    def test_dump_spec_to_stdout(self, capsys):
        assert main(["run", *self.ARGS, "--dump-spec", "-"]) == 0
        out = capsys.readouterr().out
        spec = ExperimentSpec.from_json(out)
        assert spec.system_keys == ("fsdp_ep", "laer")

    def test_dump_spec_carries_scenario_params(self, capsys):
        code = main(["run", *self.ARGS, "--scenario", "multi-tenant-mix",
                     "--param", "tenants=3", "--dump-spec", "-"])
        assert code == 0
        spec = ExperimentSpec.from_json(capsys.readouterr().out)
        assert spec.workload.scenario == "multi-tenant-mix"
        assert spec.workload.params == {"tenants": 3}

    def test_run_saves_result(self, tmp_path, capsys):
        result_path = tmp_path / "result.json"
        assert main(["run", *self.ARGS, "--output", str(result_path)]) == 0
        result = ExperimentResult.load(result_path)
        assert result.reference == "fsdp_ep"
        assert result.systems["laer"].throughput > 0


class TestStudyCommands:
    RUN_ARGS = ["study", "run", "sweep-cluster-sizes",
                "--param", "sizes=[1,2]", "--param", "devices_per_node=4",
                "--param", "tokens_per_device=1024",
                "--param", "iterations=2", "--param", "warmup=1"]

    def run_small_study(self, store):
        return main(self.RUN_ARGS + ["--store", str(store)])

    def test_studies_lists_builtins(self, capsys):
        assert main(["studies"]) == 0
        out = capsys.readouterr().out
        assert "sweep-cluster-sizes" in out
        assert "sweep-scenarios" in out

    def test_run_persists_and_resumes(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert self.run_small_study(store) == 0
        out = capsys.readouterr().out
        assert "executed 2, skipped 0" in out
        assert (store / "index.json").exists()
        assert len(list((store / "runs").glob("*.json"))) == 2
        # Second invocation resumes: every cell skipped, nothing recomputed.
        assert self.run_small_study(store) == 0
        out = capsys.readouterr().out
        assert "executed 0, skipped 2" in out

    def test_run_from_json_spec(self, tmp_path, capsys):
        from repro.study import make_study

        spec_path = tmp_path / "study.json"
        make_study("sweep-cluster-sizes", sizes=[1], devices_per_node=4,
                   tokens_per_device=1024, iterations=2,
                   warmup=1).save(spec_path)
        code = main(["study", "run", str(spec_path),
                     "--store", str(tmp_path / "store")])
        assert code == 0
        assert "executed 1" in capsys.readouterr().out

    def test_dump_spec(self, tmp_path, capsys):
        code = main(["study", "run", "sweep-cluster-sizes",
                     "--param", "sizes=[1,2]",
                     "--store", str(tmp_path / "unused"),
                     "--dump-spec", "-"])
        assert code == 0
        out = capsys.readouterr().out
        assert '"cluster_sizes"' in out
        from repro.study import StudySpec
        assert StudySpec.from_json(out).axes.cluster_sizes == (1, 2)

    def test_unknown_study_is_a_cli_error(self, tmp_path, capsys):
        code = main(["study", "run", "no-such-study",
                     "--store", str(tmp_path)])
        assert code == 2
        assert "unknown study" in capsys.readouterr().err

    def test_registered_name_wins_over_same_named_path(self, tmp_path,
                                                       capsys, monkeypatch):
        # A stray directory named like the study (e.g. a store created as
        # --store sweep-cluster-sizes) must not shadow the registry.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sweep-cluster-sizes").mkdir()
        assert self.run_small_study(tmp_path / "store") == 0
        assert "executed 2" in capsys.readouterr().out

    def test_ls_on_missing_store_is_a_cli_error(self, tmp_path, capsys):
        missing = tmp_path / "no-such-store"
        code = main(["store", "ls", "--store", str(missing)])
        assert code == 2
        assert "no result store" in capsys.readouterr().err
        assert not missing.exists()

    def test_ls_diff_and_report(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert self.run_small_study(store) == 0
        capsys.readouterr()

        assert main(["store", "ls", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "sweep-cluster-sizes/n1x4" in out
        run_ids = [line.split()[0] for line in out.splitlines()
                   if line.startswith("sweep-cluster-sizes-")]
        assert len(run_ids) == 2

        assert main(["store", "ls", "--store", str(store),
                     "--cluster-size", "8"]) == 0
        out = capsys.readouterr().out
        assert "n2x4" in out and "n1x4" not in out

        assert main(["study", "diff", "--store", str(store),
                     run_ids[0], run_ids[1]]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out and "rel_delta" in out

        report_path = tmp_path / "report.md"
        assert main(["study", "report", "--store", str(store),
                     "--study", "sweep-cluster-sizes",
                     "--output", str(report_path)]) == 0
        text = report_path.read_text()
        assert text.startswith("# Study report: sweep-cluster-sizes")
        assert "| run_id |" in text

    def test_report_includes_cluster_size_series(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert self.run_small_study(store) == 0  # sizes [1, 2] -> 4 and 8 GPUs
        capsys.readouterr()
        assert main(["study", "report", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "## Speedup vs cluster size" in out
        assert "| gpus |" in out
        series = [line for line in out.splitlines()
                  if line.startswith("| 4 ") or line.startswith("| 8 ")]
        assert len(series) == 2

    def test_diff_unknown_run_is_a_cli_error(self, tmp_path, capsys):
        code = main(["study", "diff", "--store", str(tmp_path),
                     "nope-a", "nope-b"])
        assert code == 2
        assert "no run" in capsys.readouterr().err

    def test_report_empty_store_is_a_cli_error(self, tmp_path, capsys):
        code = main(["study", "report", "--store", str(tmp_path)])
        assert code == 2
        assert "no stored runs" in capsys.readouterr().err

    def test_report_ands_study_and_tag_filters(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert self.run_small_study(store) == 0
        capsys.readouterr()
        # Both filters apply: the study tag matches but "other" does not.
        code = main(["study", "report", "--store", str(store),
                     "--study", "sweep-cluster-sizes", "--tag", "other"])
        assert code == 2
        err = capsys.readouterr().err
        assert "study:sweep-cluster-sizes" in err and "other" in err


class TestStudyGate:
    RUN_ARGS = TestStudyCommands.RUN_ARGS

    def seed_store(self, store):
        """A baseline-tagged run plus an identical untagged re-run."""
        assert main(self.RUN_ARGS + ["--store", str(store),
                                     "--tag", "baseline"]) == 0
        assert main(self.RUN_ARGS + ["--store", str(store)]) == 0

    def test_gate_passes_on_identical_reruns(self, tmp_path, capsys):
        store = tmp_path / "store"
        self.seed_store(store)
        capsys.readouterr()
        code = main(["study", "gate", "--store", str(store),
                     "--baseline", "baseline"])
        assert code == 0
        assert "gate: OK" in capsys.readouterr().out

    def test_gate_fails_on_regression(self, tmp_path, capsys):
        import json as json_module

        store_dir = tmp_path / "store"
        self.seed_store(store_dir)
        capsys.readouterr()
        # Degrade every non-baseline run's stored throughput by 50%.
        from repro.store import ResultStore

        store = ResultStore(store_dir)
        for entry in store.entries():
            if "baseline" in entry.tags:
                continue
            path = store.run_path(entry.run_id)
            payload = json_module.loads(path.read_text())
            for system in payload["result"]["systems"].values():
                system["throughput"] *= 0.5
            path.write_text(json_module.dumps(payload))
        store.rebuild_index()
        code = main(["study", "gate", "--store", str(store_dir),
                     "--baseline", "baseline"])
        out = capsys.readouterr().out
        assert code == 1
        assert "gate: FAIL" in out and "throughput" in out
        # The FAIL table attributes each regression to its run pair.
        assert "baseline_run" in out and "candidate_run" in out
        assert "sweep-cluster-sizes-" in out

    def test_gate_without_baseline_runs_is_a_cli_error(self, tmp_path,
                                                       capsys):
        store = tmp_path / "store"
        assert main(self.RUN_ARGS + ["--store", str(store)]) == 0
        capsys.readouterr()
        code = main(["study", "gate", "--store", str(store),
                     "--baseline", "baseline"])
        assert code == 2
        assert "no baseline-tagged runs" in capsys.readouterr().err

    def test_gate_on_missing_store_is_a_cli_error(self, tmp_path, capsys):
        code = main(["study", "gate", "--store", str(tmp_path / "nope"),
                     "--baseline", "baseline"])
        assert code == 2
        assert "no result store" in capsys.readouterr().err

    def test_gate_rejects_unknown_metric(self, tmp_path, capsys):
        """A typo'd --metric must be an error, not a vacuous 'gate: OK'."""
        store = tmp_path / "store"
        self.seed_store(store)
        capsys.readouterr()
        code = main(["study", "gate", "--store", str(store),
                     "--baseline", "baseline",
                     "--metric", "thruoghput"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown gate metric" in err and "thruoghput" in err
        # breakdown.* components are legitimate gate metrics.
        code = main(["study", "gate", "--store", str(store),
                     "--baseline", "baseline",
                     "--metric", "breakdown.expert_compute"])
        assert code == 0
        capsys.readouterr()
        # ...but only when they exist in the compared runs: a typo'd
        # component must not vacuously pass either.
        code = main(["study", "gate", "--store", str(store),
                     "--baseline", "baseline",
                     "--metric", "breakdown.expert_compupe"])
        assert code == 2
        err = capsys.readouterr().err
        assert "appear in none" in err and "expert_compupe" in err


class TestFleetCommands:
    RUN_ARGS = ["fleet", "run", "sweep-cluster-sizes",
                "--param", "sizes=[1,2]", "--param", "devices_per_node=4",
                "--param", "tokens_per_device=1024",
                "--param", "iterations=2", "--param", "warmup=1",
                "--workers", "2", "--quiet"]

    def test_fleet_run_executes_and_resumes(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(self.RUN_ARGS + ["--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "executed 2" in out and "failed 0" in out
        assert "2 workers" in out
        assert (store / "index.json").exists()
        assert (store / "index.journal").read_text() == ""
        assert len(list((store / "runs").glob("*.json"))) == 2
        # Re-running resumes every cell.
        assert main(self.RUN_ARGS + ["--store", str(store)]) == 0
        assert "skipped 2" in capsys.readouterr().out

    def test_fleet_resumes_past_study_run(self, tmp_path, capsys):
        """'repro study run' then 'repro fleet run' share run identity."""
        store = tmp_path / "store"
        assert main(TestStudyCommands.RUN_ARGS + ["--store", str(store)]) == 0
        capsys.readouterr()
        assert main(self.RUN_ARGS + ["--store", str(store)]) == 0
        assert "executed 0, skipped 2" in capsys.readouterr().out

    def test_fleet_status_and_workers(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(self.RUN_ARGS + ["--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["fleet", "status", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "finished" in out and "sweep-cluster-sizes" in out
        assert main(["fleet", "workers", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "worker-" in out

    def test_fleet_status_on_missing_store_is_a_cli_error(self, tmp_path,
                                                          capsys):
        code = main(["fleet", "status", "--store", str(tmp_path / "nope")])
        assert code == 2
        assert "no result store" in capsys.readouterr().err

    def test_fleet_status_accepts_queue_without_store(self, tmp_path,
                                                      capsys):
        store = tmp_path / "store"
        assert main(self.RUN_ARGS + ["--store", str(store)]) == 0
        capsys.readouterr()
        (queue_dir,) = sorted((store / "queue").iterdir())
        assert main(["fleet", "status", "--queue", str(queue_dir)]) == 0
        assert "finished" in capsys.readouterr().out
        # Neither flag is a usage error, not a crash.
        assert main(["fleet", "status"]) == 2
        assert "pass --store" in capsys.readouterr().err

    def test_fleet_run_zero_workers_is_a_cli_error(self, tmp_path, capsys):
        code = main(["fleet", "run", "sweep-cluster-sizes",
                     "--store", str(tmp_path), "--workers", "0"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err


class TestOverflowFlags:
    ARGS = ["--num-nodes", "1", "--devices-per-node", "4",
            "--tokens-per-device", "1024", "--iterations", "3",
            "--systems", "fsdp_ep", "--reference", "fsdp_ep",
            "--scenario", "bursty-churn", "--param", "period=4"]

    def test_overflow_flags_reach_the_spec(self, capsys):
        code = main(["run", *self.ARGS, "--overflow-penalty", "1.0",
                     "--token-capacity", "1024", "--dump-spec", "-"])
        assert code == 0
        spec = ExperimentSpec.from_json(capsys.readouterr().out)
        assert spec.overflow_penalty == 1.0
        assert spec.token_capacity == 1024

    def test_overflow_penalty_changes_the_report(self, capsys):
        assert main(["compare", *self.ARGS]) == 0
        plain = capsys.readouterr().out
        assert main(["compare", *self.ARGS, "--overflow-penalty", "1.0",
                     "--token-capacity", "1024"]) == 0
        charged = capsys.readouterr().out
        assert charged != plain

    def test_drop_policy_reaches_the_spec(self, capsys):
        code = main(["run", *self.ARGS, "--drop-policy", "truncate",
                     "--token-capacity", "1024", "--dump-spec", "-"])
        assert code == 0
        spec = ExperimentSpec.from_json(capsys.readouterr().out)
        assert spec.drop_policy == "truncate"

    def test_default_drop_policy_stays_out_of_the_spec(self, capsys):
        # The default policy is omitted from the canonical JSON so that the
        # content-hashed run ids of pre-existing specs are unchanged.
        code = main(["run", *self.ARGS, "--dump-spec", "-"])
        assert code == 0
        assert '"drop_policy"' not in capsys.readouterr().out

    def test_unknown_drop_policy_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--drop-policy", "discard"])

    def test_drop_policy_changes_the_report(self, capsys):
        capped = ["--overflow-penalty", "1.0", "--token-capacity", "1024"]
        assert main(["compare", *self.ARGS, *capped]) == 0
        penalty = capsys.readouterr().out
        assert main(["compare", *self.ARGS, *capped,
                     "--drop-policy", "truncate"]) == 0
        truncated = capsys.readouterr().out
        assert truncated != penalty

    @staticmethod
    def breakdown_rows(out):
        """Header and rows of the printed time-breakdown table."""
        lines = out.splitlines()
        start = next(i for i, line in enumerate(lines)
                     if "iteration_s" in line)
        header = [cell.strip() for cell in lines[start].split("|")]
        rows = [dict(zip(header, (cell.strip() for cell in line.split("|"))))
                for line in lines[start + 2:] if "|" in line]
        return header, rows

    def test_breakdown_shares_include_the_overflow_bucket(self, capsys):
        assert main(["compare", *self.ARGS, "--overflow-penalty", "1.0",
                     "--token-capacity", "1024"]) == 0
        _, rows = self.breakdown_rows(capsys.readouterr().out)
        for row in rows:
            shares = sum(float(value) for key, value in row.items()
                         if key.endswith("_pct"))
            assert shares == pytest.approx(100.0, abs=0.5)
        assert float(rows[0]["overflow_pct"]) > 0.0
        # Without the overflow model the table keeps its old columns.
        assert main(["compare", *self.ARGS]) == 0
        header, _ = self.breakdown_rows(capsys.readouterr().out)
        assert "overflow_pct" not in header


class TestStoreCommands:
    def _populate(self, store):
        assert main(TestStudyCommands.RUN_ARGS + ["--store", str(store)]) == 0

    def test_store_ls_lists_runs(self, tmp_path, capsys):
        store = tmp_path / "store"
        self._populate(store)
        capsys.readouterr()
        assert main(["store", "ls", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "sweep-cluster-sizes" in out
        # The study filters work unchanged under the store group.
        assert main(["store", "ls", "--store", str(store),
                     "--cluster-size", "4"]) == 0
        assert main(["store", "ls", "--store", str(store),
                     "--name", "no-such-study*"]) == 0
        assert "(empty)" in capsys.readouterr().out

    def test_store_compact_then_rebuild(self, tmp_path, capsys):
        store = tmp_path / "store"
        self._populate(store)
        capsys.readouterr()
        assert main(["store", "compact", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "journal folded" in out
        assert (store / "index.journal").read_text() == ""
        assert main(["store", "rebuild", "--store", str(store)]) == 0
        assert "2 run(s) indexed" in capsys.readouterr().out

    def test_store_commands_on_missing_store_exit_2(self, tmp_path, capsys):
        for sub in ("ls", "compact", "rebuild"):
            assert main(["store", sub,
                         "--store", str(tmp_path / "nope")]) == 2
            assert "no result store" in capsys.readouterr().err


class TestServeSubmitCommands:
    SPEC_ARGS = ["--num-nodes", "1", "--devices-per-node", "4",
                 "--tokens-per-device", "1024", "--iterations", "2",
                 "--warmup", "1", "--systems", "laer", "--reference", "laer",
                 "--name", "cli-serve-test"]

    def test_submit_against_live_daemon(self, tmp_path, capsys):
        from repro.serve import ReproServer

        with ReproServer(tmp_path / "store", port=0) as server:
            address = ["--address", server.address]
            assert main(["submit", *address, *self.SPEC_ARGS]) == 0
            assert "cache=miss" in capsys.readouterr().out
            assert main(["submit", *address, *self.SPEC_ARGS,
                         "--tag", "other"]) == 0
            assert "cache=hit" in capsys.readouterr().out
            assert main(["submit", *address, "--status"]) == 0
            assert '"repro-serve"' in capsys.readouterr().out
        assert len(list((tmp_path / "store" / "runs").glob("*.json"))) == 1

    def test_submit_unreachable_daemon_exits_2(self, capsys):
        code = main(["submit", "--address", "127.0.0.1:1",
                     *self.SPEC_ARGS])
        assert code == 2
        assert "unreachable" in capsys.readouterr().err

    def test_submit_bad_spec_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        code = main(["submit", "--address", "127.0.0.1:1",
                     "--spec", str(bad)])
        assert code == 2
        assert "cannot load spec" in capsys.readouterr().err


class TestSuiteCommands:
    def write_tiny_suite(self, tmp_path):
        from repro.suite import SuiteMember, SuiteSpec

        suite = SuiteSpec(
            name="tiny", tokens_per_device=512, iterations=4, warmup=1,
            members=(
                SuiteMember(name="skewed", scenario="steady", seed=3,
                            skew=0.15),
                SuiteMember(name="drifty", scenario="drifting", seed=4),
            ))
        return suite, suite.save(tmp_path / "tiny.json")

    def test_make_writes_the_default_suite(self, tmp_path, capsys):
        from repro.suite import SuiteSpec, default_suite

        out_path = tmp_path / "default.json"
        assert main(["suite", "make", "--output", str(out_path)]) == 0
        assert default_suite().suite_id in capsys.readouterr().out
        assert SuiteSpec.load(out_path) == default_suite()
        # Without --output the JSON goes to stdout.
        assert main(["suite", "make"]) == 0
        assert '"members"' in capsys.readouterr().out

    def test_ls_lists_members(self, tmp_path, capsys):
        suite, path = self.write_tiny_suite(tmp_path)
        assert main(["suite", "ls", str(path)]) == 0
        out = capsys.readouterr().out
        assert suite.suite_id in out
        assert "skewed" in out and "drifty" in out

    def test_ls_missing_suite_is_a_cli_error(self, tmp_path, capsys):
        code = main(["suite", "ls", str(tmp_path / "nope.json")])
        assert code == 2
        assert "cannot load suite" in capsys.readouterr().err

    def test_characterize_renders_coverage(self, tmp_path, capsys):
        _, path = self.write_tiny_suite(tmp_path)
        assert main(["suite", "characterize", str(path),
                     "--devices-per-node", "4"]) == 0
        out = capsys.readouterr().out
        assert "## Member workload metrics" in out
        assert "## Coverage: metric spread" in out
        assert "imbalance_p50" in out

    def test_report_from_saved_characterization(self, tmp_path, capsys):
        _, path = self.write_tiny_suite(tmp_path)
        ch_path = tmp_path / "ch.json"
        assert main(["suite", "characterize", str(path),
                     "--devices-per-node", "4",
                     "--output", str(ch_path)]) == 0
        report_path = tmp_path / "report.md"
        assert main(["suite", "report", str(path),
                     "--characterization", str(ch_path),
                     "--output", str(report_path)]) == 0
        text = report_path.read_text()
        assert text.startswith("# Suite report: tiny v1")
        assert "## Coverage: nearest neighbors" in text

    def test_report_rejects_mismatched_characterization(self, tmp_path,
                                                        capsys):
        _, path = self.write_tiny_suite(tmp_path)
        ch_path = tmp_path / "ch.json"
        assert main(["suite", "characterize", str(path),
                     "--devices-per-node", "4",
                     "--output", str(ch_path)]) == 0
        assert main(["suite", "make", "--output",
                     str(tmp_path / "default.json")]) == 0
        capsys.readouterr()
        code = main(["suite", "report", str(tmp_path / "default.json"),
                     "--characterization", str(ch_path)])
        assert code == 2
        assert "is for suite" in capsys.readouterr().err

    def test_search_runs_resumes_and_graduates(self, tmp_path, capsys):
        _, path = self.write_tiny_suite(tmp_path)
        store = tmp_path / "store"
        args = ["suite", "search", str(path), "--store", str(store),
                "--target", "static_ep", "--budget", "3", "--seed", "1",
                "--quiet"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "simulated 3, cached 0" in out
        assert "winner regret" in out
        # Same store, same seed: the rerun replays from the store.
        next_path = tmp_path / "tiny-v2.json"
        assert main(args + ["--graduate", str(next_path)]) == 0
        out = capsys.readouterr().out
        assert "simulated 0, cached 3" in out
        assert "Graduated winner into tiny-v2-" in out
        from repro.suite import SuiteSpec

        graduated = SuiteSpec.load(next_path)
        assert graduated.version == 2
        assert len(graduated.members) == 3

    def test_search_rejects_bad_budget(self, tmp_path, capsys):
        _, path = self.write_tiny_suite(tmp_path)
        code = main(["suite", "search", str(path),
                     "--store", str(tmp_path / "store"), "--budget", "0"])
        assert code == 2
        assert "--budget" in capsys.readouterr().err


class TestChaosCommands:
    def test_chaos_plans_lists_builtins(self, capsys):
        assert main(["chaos", "plans"]) == 0
        out = capsys.readouterr().out
        assert "worker-crash" in out
        assert "serve-degradation" in out

    def test_chaos_points_lists_registry(self, capsys):
        assert main(["chaos", "points"]) == 0
        out = capsys.readouterr().out
        assert "queue.post-claim" in out
        assert "store.mid-journal-line" in out

    def test_chaos_run_torn_journal_quick(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        report_path = tmp_path / "report.json"
        code = main(["chaos", "run", "--plan", "torn-journal", "--quick",
                     "--store", str(tmp_path / "scratch"),
                     "--report", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "invariants: ok" in out
        assert "chaos result: PASS" in out
        assert report_path.exists()

    def test_chaos_run_refuses_foreign_directory(self, tmp_path, capsys):
        victim = tmp_path / "precious"
        victim.mkdir()
        (victim / "data.txt").write_text("keep me")
        code = main(["chaos", "run", "--plan", "torn-journal",
                     "--store", str(victim)])
        assert code == 2
        assert "refusing to wipe" in capsys.readouterr().err
        assert (victim / "data.txt").exists()


class TestStorePruneCommand:
    def test_prune_requires_a_bound(self, tmp_path, capsys):
        assert main(["store", "prune", "--store", str(tmp_path)]) == 2
        assert "--older-than" in capsys.readouterr().err

    def test_prune_and_dry_run(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(TestStudyCommands.RUN_ARGS
                    + ["--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["store", "prune", "--store", str(store),
                     "--max-runs", "1", "--dry-run"]) == 0
        assert "would delete 1 run(s)" in capsys.readouterr().out
        assert main(["store", "prune", "--store", str(store),
                     "--max-runs", "1"]) == 0
        assert "pruned 1 run(s)" in capsys.readouterr().out
        assert main(["store", "ls", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "quarantine: 0 run(s)" in out  # the new ls counters line


class TestSubmitRetryFlags:
    def test_retries_flag_builds_a_policy_and_still_fails_cleanly(
            self, capsys):
        code = main(["submit", "--address", "127.0.0.1:1", "--status",
                     "--retries", "1", "--retry-deadline", "0.2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unreachable" in err


class TestCalibCommands:
    def _measure(self, tmp_path, capsys, extra=()):
        code = main(["calib", "measure", "--output", str(tmp_path / "obs"),
                     "--num-nodes", "2", "--devices-per-node", "4",
                     "--seed", "3", "--tiny", *extra])
        assert code == 0
        out = capsys.readouterr().out
        assert "observations in" in out
        return tmp_path / "obs"

    def test_measure_writes_csvs_and_ground_truth(self, tmp_path, capsys):
        obs = self._measure(tmp_path, capsys)
        for name in ("comm.csv", "compute.csv", "all_to_all.csv",
                     "meta.json", "ground_truth.json"):
            assert (obs / name).exists()

    def test_measure_rejects_linkless_cluster(self, tmp_path, capsys):
        code = main(["calib", "measure", "--output", str(tmp_path / "obs"),
                     "--num-nodes", "1", "--devices-per-node", "1"])
        assert code == 2

    def test_fit_recovers_and_saves_profile(self, tmp_path, capsys):
        obs = self._measure(tmp_path, capsys)
        profile_path = tmp_path / "profile.json"
        code = main(["calib", "fit", "--observations", str(obs),
                     "--output", str(profile_path), "--min-r2", "0.99"])
        assert code == 0
        out = capsys.readouterr().out
        assert "calib fit: ok" in out
        assert "r2_min=1.0000" in out
        assert profile_path.exists()
        from repro.calib import CalibrationProfile
        fitted = CalibrationProfile.load(profile_path)
        truth = CalibrationProfile.load(obs / "ground_truth.json")
        assert fitted.flops_scale == pytest.approx(truth.flops_scale,
                                                   rel=1e-9)
        assert fitted.comm_bytes_scale == pytest.approx(
            truth.comm_bytes_scale, rel=1e-9)

    def test_fit_gate_trips_on_impossible_floor(self, tmp_path, capsys):
        obs = self._measure(tmp_path, capsys, extra=("--noise", "0.3"))
        code = main(["calib", "fit", "--observations", str(obs),
                     "--min-r2", "0.9999999"])
        assert code == 1
        assert "FIT GATE FAILED" in capsys.readouterr().err

    def test_fit_gate_trips_on_an_undefined_r2(self, tmp_path, capsys):
        """An observation directory with one All-to-All size cannot pass
        ``--min-r2``, whatever byte scale the fit lands on."""
        obs = self._measure(tmp_path, capsys)
        rows = (obs / "all_to_all.csv").read_text().splitlines()
        (obs / "all_to_all.csv").write_text("\n".join(rows[:2]) + "\n")
        code = main(["calib", "fit", "--observations", str(obs),
                     "--min-r2", "0.99"])
        assert code == 1
        captured = capsys.readouterr()
        assert "calib fit: poor" in captured.out
        assert "FIT GATE FAILED: r2_min nan" in captured.err

    def test_fit_refuses_stale_synthetic_observations(self, tmp_path, capsys):
        obs = self._measure(tmp_path, capsys)
        meta = json.loads((obs / "meta.json").read_text())
        meta.pop("all_to_all_price", None)
        (obs / "meta.json").write_text(json.dumps(meta))
        code = main(["calib", "fit", "--observations", str(obs)])
        assert code == 2
        assert "repro calib measure" in capsys.readouterr().err

    def test_fit_missing_observations_is_usage_error(self, tmp_path, capsys):
        code = main(["calib", "fit", "--observations",
                     str(tmp_path / "nowhere")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_report(self, tmp_path, capsys):
        obs = self._measure(tmp_path, capsys)
        report_path = tmp_path / "report.md"
        code = main(["calib", "report", "--observations", str(obs),
                     "--output", str(report_path)])
        assert code == 0
        text = report_path.read_text()
        assert "Fitted profile" in text
        assert "Worst-fit links" in text

    def test_apply_embeds_profile_in_spec(self, tmp_path, capsys):
        obs = self._measure(tmp_path, capsys)
        profile_path = tmp_path / "profile.json"
        assert main(["calib", "fit", "--observations", str(obs),
                     "--output", str(profile_path)]) == 0
        spec_path = tmp_path / "exp.json"
        assert main(["run", "--scenario", "steady", "--iterations", "2",
                     "--num-nodes", "1", "--devices-per-node", "4",
                     "--tokens-per-device", "512",
                     "--dump-spec", str(spec_path)]) == 0
        out_path = tmp_path / "exp_cal.json"
        code = main(["calib", "apply", "--profile", str(profile_path),
                     "--spec", str(spec_path), "--output", str(out_path)])
        assert code == 0
        spec = ExperimentSpec.load(out_path)
        assert spec.calibration is not None
        from repro.calib import CalibrationProfile
        assert spec.calibration == CalibrationProfile.load(profile_path)


class TestScenarioRobustnessSection:
    def _store_with_scenarios(self, tmp_path):
        from repro.api.specs import ClusterSpec, WorkloadSpec
        from repro.api.runner import SystemResult
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store")
        # laer wins everywhere; static_ep collapses only under 'bursty':
        # expect zero spread for laer and a wide one for static_ep.
        throughputs = {"steady": {"laer": 200.0, "static_ep": 180.0},
                       "straggler": {"laer": 200.0, "static_ep": 100.0}}
        for scenario, by_system in throughputs.items():
            spec = ExperimentSpec(
                name=f"robust-{scenario}",
                cluster=ClusterSpec(num_nodes=1, devices_per_node=4),
                workload=WorkloadSpec(tokens_per_device=512, layers=1,
                                      iterations=2, scenario=scenario),
                systems=tuple(by_system),
                reference="laer")
            systems = {
                key: SystemResult(
                    key=key, system=key, throughput=value,
                    mean_iteration_s=0.5, tokens_per_iteration=2048,
                    speedup_vs_reference=value / by_system["laer"],
                    breakdown_s={"expert_compute": 0.25})
                for key, value in by_system.items()}
            store.put(ExperimentResult(
                spec=spec, reference="laer", requested_reference="laer",
                systems=systems, execution_mode="sequential"),
                tags=("study:robust",))
        return store

    def test_section_reports_regret_spread(self, tmp_path, capsys):
        store = self._store_with_scenarios(tmp_path)
        code = main(["study", "report", "--store", str(store.root),
                     "--study", "robust"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Scenario robustness" in out
        laer_row = next(line for line in out.splitlines()
                        if line.startswith("| laer"))
        static_row = next(line for line in out.splitlines()
                          if line.startswith("| static_ep"))
        # laer is the per-run best in both scenarios: zero regret, zero
        # spread.  static_ep: 11.1% regret on steady, 100% on straggler.
        assert "0.0%" in laer_row
        assert "11.1%" in static_row and "100.0%" in static_row
        assert "straggler" in static_row

    def test_section_needs_two_scenarios(self, tmp_path, capsys):
        store = self._store_with_scenarios(tmp_path)
        # Report only the steady runs: one scenario -> no spread to show.
        steady = [e for e in store.entries() if e.scenario == "steady"]
        assert len(steady) == 1
        code = main(["study", "report", "--store", str(store.root),
                     "--tag", "study:robust", "--output",
                     str(tmp_path / "full.md")])
        assert code == 0
        capsys.readouterr()
        single = tmp_path / "single-store"
        import shutil
        shutil.copytree(store.root, single)
        from repro.store import ResultStore
        trimmed = ResultStore(single)
        for entry in trimmed.entries():
            if entry.scenario != "steady":
                trimmed.delete(entry.run_id)
        code = main(["study", "report", "--store", str(single)])
        assert code == 0
        assert "Scenario robustness" not in capsys.readouterr().out


#: Every command that writes a file, as ``(argv builder, what it writes)``.
#: Each builder takes the readable inputs (see ``writer_inputs``) and an
#: output path that cannot be written.
SMALL_RUN = ["--num-nodes", "1", "--devices-per-node", "4",
             "--tokens-per-device", "512", "--iterations", "2"]
WRITERS = {
    "trace --output": (
        lambda inp, out: ["trace", "routing", *SMALL_RUN, "--output", out],
        "trace"),
    "trace export --output": (
        lambda inp, out: ["trace", "export", "--dir", inp["trace"],
                          "--output", out], "Chrome trace"),
    "run --dump-spec": (
        lambda inp, out: ["run", *SMALL_RUN, "--dump-spec", out], "spec"),
    "run --output": (
        lambda inp, out: ["run", "--spec", inp["spec"], "--output", out],
        "result"),
    "study run --dump-spec": (
        lambda inp, out: ["study", "run", "sweep-cluster-sizes",
                          "--store", inp["store"], "--dump-spec", out],
        "study spec"),
    "study report --output": (
        lambda inp, out: ["study", "report", "--store", inp["store"],
                          "--output", out], "report"),
    "suite make --output": (
        lambda inp, out: ["suite", "make", "--output", out], "suite"),
    "suite characterize --output": (
        lambda inp, out: ["suite", "characterize", inp["suite"],
                          "--devices-per-node", "4", "--output", out],
        "characterization"),
    "suite report --output": (
        lambda inp, out: ["suite", "report", inp["suite"],
                          "--devices-per-node", "4", "--output", out],
        "report"),
    "suite search --graduate": (
        lambda inp, out: ["suite", "search", inp["suite"],
                          "--store", inp["store"], "--target", "static_ep",
                          "--budget", "1", "--quiet", "--graduate", out],
        "graduated suite"),
    "chaos run --report": (
        lambda inp, out: ["chaos", "run", "--plan", "torn-journal", "--quick",
                          "--store", inp["chaos"], "--report", out],
        "chaos report"),
    "calib measure --output": (
        lambda inp, out: ["calib", "measure", "--output", out, "--tiny"],
        "observations"),
    "calib fit --output": (
        lambda inp, out: ["calib", "fit", "--observations", inp["obs"],
                          "--output", out], "profile"),
    "calib report --output": (
        lambda inp, out: ["calib", "report", "--observations", inp["obs"],
                          "--output", out], "report"),
    "calib apply --output": (
        lambda inp, out: ["calib", "apply", "--profile", inp["profile"],
                          "--spec", inp["spec"], "--output", out],
        "calibrated spec"),
}


@pytest.fixture(scope="module")
def writer_inputs(tmp_path_factory):
    """Readable inputs for the ``WRITERS``: a spec, a store holding one run,
    a recorded trace, a tiny suite, calibration observations and a profile."""
    from repro.suite import SuiteMember, SuiteSpec

    root = tmp_path_factory.mktemp("writers")
    inputs = {name: str(root / name) for name in
              ("spec", "store", "trace", "suite", "obs", "profile", "chaos")}
    SuiteSpec(name="tiny", tokens_per_device=512, iterations=4, warmup=1,
              members=(SuiteMember(name="steady", scenario="steady",
                                   seed=3),)).save(inputs["suite"])
    for argv in (
            ["run", *SMALL_RUN, "--dump-spec", inputs["spec"]],
            ["study", "run", "sweep-cluster-sizes", "--store",
             inputs["store"], "--param", "sizes=[1]",
             "--param", "devices_per_node=4",
             "--param", "tokens_per_device=512",
             "--param", "iterations=2", "--param", "warmup=1"],
            ["trace", "record", "--dir", inputs["trace"], "--", "models"],
            ["calib", "measure", "--output", inputs["obs"], "--tiny"],
            ["calib", "fit", "--observations", inputs["obs"],
             "--output", inputs["profile"]]):
        assert main(argv) == 0, argv
    return inputs


@pytest.mark.parametrize("writer", list(WRITERS))
def test_unwritable_output_path_exits_2(writer, writer_inputs, tmp_path,
                                        capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    out = str(blocker / "out")  # a path under a regular file
    build, what = WRITERS[writer]
    capsys.readouterr()
    assert main(build(writer_inputs, out)) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {what} to {out!r}: " in err
    assert "Traceback" not in err


#: Out-of-range numeric flags, keyed by ``command --flag``.  Each entry
#: maps the ``writer_inputs`` (with a private copy of the store under
#: ``store`` and a fresh directory under ``out``) to an argv.
OUT_OF_RANGE = {
    "serve --max-workers": lambda inp: [
        "serve", "--store", inp["store"], "--executor", "fleet",
        "--stuck-timeout", "5", "--max-workers", "0"],
    "fleet watch --interval": lambda inp: [
        "fleet", "watch", "--store", inp["store"], "--interval", "-1"],
    "fleet run --lease-timeout": lambda inp: [
        "fleet", "run", "sweep-cluster-sizes", "--store", inp["store"],
        "--lease-timeout", "-1"],
    "calib measure --noise": lambda inp: [
        "calib", "measure", "--output", inp["out"], "--tiny",
        "--noise", "-0.5"],
    "suite characterize --num-nodes": lambda inp: [
        "suite", "characterize", inp["suite"], "--num-nodes", "0"],
    "suite report --num-nodes": lambda inp: [
        "suite", "report", inp["suite"], "--num-nodes", "0"],
    "suite search --num-nodes": lambda inp: [
        "suite", "search", inp["suite"], "--store", inp["store"],
        "--num-nodes", "0", "--budget", "1", "--quiet"],
    "store prune --older-than": lambda inp: [
        "store", "prune", "--store", inp["store"], "--older-than", "-1"],
    "store prune --max-runs": lambda inp: [
        "store", "prune", "--store", inp["store"], "--max-runs", "-1"],
}


@pytest.mark.parametrize("case", list(OUT_OF_RANGE))
def test_out_of_range_flag_exits_2(case, writer_inputs, tmp_path, capsys):
    """A usage error names the flag and exits 2 -- and deletes no run."""
    store = tmp_path / "store"
    shutil.copytree(writer_inputs["store"], store)
    runs = sorted((store / "runs").iterdir())
    inputs = {**writer_inputs, "store": str(store),
              "out": str(tmp_path / "out")}
    capsys.readouterr()
    assert main(OUT_OF_RANGE[case](inputs)) == 2
    flag = case.split()[-1]
    assert f"error: {flag} must be " in capsys.readouterr().err
    assert sorted((store / "runs").iterdir()) == runs
