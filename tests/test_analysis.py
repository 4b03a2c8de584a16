"""Tests for the analysis breakdown tables and report formatting."""

import pytest

from repro.analysis.breakdown import BreakdownTable, breakdown_table_from_runs
from repro.analysis.reporting import (
    format_series,
    format_speedup_table,
    format_table,
)
from repro.sim.engine import RunResult
from repro.sim.iteration import IterationResult, LayerResult


def make_run(name, attention=1.0, expert=2.0, a2a=1.5, exposed=0.2):
    layer = LayerResult(layer=0, forward_time=2.0, backward_time=3.0,
                        attention_time=attention, expert_compute_time=expert,
                        all_to_all_time=a2a, exposed_comm_time=exposed,
                        relayout_time=0.0, max_tokens=120, ideal_tokens=100.0)
    total = attention + expert + a2a + exposed
    breakdown = {"attention_and_other": attention, "expert_compute": expert,
                 "all_to_all": a2a, "exposed_comm": exposed, "relayout": 0.0,
                 "other": 0.0}
    iteration = IterationResult(iteration=0, total_time=total,
                                breakdown=breakdown, layers=[layer])
    run = RunResult(system=name, tokens_per_iteration=1000)
    run.add(iteration)
    return run


class TestBreakdownTable:
    def test_fractions(self):
        table = breakdown_table_from_runs({"fsdp_ep": make_run("fsdp_ep")})
        assert table.fraction("fsdp_ep", "expert_compute") == pytest.approx(
            2.0 / 4.7, rel=1e-6)
        assert table.all_to_all_fraction("fsdp_ep") == pytest.approx(
            (1.5 + 0.2) / 4.7, rel=1e-6)

    def test_rows_have_all_components(self):
        table = breakdown_table_from_runs({"laer": make_run("laer")})
        row = table.as_rows()[0]
        assert row["system"] == "laer"
        assert "all_to_all_pct" in row

    def test_component_speedup(self):
        table = breakdown_table_from_runs({
            "fsdp_ep": make_run("fsdp_ep", a2a=2.0),
            "laer": make_run("laer", a2a=1.0),
        })
        assert table.speedup_of_component("laer", "fsdp_ep", "all_to_all") == 2.0

    def test_add_validation(self):
        table = BreakdownTable()
        with pytest.raises(ValueError):
            table.add("x", {}, total=-1.0)

    def test_missing_system_fraction_is_zero(self):
        table = BreakdownTable()
        assert table.fraction("missing", "all_to_all") == 0.0


class TestRunResultHelpers:
    def test_relative_max_tokens(self):
        run = make_run("x")
        assert run.mean_relative_max_tokens() == pytest.approx(1.2)
        assert run.per_layer_relative_max_tokens() == [pytest.approx(1.2)]

    def test_empty_run(self):
        empty = RunResult(system="empty")
        assert empty.mean_iteration_time == 0.0
        assert empty.mean_breakdown() == {}
        assert empty.mean_relative_max_tokens() == 1.0


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(empty)" in format_table([], title="t")

    def test_format_speedup_table(self):
        text = format_speedup_table({"megatron": 100.0, "laer": 169.0}, "megatron")
        assert "1.69" in text
        with pytest.raises(KeyError):
            format_speedup_table({"laer": 1.0}, "megatron")

    def test_format_series(self):
        text = format_series({"loss": [1.0, 0.5]}, "step", [1, 2])
        assert "step" in text and "loss" in text
        assert "0.5" in text
