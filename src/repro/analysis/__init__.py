"""Breakdowns and report formatting used by the CLI and the benchmark harness."""

from repro.analysis.breakdown import BreakdownTable, breakdown_table_from_runs
from repro.analysis.reporting import (
    format_markdown_table,
    format_run_diff,
    format_series,
    format_speedup_table,
    format_study_report,
    format_table,
    print_report,
)

__all__ = [
    "BreakdownTable",
    "breakdown_table_from_runs",
    "format_table",
    "format_speedup_table",
    "format_series",
    "format_markdown_table",
    "format_run_diff",
    "format_study_report",
    "print_report",
]
