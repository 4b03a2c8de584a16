"""Plain-text report formatting for the benchmark harness.

The benchmarks print the same rows/series the paper's figures and tables show;
these helpers render them as aligned ASCII tables so ``pytest benchmarks/``
output can be compared side-by-side with the paper.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence


def format_table(rows: Sequence[Mapping[str, object]],
                 columns: Sequence[str] | None = None,
                 title: str | None = None) -> str:
    """Render a list of dict rows as an aligned ASCII table."""
    rows = list(rows)
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {col: len(str(col)) for col in columns}
    for row in rows:
        for col in columns:
            widths[col] = max(widths[col], len(_fmt(row.get(col, ""))))
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(str(col).ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[col] for col in columns))
    for row in rows:
        lines.append(" | ".join(_fmt(row.get(col, "")).ljust(widths[col])
                                for col in columns))
    return "\n".join(lines)


def format_speedup_table(throughputs: Mapping[str, float], reference: str,
                         title: str | None = None) -> str:
    """Render throughputs with speedups relative to a reference system."""
    if reference not in throughputs:
        raise KeyError(f"reference system {reference!r} not in results")
    ref = throughputs[reference]
    rows = []
    for system, value in throughputs.items():
        rows.append({
            "system": system,
            "throughput_tokens_per_s": round(value, 1),
            f"speedup_vs_{reference}": round(value / ref, 3) if ref else float("inf"),
        })
    return format_table(rows, title=title)


def format_series(series: Mapping[str, Sequence[float]], x_label: str,
                  x_values: Iterable[object], title: str | None = None,
                  precision: int = 3) -> str:
    """Render one or more named series over a shared x axis."""
    x_values = list(x_values)
    rows: List[Dict[str, object]] = []
    for idx, x in enumerate(x_values):
        row: Dict[str, object] = {x_label: x}
        for name, values in series.items():
            values = list(values)
            row[name] = round(values[idx], precision) if idx < len(values) else ""
        rows.append(row)
    return format_table(rows, title=title)


def format_markdown_table(rows: Sequence[Mapping[str, object]],
                          columns: Sequence[str] | None = None) -> str:
    """Render a list of dict rows as a GitHub-flavoured markdown table."""
    rows = list(rows)
    if not rows:
        return "*(no rows)*"
    if columns is None:
        columns = list(rows[0].keys())
    lines = [
        "| " + " | ".join(str(col) for col in columns) + " |",
        "|" + "|".join(" --- " for _ in columns) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(row.get(col, ""))
                                       for col in columns) + " |")
    return "\n".join(lines)


DIFF_ROW_KEYS = ("system", "metric", "base", "other", "delta", "rel_delta")


def format_run_diff(rows: Sequence[Mapping[str, object]],
                    title: str | None = None) -> str:
    """Render per-metric delta rows (``RunDiff.as_rows()``) as an ASCII table.

    Expects mappings with ``system``/``metric``/``base``/``other``/``delta``/
    ``rel_delta`` keys; the relative delta is shown as a signed percentage.
    Any additional keys (e.g. the gate's ``baseline_run``/``candidate_run``
    attribution) are rendered as leading columns, verbatim.
    """
    formatted = [{
        **{key: value for key, value in row.items()
           if key not in DIFF_ROW_KEYS},
        "system": row.get("system", ""),
        "metric": row.get("metric", ""),
        "base": _round(row.get("base"), 6),
        "other": _round(row.get("other"), 6),
        "delta": _round(row.get("delta"), 6),
        "rel_delta": _percent(row.get("rel_delta")),
    } for row in rows]
    return format_table(formatted, title=title)


def format_study_report(title: str,
                        rows: Sequence[Mapping[str, object]],
                        columns: Sequence[str] | None = None,
                        intro: str = "",
                        sections: Mapping[str, Sequence[Mapping[str, object]]]
                        | None = None) -> str:
    """Render a study's stored results as a markdown report.

    Args:
        title: Report heading (typically the study name).
        rows: One mapping per (run, system) with whatever metric columns the
            caller selected; rendered as the main results table.
        columns: Column order override for the main table.
        intro: Optional paragraph between the heading and the table.
        sections: Optional extra ``{heading: rows}`` tables (e.g. per-metric
            diffs of two runs, or a regression list).
    """
    parts: List[str] = [f"# Study report: {title}", ""]
    if intro:
        parts += [intro, ""]
    parts += [format_markdown_table(rows, columns=columns), ""]
    for heading, section_rows in (sections or {}).items():
        parts += [f"## {heading}", "",
                  format_markdown_table(list(section_rows)), ""]
    return "\n".join(parts).rstrip() + "\n"


PHASE_COLUMNS = ("phase", "count", "total_ms", "self_ms", "mean_ms", "share")


def format_phase_breakdown(rows: Sequence[Mapping[str, object]],
                           title: str | None = "Phase breakdown") -> str:
    """Render telemetry phase rows (``repro.telemetry.phase_breakdown``).

    Expects mappings with ``phase``/``count``/``total_ms``/``self_ms``/
    ``mean_ms``/``share`` keys; the share (fraction of the traced wall
    interval) is shown as a percentage.  Nested spans overlap, so shares
    need not sum to 100%; self times do not overlap.
    """
    formatted = [{
        **{col: row.get(col, "") for col in PHASE_COLUMNS},
        "share": (f"{row['share'] * 100:.1f}%"
                  if isinstance(row.get("share"), (int, float))
                  else str(row.get("share", ""))),
    } for row in rows]
    return format_table(formatted, columns=list(PHASE_COLUMNS), title=title)


def print_report(*blocks: str) -> None:
    """Print report blocks separated by blank lines (helper for benchmarks)."""
    print()
    for block in blocks:
        print(block)
        print()


def _round(value: object, digits: int) -> object:
    if isinstance(value, float):
        return round(value, digits)
    return value


def _percent(value: object) -> str:
    if isinstance(value, (int, float)):
        return f"{value * 100:+.2f}%"
    return str(value)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)
