"""Markdown and HTML rendering for experiment analyses.

One table-building core feeds both output formats, so the markdown
report committed to a PR and the HTML page a dashboard serves can never
show different numbers.  Cell formatting reuses
:func:`repro.analysis.report.format_cell` — the same rules the ASCII
figure tables use — and the paper-style layout puts benchmarks on rows
and configurations on columns, mirroring the SoftWalker Fig. 7–13
breakdowns.
"""

from __future__ import annotations

import html as _html
import math
from typing import Sequence

from repro.analysis.experiment import ExperimentAnalysis, RegressionReport
from repro.analysis.report import format_cell


# ----------------------------------------------------------------------
# Table primitives
# ----------------------------------------------------------------------
def markdown_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """GitHub-flavoured pipe table with :func:`format_cell` formatting."""
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(format_cell(c) for c in row) + " |")
    return "\n".join(lines)


def html_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """The same table as HTML (escaped, same cell formatting)."""
    head = "".join(f"<th>{_html.escape(str(h))}</th>" for h in headers)
    body = "".join(
        "<tr>"
        + "".join(f"<td>{_html.escape(format_cell(c))}</td>" for c in row)
        + "</tr>"
        for row in rows
    )
    return (
        f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"
    )


def _interval(low: float, high: float) -> str:
    return f"[{format_cell(low)}, {format_cell(high)}]"


def _maybe(value, fmt: str = "") -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if fmt:
        return format(value, fmt)
    return format_cell(value)


# ----------------------------------------------------------------------
# Report sections (shared between markdown and HTML)
# ----------------------------------------------------------------------
def _ranking_rows(analysis: ExperimentAnalysis) -> tuple[list[str], list[list]]:
    headers = ["rank", "config", "geomean speedup vs " + analysis.baseline, "benchmarks"]
    rows = [
        [position + 1, ranking.config, ranking.geomean_speedup, ranking.benchmarks]
        for position, ranking in enumerate(analysis.rankings)
    ]
    return headers, rows


def _metric_rows(
    analysis: ExperimentAnalysis, metric_name: str
) -> tuple[list[str], list[list]]:
    """Paper-style breakdown: benchmark rows × config columns."""
    configs = analysis.resultset.configs()
    headers = ["benchmark"] + [f"{config} (median, 95% CI)" for config in configs]
    rows: list[list] = []
    for benchmark in analysis.resultset.benchmarks():
        row: list = [benchmark]
        for config in configs:
            entry = "-"
            for summary in analysis.summaries:
                if (
                    summary.metric == metric_name
                    and summary.key.benchmark == benchmark
                    and summary.key.config == config
                ):
                    entry = (
                        f"{format_cell(summary.median)} "
                        f"{_interval(summary.ci_low, summary.ci_high)} "
                        f"(n={summary.n})"
                    )
                    break
            row.append(entry)
        rows.append(row)
    return headers, rows


def _significance_rows(analysis: ExperimentAnalysis) -> tuple[list[str], list[list]]:
    headers = [
        "config",
        "benchmark",
        "metric",
        "ratio vs " + analysis.baseline,
        "p",
        "q (BH)",
        "verdict",
    ]
    rows = [
        [
            comparison.key.config,
            comparison.key.benchmark,
            comparison.metric,
            _maybe(comparison.ratio),
            _maybe(comparison.p_value, ".3g"),
            _maybe(comparison.q_value, ".3g"),
            comparison.verdict,
        ]
        for comparison in analysis.comparisons
    ]
    return headers, rows


def _diff_rows(report: RegressionReport) -> tuple[list[str], list[list]]:
    headers = ["cell", "metric", "old", "new", "ratio", "p", "q (BH)", "verdict", "note"]
    rows = [
        [
            str(cell.key),
            cell.metric,
            _maybe(cell.old_median),
            _maybe(cell.new_median),
            _maybe(cell.ratio),
            _maybe(cell.p_value, ".3g"),
            _maybe(cell.q_value, ".3g"),
            cell.verdict,
            cell.note,
        ]
        for cell in report.cells
    ]
    return headers, rows


def _intro_lines(analysis: ExperimentAnalysis) -> list[str]:
    lines = [
        analysis.resultset.describe(),
        f"Baseline: `{analysis.baseline}`. "
        f"Metrics: {', '.join(m.name for m in analysis.metrics)}. "
        f"Significance: two-sided Mann-Whitney U across seed replicates, "
        f"Benjamini-Hochberg corrected, alpha={analysis.alpha:g}.",
    ]
    incomplete = analysis.resultset.total_incomplete()
    if incomplete:
        lines.append(
            f"Note: {incomplete} truncated/partial result(s) are excluded "
            "from every statistic above (they did not simulate the full "
            "workload)."
        )
    return lines


# ----------------------------------------------------------------------
# Markdown
# ----------------------------------------------------------------------
def render_markdown(
    analysis: ExperimentAnalysis,
    *,
    title: str = "Experiment report",
    diff: RegressionReport | None = None,
) -> str:
    """Full markdown report (optionally with an --against diff section)."""
    parts = [f"# {title}", ""]
    parts.extend(_intro_lines(analysis))
    parts.append("")

    if analysis.rankings:
        parts += ["## Design ranking", ""]
        parts.append(markdown_table(*_ranking_rows(analysis)))
        parts.append("")

    for metric in analysis.metrics:
        direction = "higher is better" if metric.higher_is_better else "lower is better"
        parts += [f"## {metric.name}", ""]
        if metric.description:
            parts.append(f"{metric.description} ({direction}).")
            parts.append("")
        parts.append(markdown_table(*_metric_rows(analysis, metric.name)))
        parts.append("")

    if analysis.comparisons:
        parts += ["## Significance vs baseline", ""]
        parts.append(markdown_table(*_significance_rows(analysis)))
        parts.append("")

    if diff is not None:
        parts.extend(_diff_markdown_parts(diff))

    return "\n".join(parts).rstrip() + "\n"


def _diff_markdown_parts(report: RegressionReport) -> list[str]:
    parts = [
        "## Snapshot diff",
        "",
        f"Old: `{report.old_source}` vs new: `{report.new_source}` "
        f"(tolerance {report.tolerance:.0%}, alpha={report.alpha:g}).",
        "",
        f"**{report.summary()}**",
        "",
        markdown_table(*_diff_rows(report)),
        "",
    ]
    if report.fingerprint_drift:
        drifted = ", ".join(str(key) for key in report.fingerprint_drift)
        parts += [f"Fingerprint drift (simulation changed): {drifted}", ""]
    return parts


# ----------------------------------------------------------------------
# HTML
# ----------------------------------------------------------------------
_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 70rem; color: #1a1a2e; }
h1 { border-bottom: 2px solid #4a4e69; padding-bottom: .3rem; }
h2 { color: #4a4e69; margin-top: 2rem; }
table { border-collapse: collapse; margin: 1rem 0; font-size: .9rem; }
th, td { border: 1px solid #c9cbd8; padding: .35rem .7rem; text-align: left; }
th { background: #f2f3f7; }
tr:nth-child(even) td { background: #fafafc; }
.verdict-fail { color: #b00020; font-weight: 600; }
""".strip()


def render_html(
    analysis: ExperimentAnalysis,
    *,
    title: str = "Experiment report",
    diff: RegressionReport | None = None,
) -> str:
    """Standalone HTML page mirroring :func:`render_markdown`."""
    sections = [f"<h1>{_html.escape(title)}</h1>"]
    for line in _intro_lines(analysis):
        sections.append(f"<p>{_html.escape(line)}</p>")

    if analysis.rankings:
        sections.append("<h2>Design ranking</h2>")
        sections.append(html_table(*_ranking_rows(analysis)))

    for metric in analysis.metrics:
        direction = "higher is better" if metric.higher_is_better else "lower is better"
        sections.append(f"<h2>{_html.escape(metric.name)}</h2>")
        if metric.description:
            sections.append(
                f"<p>{_html.escape(metric.description)} ({direction}).</p>"
            )
        sections.append(html_table(*_metric_rows(analysis, metric.name)))

    if analysis.comparisons:
        sections.append("<h2>Significance vs baseline</h2>")
        sections.append(html_table(*_significance_rows(analysis)))

    if diff is not None:
        sections.append("<h2>Snapshot diff</h2>")
        sections.append(f"<p><strong>{_html.escape(diff.summary())}</strong></p>")
        sections.append(html_table(*_diff_rows(diff)))

    body = "\n".join(sections)
    return (
        "<!DOCTYPE html>\n"
        "<html lang=\"en\"><head><meta charset=\"utf-8\">\n"
        f"<title>{_html.escape(title)}</title>\n"
        f"<style>{_CSS}</style>\n"
        f"</head><body>\n{body}\n</body></html>\n"
    )
