"""Cross-configuration experiment analysis over a :class:`ResultSet`.

Turns grouped replicates into decisions, two ways:

* :func:`analyze` — the paper-style report: per-cell medians with
  bootstrap confidence intervals, Mann-Whitney significance of every
  candidate config against a named baseline (Benjamini-Hochberg
  corrected across all cells), per-benchmark speedups and a geomean
  design ranking.  The data behind ``repro report``.
* :func:`diff_resultsets` — the regression gate: the same cells from an
  *old* snapshot vs a *new* one, flagging per-metric movements that are
  both statistically significant and past the shared
  :func:`~repro.analysis.stat_tests.relative_verdict` tolerance.  The
  data behind ``repro report --against`` (exit non-zero on any
  regression or missing cell).

Everything statistical is delegated to
:mod:`repro.analysis.stat_tests`, so report verdicts and the bench
guard cannot disagree about what "significant" or "regression" means.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.report import geomean
from repro.analysis.resultset import (
    CellKey,
    Metric,
    PRIMARY_METRIC,
    ResultCell,
    ResultSet,
    resolve_metrics,
)
from repro.analysis.stat_tests import (
    DEFAULT_ALPHA,
    VERDICT_IDENTICAL,
    VERDICT_INSUFFICIENT,
    VERDICT_NO_DATA,
    VERDICT_NOT_SIGNIFICANT,
    VERDICT_SIGNIFICANT,
    benjamini_hochberg,
    bootstrap_ci,
    compare_replicates,
    relative_verdict,
    stable_seed,
)

#: Default relative tolerance for snapshot-diff regressions (5%).
DEFAULT_DIFF_TOLERANCE = 0.05

#: Metric -> absolute floor below which a diff never judges (host
#: timing jitter makes sub-floor wall clocks meaningless).
DEFAULT_DIFF_FLOORS = {"wall_seconds": 0.005}


class AnalysisError(ValueError):
    """Raised when an analysis request cannot be satisfied."""


# ----------------------------------------------------------------------
# Report-side dataclasses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetricSummary:
    """Median + bootstrap CI of one metric in one cell."""

    key: CellKey
    metric: str
    n: int
    median: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class CellComparison:
    """Baseline-vs-candidate significance for one cell and metric."""

    key: CellKey
    baseline: str
    metric: str
    baseline_median: float | None
    median: float | None
    #: candidate / baseline (direction-agnostic; None without data).
    ratio: float | None
    p_value: float | None
    #: Benjamini-Hochberg adjusted p across the whole comparison family
    #: (None when no real test ran: degenerate or insufficient data).
    q_value: float | None
    verdict: str
    #: True / False when the movement favours the candidate / baseline;
    #: None when direction cannot be judged.
    better: bool | None


@dataclass(frozen=True)
class ConfigRanking:
    """One config's standing in the design ranking."""

    config: str
    #: Geomean of per-benchmark speedups vs baseline (primary metric).
    geomean_speedup: float
    benchmarks: int


@dataclass
class ExperimentAnalysis:
    """Everything :func:`analyze` computed, ready for rendering."""

    resultset: ResultSet
    baseline: str
    metrics: list[Metric]
    alpha: float
    summaries: list[MetricSummary] = field(default_factory=list)
    comparisons: list[CellComparison] = field(default_factory=list)
    #: (config, benchmark) -> primary-metric speedup vs baseline.
    speedups: dict = field(default_factory=dict)
    rankings: list[ConfigRanking] = field(default_factory=list)

    def significant(self) -> list[CellComparison]:
        return [c for c in self.comparisons if c.verdict == VERDICT_SIGNIFICANT]


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------
def _pick_baseline(resultset: ResultSet, baseline: str | None) -> str:
    configs = resultset.configs()
    if baseline is not None:
        if baseline not in configs:
            raise AnalysisError(
                f"baseline config {baseline!r} not present; "
                f"available: {', '.join(configs)}"
            )
        return baseline
    if "baseline" in configs:
        return "baseline"
    return configs[0]


def _match_baseline_cell(
    resultset: ResultSet, baseline: str, key: CellKey
) -> ResultCell | None:
    return resultset.cell(
        CellKey(
            config=baseline,
            benchmark=key.benchmark,
            scale=key.scale,
            footprint_scale=key.footprint_scale,
        )
    )


def analyze(
    resultset: ResultSet,
    *,
    baseline: str | None = None,
    metrics: Sequence[str] | Sequence[Metric] | None = None,
    alpha: float = DEFAULT_ALPHA,
    confidence: float = 0.95,
    resamples: int = 1000,
) -> ExperimentAnalysis:
    """Summarise, test, and rank a :class:`ResultSet` against a baseline.

    ``baseline`` defaults to the registered "baseline" config when
    present, else the alphabetically-first one.  Candidate cells are
    compared to the baseline cell of the *same* benchmark, scale, and
    footprint; significance p-values are Benjamini-Hochberg corrected
    across every (cell × metric) test that actually ran.
    """
    if not resultset:
        raise AnalysisError("empty ResultSet: nothing to analyze")
    chosen = (
        list(metrics)
        if metrics and isinstance(metrics[0], Metric)
        else resolve_metrics(metrics)  # type: ignore[arg-type]
    )
    baseline_name = _pick_baseline(resultset, baseline)
    analysis = ExperimentAnalysis(
        resultset=resultset,
        baseline=baseline_name,
        metrics=chosen,
        alpha=alpha,
    )

    # Per-cell medians with deterministic bootstrap intervals.
    for cell in resultset.cells():
        for metric in chosen:
            values = cell.values(metric)
            if not values:
                continue
            low, high = bootstrap_ci(
                values,
                confidence=confidence,
                resamples=resamples,
                seed=stable_seed(cell.key.config, cell.key.benchmark, metric.name),
            )
            analysis.summaries.append(
                MetricSummary(
                    key=cell.key,
                    metric=metric.name,
                    n=len(values),
                    median=statistics.median(values),
                    ci_low=low,
                    ci_high=high,
                )
            )

    # Significance of every candidate cell against its baseline twin.
    pending: list[tuple[int, float]] = []  # (comparison index, raw p)
    for cell in resultset.cells():
        if cell.key.config == baseline_name:
            continue
        base_cell = _match_baseline_cell(resultset, baseline_name, cell.key)
        for metric in chosen:
            values = cell.values(metric)
            base_values = base_cell.values(metric) if base_cell else []
            if not values or not base_values:
                analysis.comparisons.append(
                    CellComparison(
                        key=cell.key,
                        baseline=baseline_name,
                        metric=metric.name,
                        baseline_median=(
                            statistics.median(base_values) if base_values else None
                        ),
                        median=statistics.median(values) if values else None,
                        ratio=None,
                        p_value=None,
                        q_value=None,
                        verdict=VERDICT_NO_DATA,
                        better=None,
                    )
                )
                continue
            comparison = compare_replicates(base_values, values)
            base_median = statistics.median(base_values)
            median = statistics.median(values)
            ratio = median / base_median if base_median else math.inf
            if ratio == 1.0:
                better = None
            else:
                better = (ratio > 1.0) == metric.higher_is_better
            if not comparison.sufficient:
                verdict = VERDICT_INSUFFICIENT
            elif comparison.degenerate:
                verdict = VERDICT_IDENTICAL
            else:
                verdict = ""  # resolved after BH correction below
            analysis.comparisons.append(
                CellComparison(
                    key=cell.key,
                    baseline=baseline_name,
                    metric=metric.name,
                    baseline_median=base_median,
                    median=median,
                    ratio=ratio,
                    p_value=comparison.p_value,
                    q_value=None,
                    verdict=verdict,
                    better=better,
                )
            )
            if verdict == "":
                pending.append(
                    (len(analysis.comparisons) - 1, comparison.p_value)
                )

    # One BH family across every test that actually ran.
    q_values = benjamini_hochberg([p for _, p in pending])
    for (index, _), q in zip(pending, q_values):
        old = analysis.comparisons[index]
        analysis.comparisons[index] = CellComparison(
            key=old.key,
            baseline=old.baseline,
            metric=old.metric,
            baseline_median=old.baseline_median,
            median=old.median,
            ratio=old.ratio,
            p_value=old.p_value,
            q_value=q,
            verdict=(
                VERDICT_SIGNIFICANT if q <= alpha else VERDICT_NOT_SIGNIFICANT
            ),
            better=old.better,
        )

    # Speedups + geomean ranking over the primary metric.
    primary = next(
        (m for m in chosen if m.name == PRIMARY_METRIC),
        chosen[0],
    )
    per_config: dict[str, list[float]] = {}
    for cell in resultset.cells():
        base_cell = _match_baseline_cell(resultset, baseline_name, cell.key)
        if base_cell is None:
            continue
        median = cell.median(primary)
        base_median = base_cell.median(primary)
        if median is None or base_median is None or median <= 0 or base_median <= 0:
            continue
        # Speedup > 1 always means "candidate better".
        speedup = (
            median / base_median
            if primary.higher_is_better
            else base_median / median
        )
        analysis.speedups[(cell.key.config, cell.key.benchmark)] = speedup
        per_config.setdefault(cell.key.config, []).append(speedup)
    for config, values in per_config.items():
        analysis.rankings.append(
            ConfigRanking(
                config=config,
                geomean_speedup=geomean(values),
                benchmarks=len(values),
            )
        )
    analysis.rankings.sort(key=lambda r: (-r.geomean_speedup, r.config))
    return analysis


# ----------------------------------------------------------------------
# Snapshot diff (the --against regression gate)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegressionCell:
    """One cell × metric judgement of an old-vs-new snapshot diff."""

    key: CellKey
    metric: str
    old_median: float | None
    new_median: float | None
    #: new / old in the *worsening* direction (so > 1 always reads
    #: "moved toward worse", whatever the metric's polarity).
    ratio: float | None
    p_value: float | None
    q_value: float | None
    #: "regression" | "improvement" | "ok" | "missing" | "new" |
    #: "insufficient-replicates" | "no-data" | "identical"
    verdict: str
    note: str = ""

    @property
    def failed(self) -> bool:
        return self.verdict in ("regression", "missing")


@dataclass
class RegressionReport:
    """Everything :func:`diff_resultsets` judged."""

    old_source: str
    new_source: str
    metrics: list[str]
    alpha: float
    tolerance: float
    cells: list[RegressionCell] = field(default_factory=list)
    #: Cells whose replicate fingerprints drifted between snapshots
    #: (the simulation itself changed, not just the host timing).
    fingerprint_drift: list[CellKey] = field(default_factory=list)

    @property
    def regressions(self) -> list[RegressionCell]:
        return [cell for cell in self.cells if cell.verdict == "regression"]

    @property
    def missing(self) -> list[RegressionCell]:
        return [cell for cell in self.cells if cell.verdict == "missing"]

    @property
    def passed(self) -> bool:
        return not any(cell.failed for cell in self.cells)

    def summary(self) -> str:
        counts: dict[str, int] = {}
        for cell in self.cells:
            counts[cell.verdict] = counts.get(cell.verdict, 0) + 1
        body = ", ".join(f"{count} {verdict}" for verdict, count in sorted(counts.items()))
        status = "PASS" if self.passed else "FAIL"
        return f"{status}: {body or 'no overlapping cells'}"


def diff_resultsets(
    old: ResultSet,
    new: ResultSet,
    *,
    metrics: Sequence[str] | Sequence[Metric] | None = None,
    alpha: float = DEFAULT_ALPHA,
    tolerance: float = DEFAULT_DIFF_TOLERANCE,
    floors: dict | None = None,
) -> RegressionReport:
    """Judge a new snapshot against an old one, cell by cell.

    A metric regresses only when the movement is *both* statistically
    significant (Mann-Whitney across replicates, BH-corrected over the
    family) *and* past the shared :func:`relative_verdict` tolerance in
    the metric's worsening direction.  Cells present in the old
    snapshot but absent from the new one fail outright; cells that are
    new are reported but do not fail.  Higher-is-better metrics are
    folded into the same "ratio > 1 is worse" orientation before the
    verdict, so one rule covers both polarities.
    """
    chosen = (
        list(metrics)
        if metrics and isinstance(metrics[0], Metric)
        else resolve_metrics(metrics)  # type: ignore[arg-type]
    )
    floors = dict(DEFAULT_DIFF_FLOORS if floors is None else floors)
    report = RegressionReport(
        old_source=old.source,
        new_source=new.source,
        metrics=[metric.name for metric in chosen],
        alpha=alpha,
        tolerance=tolerance,
    )

    old_keys = {cell.key for cell in old.cells()}
    pending: list[tuple[int, float]] = []

    for old_cell in old.cells():
        new_cell = new.cell(old_cell.key)
        if new_cell is None:
            for metric in chosen:
                if old_cell.values(metric):
                    report.cells.append(
                        RegressionCell(
                            key=old_cell.key,
                            metric=metric.name,
                            old_median=old_cell.median(metric),
                            new_median=None,
                            ratio=None,
                            p_value=None,
                            q_value=None,
                            verdict="missing",
                            note="cell absent from new snapshot",
                        )
                    )
            continue
        if old_cell.fingerprints() != new_cell.fingerprints():
            report.fingerprint_drift.append(old_cell.key)
        for metric in chosen:
            old_values = old_cell.values(metric)
            new_values = new_cell.values(metric)
            if not old_values or not new_values:
                report.cells.append(
                    RegressionCell(
                        key=old_cell.key,
                        metric=metric.name,
                        old_median=old_cell.median(metric),
                        new_median=new_cell.median(metric),
                        ratio=None,
                        p_value=None,
                        q_value=None,
                        verdict=VERDICT_NO_DATA,
                        note="metric absent on one side",
                    )
                )
                continue
            old_median = statistics.median(old_values)
            new_median = statistics.median(new_values)
            # Fold polarity: judge in the worsening direction so the
            # shared verdict's "ratio > 1 regresses" applies to both.
            if metric.higher_is_better:
                judged_old, judged_new = new_median, old_median
            else:
                judged_old, judged_new = old_median, new_median
            verdict, ratio = relative_verdict(
                judged_old,
                judged_new,
                tolerance=tolerance,
                floor=floors.get(metric.name, 0.0),
            )
            comparison = compare_replicates(old_values, new_values)
            if not comparison.sufficient:
                report.cells.append(
                    RegressionCell(
                        key=old_cell.key,
                        metric=metric.name,
                        old_median=old_median,
                        new_median=new_median,
                        ratio=ratio,
                        p_value=None,
                        q_value=None,
                        verdict=VERDICT_INSUFFICIENT,
                        note=f"n={comparison.n_a} vs {comparison.n_b}",
                    )
                )
                continue
            if comparison.degenerate:
                report.cells.append(
                    RegressionCell(
                        key=old_cell.key,
                        metric=metric.name,
                        old_median=old_median,
                        new_median=new_median,
                        ratio=ratio,
                        p_value=comparison.p_value,
                        q_value=None,
                        verdict=VERDICT_IDENTICAL,
                    )
                )
                continue
            report.cells.append(
                RegressionCell(
                    key=old_cell.key,
                    metric=metric.name,
                    old_median=old_median,
                    new_median=new_median,
                    ratio=ratio,
                    p_value=comparison.p_value,
                    q_value=None,
                    verdict=verdict,  # provisional; finalised after BH
                )
            )
            pending.append((len(report.cells) - 1, comparison.p_value))

    for new_cell in new.cells():
        if new_cell.key not in old_keys:
            report.cells.append(
                RegressionCell(
                    key=new_cell.key,
                    metric=report.metrics[0],
                    old_median=None,
                    new_median=new_cell.median(chosen[0]),
                    ratio=None,
                    p_value=None,
                    q_value=None,
                    verdict="new",
                    note="cell absent from old snapshot",
                )
            )

    # BH across every real test; a threshold-crossing movement only
    # counts as regression/improvement when it is also significant.
    q_values = benjamini_hochberg([p for _, p in pending])
    for (index, _), q in zip(pending, q_values):
        cell = report.cells[index]
        significant = q <= alpha
        verdict = cell.verdict
        note = cell.note
        if verdict in ("regression", "improvement") and not significant:
            note = f"{verdict} ratio but not significant (q={q:.3g})"
            verdict = "ok"
        report.cells[index] = RegressionCell(
            key=cell.key,
            metric=cell.metric,
            old_median=cell.old_median,
            new_median=cell.new_median,
            ratio=cell.ratio,
            p_value=cell.p_value,
            q_value=q,
            verdict=verdict,
            note=note,
        )
    return report
