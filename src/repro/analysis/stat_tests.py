"""Statistical machinery for cross-configuration experiment analysis.

Simulator comparisons are only meaningful with variance-aware
aggregation over seed replicates: a design that "wins" on one seed may
lose on the next.  This module supplies the pure-python statistical
primitives the :mod:`repro.analysis.experiment` layer builds verdicts
from:

* :func:`mann_whitney_u` — the non-parametric two-sided rank test for
  "did this metric's distribution shift between two configurations?".
  Uses :mod:`scipy` when it is installed (pinned to the asymptotic
  method so results match the fallback), otherwise a pure-python
  normal-approximation implementation with tie correction.
* :func:`benjamini_hochberg` — false-discovery-rate correction across a
  family of tests, so a report over hundreds of (config x benchmark x
  metric) cells does not drown in multiple-comparison false positives.
* :func:`bootstrap_ci` — seeded percentile bootstrap confidence
  intervals for per-cell medians (deterministic: same samples + same
  seed -> same interval, so reports and golden tests are stable).
* :func:`compare_replicates` — the graceful front door: n=1 replicates
  yield an "insufficient replicates" outcome instead of a crash, and
  all-equal samples are marked *degenerate* (no information, excluded
  from the correction family).
* :func:`relative_verdict` — the shared threshold verdict ("regression"
  / "improvement" / "ok") that the ``repro report --against`` snapshot
  diff and ``repro explore`` both call, so every front end agrees on
  what a regression *is*.
"""

from __future__ import annotations

import math
import random
import statistics
import zlib
from dataclasses import dataclass
from typing import Callable, Sequence

#: Fewest replicates per side before a rank test says anything at all.
MIN_REPLICATES = 2

#: Default significance level for corrected verdicts.
DEFAULT_ALPHA = 0.05

#: Verdict strings shared across the analysis layer.
VERDICT_SIGNIFICANT = "significant"
VERDICT_NOT_SIGNIFICANT = "not-significant"
VERDICT_INSUFFICIENT = "insufficient-replicates"
VERDICT_IDENTICAL = "identical"
VERDICT_NO_DATA = "no-data"


# ----------------------------------------------------------------------
# Mann-Whitney U
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MannWhitneyResult:
    """Outcome of one two-sided Mann-Whitney U rank test."""

    #: U statistic of the first sample.
    u: float
    #: Two-sided p-value (normal approximation with tie correction).
    p_value: float
    n_a: int
    n_b: int
    #: "scipy" | "pure-python" | "degenerate" (every observation equal).
    method: str


def _rank_with_ties(values: Sequence[float]) -> tuple[list[float], float]:
    """Midranks of ``values`` plus the tie-correction term sum(t^3 - t)."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    tie_term = 0.0
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        midrank = (i + j) / 2 + 1  # ranks are 1-based
        for k in range(i, j + 1):
            ranks[order[k]] = midrank
        span = j - i + 1
        if span > 1:
            tie_term += span**3 - span
        i = j + 1
    return ranks, tie_term


def _normal_sf(z: float) -> float:
    """P(Z > z) for a standard normal, via the error function."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _mann_whitney_pure(a: Sequence[float], b: Sequence[float]) -> MannWhitneyResult:
    """Normal-approximation Mann-Whitney with midrank tie correction.

    Matches scipy's ``method="asymptotic", use_continuity=False`` so the
    verdict is identical whether or not scipy is installed.
    """
    n_a, n_b = len(a), len(b)
    ranks, tie_term = _rank_with_ties(list(a) + list(b))
    rank_sum_a = sum(ranks[:n_a])
    u_a = rank_sum_a - n_a * (n_a + 1) / 2
    n = n_a + n_b
    mean = n_a * n_b / 2
    variance = n_a * n_b / 12 * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0:
        return MannWhitneyResult(u_a, 1.0, n_a, n_b, "degenerate")
    z = (u_a - mean) / math.sqrt(variance)
    p = min(1.0, 2.0 * _normal_sf(abs(z)))
    return MannWhitneyResult(u_a, p, n_a, n_b, "pure-python")


def mann_whitney_u(a: Sequence[float], b: Sequence[float]) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U test between two replicate samples.

    Raises :class:`ValueError` on an empty sample (callers wanting a
    graceful verdict go through :func:`compare_replicates`).  All
    observations equal across both samples is *degenerate*: there is no
    information to test, so ``p = 1.0`` with ``method="degenerate"``.
    """
    if not a or not b:
        raise ValueError("mann_whitney_u needs non-empty samples")
    if len(set(a) | set(b)) == 1:
        return MannWhitneyResult(
            len(a) * len(b) / 2, 1.0, len(a), len(b), "degenerate"
        )
    try:  # optional speedup; pinned to match the fallback exactly
        from scipy import stats as _scipy_stats  # type: ignore

        u, p = _scipy_stats.mannwhitneyu(
            list(a),
            list(b),
            alternative="two-sided",
            use_continuity=False,
            method="asymptotic",
        )
        return MannWhitneyResult(float(u), float(p), len(a), len(b), "scipy")
    except ImportError:
        return _mann_whitney_pure(a, b)


# ----------------------------------------------------------------------
# Replicate comparison (the graceful front door)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicateComparison:
    """One metric's old-vs-new (or baseline-vs-candidate) sample test."""

    n_a: int
    n_b: int
    #: Raw two-sided p-value; None when either side has too few
    #: replicates to test (never a crash — the verdict says so instead).
    p_value: float | None
    #: True when every observation on both sides is equal: no test was
    #: really performed, so the comparison is excluded from the
    #: Benjamini-Hochberg family.
    degenerate: bool = False

    @property
    def sufficient(self) -> bool:
        return self.p_value is not None

    def verdict(self, *, alpha: float = DEFAULT_ALPHA) -> str:
        """Uncorrected verdict (reports apply BH across the family)."""
        if not self.sufficient:
            return VERDICT_INSUFFICIENT
        if self.degenerate:
            return VERDICT_IDENTICAL
        return (
            VERDICT_SIGNIFICANT
            if self.p_value <= alpha
            else VERDICT_NOT_SIGNIFICANT
        )


def compare_replicates(
    a: Sequence[float],
    b: Sequence[float],
    *,
    min_replicates: int = MIN_REPLICATES,
) -> ReplicateComparison:
    """Rank-test two replicate samples, degrading gracefully.

    With fewer than ``min_replicates`` observations on either side the
    result carries ``p_value=None`` and an "insufficient replicates"
    verdict — a single-seed sweep produces a readable report instead of
    a statistics crash.
    """
    if len(a) < min_replicates or len(b) < min_replicates:
        return ReplicateComparison(len(a), len(b), None)
    outcome = mann_whitney_u(a, b)
    return ReplicateComparison(
        len(a), len(b), outcome.p_value, degenerate=outcome.method == "degenerate"
    )


# ----------------------------------------------------------------------
# Multiple-comparison correction
# ----------------------------------------------------------------------
def benjamini_hochberg(p_values: Sequence[float]) -> list[float]:
    """Benjamini-Hochberg adjusted p-values (q-values), input order.

    ``q[i] <= alpha`` reproduces the classic BH step-up rejection at
    level ``alpha`` while handing callers a per-test number to print.
    """
    m = len(p_values)
    if m == 0:
        return []
    order = sorted(range(m), key=lambda i: p_values[i])
    adjusted = [0.0] * m
    running = 1.0
    for position in range(m - 1, -1, -1):
        index = order[position]
        running = min(running, p_values[index] * m / (position + 1))
        adjusted[index] = running
    return adjusted


# ----------------------------------------------------------------------
# Bootstrap confidence intervals
# ----------------------------------------------------------------------
def stable_seed(*parts: object) -> int:
    """Deterministic RNG seed from identifying strings (crc32, not
    ``hash()`` — the latter is salted per interpreter run)."""
    return zlib.crc32("/".join(str(part) for part in parts).encode("utf-8"))


def bootstrap_ci(
    values: Sequence[float],
    *,
    confidence: float = 0.95,
    resamples: int = 1000,
    statistic: Callable[[Sequence[float]], float] = statistics.median,
    seed: int = 0,
) -> tuple[float, float]:
    """Seeded percentile-bootstrap interval for ``statistic(values)``.

    Deterministic by construction (``random.Random(seed)``), so the
    same replicate set always renders the same report.  A single
    observation yields the degenerate interval ``(v, v)``.
    """
    if not values:
        raise ValueError("bootstrap_ci needs at least one value")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if len(values) == 1:
        return (float(values[0]), float(values[0]))
    rng = random.Random(seed)
    pool = list(values)
    size = len(pool)
    estimates = sorted(
        statistic([pool[rng.randrange(size)] for _ in range(size)])
        for _ in range(max(1, resamples))
    )
    tail = (1.0 - confidence) / 2
    low_index = int(math.floor(tail * (len(estimates) - 1)))
    high_index = int(math.ceil((1.0 - tail) * (len(estimates) - 1)))
    return (estimates[low_index], estimates[high_index])


# ----------------------------------------------------------------------
# Shared threshold verdict (snapshot diff + explore agree here)
# ----------------------------------------------------------------------
def relative_verdict(
    old: float,
    new: float,
    *,
    tolerance: float,
    floor: float = 0.0,
) -> tuple[str, float]:
    """Classify a metric movement as regression / improvement / ok.

    The single definition of "regression" every front end shares:
    ``repro report --against`` and ``repro explore`` both call this, so
    their verdicts can never drift apart.  ``new``
    must exceed ``old`` by more than ``tolerance`` (relatively) to
    regress, or undercut it by the symmetric factor to improve; values
    where both sides sit under ``floor`` are too small to judge and
    come back "ok".  Returns ``(verdict, ratio)`` with
    ``ratio = new / old`` (``inf`` when ``old`` is zero).
    """
    ratio = new / old if old > 0 else float("inf")
    if old < floor and new < floor:
        return "ok", ratio
    if ratio > 1.0 + tolerance:
        return "regression", ratio
    if ratio < 1.0 / (1.0 + tolerance):
        return "improvement", ratio
    return "ok", ratio
