"""Experiment harness: runners, sweep engine, and figure definitions."""

from repro.harness.pool import (
    SweepPoint,
    dedupe_points,
    default_jobs,
    make_point,
    matrix_points,
    pool_context,
    run_point_supervised,
    run_sweep,
)
from repro.harness.runner import (
    Runner,
    build_workload,
    cache_info,
    clear_cache,
    default_runner,
    default_scale,
    speedups,
)
from repro.harness.store import ResultStore, default_store_path
from repro.harness.supervised import (
    SupervisedReport,
    SupervisionPolicy,
    AttemptAbandoned,
    WatchdogTimeout,
    run_supervised,
)

__all__ = [
    "Runner",
    "SweepPoint",
    "ResultStore",
    "build_workload",
    "cache_info",
    "clear_cache",
    "default_jobs",
    "default_runner",
    "default_scale",
    "default_store_path",
    "dedupe_points",
    "make_point",
    "matrix_points",
    "pool_context",
    "run_point_supervised",
    "run_sweep",
    "speedups",
    "SupervisedReport",
    "SupervisionPolicy",
    "AttemptAbandoned",
    "WatchdogTimeout",
    "run_supervised",
]


def __getattr__(name: str):
    # run_cached / run_matrix finished their deprecation cycle; point
    # stragglers at the Runner replacement instead of a bare
    # AttributeError.
    if name in ("run_cached", "run_matrix"):
        raise ImportError(
            f"repro.harness.{name}() was removed after its deprecation "
            f"cycle; use repro.harness.default_runner().{name}(...) "
            f"(or a Runner instance) instead"
        )
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
