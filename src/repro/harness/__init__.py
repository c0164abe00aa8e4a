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
    "run_supervised",
]
