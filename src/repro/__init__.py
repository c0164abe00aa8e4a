"""SoftWalker reproduction: software page table walks for irregular GPUs.

A trace-driven GPU virtual-memory simulator reproducing *SoftWalker:
Supporting Software Page Table Walk for Irregular GPU Applications*
(MICRO 2025).  Public entry points:

>>> from repro import Runner, baseline_config, softwalker_config
>>> runner = Runner()
>>> base = runner.run(baseline_config(), "gups", scale=0.2)
>>> soft = runner.run(softwalker_config(), "gups", scale=0.2)
>>> soft.speedup_over(base) > 1
True
"""

from repro.config import (
    DEFAULT_CONFIGS,
    PAGE_SIZE_2M,
    PAGE_SIZE_64K,
    ConfigRegistry,
    DistributorPolicy,
    GPUConfig,
    avatar_config,
    baseline_config,
    fshpt_config,
    ideal_config,
    nha_config,
    softwalker_config,
)
from repro.gpu.gpu import GPUSimulator, SimulationResult, SimulationTruncated
from repro.harness.pool import SweepPoint, make_point, matrix_points
from repro.analysis import ResultSet, analyze, diff_resultsets
from repro.harness.runner import (
    Runner,
    build_workload,
    default_runner,
    speedups,
)
from repro.harness.store import ResultStore
from repro.harness.supervised import (
    SupervisedReport,
    SupervisionPolicy,
    run_supervised,
)
from repro.obs import (
    MetricsRegistry,
    MetricsSampler,
    Observability,
    TraceRecorder,
    validate_chrome_trace,
)
from repro.resilience import (
    Checkpoint,
    CheckpointError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InvariantChecker,
    InvariantViolation,
    default_chaos_plan,
)
from repro.workloads.base import TraceWorkload, WorkloadSpec
from repro.workloads.catalog import (
    ALL_ABBRS,
    CATALOG,
    IRREGULAR_ABBRS,
    REGULAR_ABBRS,
    get_spec,
)

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_CONFIGS",
    "PAGE_SIZE_2M",
    "PAGE_SIZE_64K",
    "ConfigRegistry",
    "DistributorPolicy",
    "GPUConfig",
    "avatar_config",
    "baseline_config",
    "fshpt_config",
    "ideal_config",
    "nha_config",
    "softwalker_config",
    "GPUSimulator",
    "SimulationResult",
    "SimulationTruncated",
    "MetricsRegistry",
    "MetricsSampler",
    "Observability",
    "TraceRecorder",
    "validate_chrome_trace",
    "ResultSet",
    "analyze",
    "diff_resultsets",
    "ResultStore",
    "Runner",
    "SweepPoint",
    "build_workload",
    "default_runner",
    "make_point",
    "matrix_points",
    "speedups",
    "SupervisedReport",
    "SupervisionPolicy",
    "run_supervised",
    "Checkpoint",
    "CheckpointError",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InvariantChecker",
    "InvariantViolation",
    "default_chaos_plan",
    "TraceWorkload",
    "WorkloadSpec",
    "ALL_ABBRS",
    "CATALOG",
    "IRREGULAR_ABBRS",
    "REGULAR_ABBRS",
    "get_spec",
]
