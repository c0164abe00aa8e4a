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

Every name below resolves on first use (PEP 562): ``import repro``
loads nothing past this module, and ``from repro import Runner`` loads
what the runner needs.  See "Import contract" in docs/architecture.md.
"""

import importlib

__version__ = "1.0.0"

#: Public name -> defining module; doubles as ``__all__``.
_EXPORTS = {
    "DEFAULT_CONFIGS": "repro.config",
    "PAGE_SIZE_2M": "repro.config",
    "PAGE_SIZE_64K": "repro.config",
    "ConfigRegistry": "repro.config",
    "DistributorPolicy": "repro.config",
    "GPUConfig": "repro.config",
    "avatar_config": "repro.config",
    "baseline_config": "repro.config",
    "fshpt_config": "repro.config",
    "ideal_config": "repro.config",
    "nha_config": "repro.config",
    "softwalker_config": "repro.config",
    "GPUSimulator": "repro.gpu.gpu",
    "SimulationResult": "repro.gpu.gpu",
    "MetricsRegistry": "repro.obs",
    "MetricsSampler": "repro.obs",
    "Observability": "repro.obs",
    "TraceRecorder": "repro.obs",
    "validate_chrome_trace": "repro.obs",
    "ResultSet": "repro.analysis",
    "analyze": "repro.analysis",
    "diff_resultsets": "repro.analysis",
    "ResultStore": "repro.harness.store",
    "Runner": "repro.harness.runner",
    "build_workload": "repro.harness.runner",
    "default_runner": "repro.harness.runner",
    "speedups": "repro.harness.runner",
    "SweepPoint": "repro.harness.pool",
    "make_point": "repro.harness.pool",
    "matrix_points": "repro.harness.pool",
    "SupervisedReport": "repro.harness.supervised",
    "SupervisionPolicy": "repro.harness.supervised",
    "run_supervised": "repro.harness.supervised",
    "simulate": "repro.harness.runner",
    "FaultInjector": "repro.resilience",
    "FaultPlan": "repro.resilience",
    "FaultSpec": "repro.resilience",
    "InvariantChecker": "repro.resilience",
    "InvariantViolation": "repro.resilience",
    "default_chaos_plan": "repro.resilience",
    "TraceWorkload": "repro.workloads.base",
    "WorkloadSpec": "repro.workloads.spec",
    "ALL_ABBRS": "repro.workloads.catalog",
    "CATALOG": "repro.workloads.catalog",
    "IRREGULAR_ABBRS": "repro.workloads.catalog",
    "REGULAR_ABBRS": "repro.workloads.catalog",
    "get_spec": "repro.workloads.catalog",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
