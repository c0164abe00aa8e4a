"""Experiment harness: runners, sweep engine, and figure definitions.

Names resolve on first use (PEP 562): importing one harness module
loads that module's dependencies, not the whole harness.
"""

import importlib

#: Public name -> defining module; doubles as ``__all__``.
_EXPORTS = {
    "Runner": "repro.harness.runner",
    "SweepPoint": "repro.harness.pool",
    "ResultStore": "repro.harness.store",
    "build_workload": "repro.harness.runner",
    "cache_info": "repro.harness.runner",
    "clear_cache": "repro.harness.runner",
    "default_jobs": "repro.harness.pool",
    "default_runner": "repro.harness.runner",
    "default_scale": "repro.harness.runner",
    "default_store_path": "repro.harness.store",
    "dedupe_points": "repro.harness.pool",
    "make_point": "repro.harness.pool",
    "matrix_points": "repro.harness.pool",
    "pool_context": "repro.harness.pool",
    "run_sweep": "repro.harness.pool",
    "simulate": "repro.harness.runner",
    "speedups": "repro.harness.runner",
    "SupervisedReport": "repro.harness.supervised",
    "SupervisionPolicy": "repro.harness.supervised",
    "run_supervised": "repro.harness.supervised",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
