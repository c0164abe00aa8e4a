"""Workloads: synthetic benchmark suite (Table 4) and microbenchmarks.

Names resolve on first use (PEP 562), so importing the catalog or a
spec loads neither numpy nor the trace builder.
"""

import importlib

#: Public name -> defining module; doubles as ``__all__``.
_EXPORTS = {
    "ReplayWorkload": "repro.workloads.trace_io",
    "load_trace": "repro.workloads.trace_io",
    "save_trace": "repro.workloads.trace_io",
    "IRREGULAR": "repro.workloads.spec",
    "REGULAR": "repro.workloads.spec",
    "WorkloadSpec": "repro.workloads.spec",
    "TraceWorkload": "repro.workloads.base",
    "ALL_ABBRS": "repro.workloads.catalog",
    "CATALOG": "repro.workloads.catalog",
    "IRREGULAR_ABBRS": "repro.workloads.catalog",
    "REGULAR_ABBRS": "repro.workloads.catalog",
    "SCALABLE_ABBRS": "repro.workloads.catalog",
    "get_spec": "repro.workloads.catalog",
    "MicrobenchWorkload": "repro.workloads.microbench",
    "microbench_spec": "repro.workloads.microbench",
    "PATTERNS": "repro.workloads.patterns",
    "get_pattern": "repro.workloads.patterns",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
