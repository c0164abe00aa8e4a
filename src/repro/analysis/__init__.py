"""Analysis: the stable public package for turning results into decisions.

This package is the supported surface for everything downstream of a
simulation: hardware area/energy models, result formatting, and — the
statistical experiment layer — :class:`ResultSet` (the ONE way to load
and group results), :func:`analyze` / :func:`diff_resultsets`, the
:mod:`~repro.analysis.stat_tests` primitives, and markdown/HTML report
rendering.  Import from here (``from repro.analysis import ResultSet,
analyze``) rather than scraping :class:`~repro.harness.store.ResultStore`
entries or private modules; ``__all__`` below is the compatibility
contract.  Names resolve on first use (PEP 562), so importing one
module of the package loads that module alone.
"""

import importlib

#: Public name -> defining module; doubles as ``__all__``.
_EXPORTS = {
    # Hardware models
    "EnergyModel": "repro.analysis.energy",
    "EnergyReport": "repro.analysis.energy",
    "energy_report": "repro.analysis.energy",
    "translation_energy_per_walk": "repro.analysis.energy",
    "GA102_DIE_AREA_MM2": "repro.analysis.area",
    "IN_TLB_CONTROL_AREA_MM2": "repro.analysis.area",
    "PW_WARP_CONTEXT_BITS": "repro.analysis.area",
    "PTWAreaModel": "repro.analysis.area",
    "cam_area": "repro.analysis.area",
    "config_relative_area": "repro.analysis.area",
    "hardware_overhead_summary": "repro.analysis.area",
    "softwalker_relative_area": "repro.analysis.area",
    "softwalker_storage_bits": "repro.analysis.area",
    # Formatting
    "format_table": "repro.analysis.report",
    "geomean": "repro.analysis.report",
    "markdown_table": "repro.analysis.render",
    "html_table": "repro.analysis.render",
    # ResultSet (the one loading path)
    "ResultSet": "repro.analysis.resultset",
    "ResultCell": "repro.analysis.resultset",
    "CellKey": "repro.analysis.resultset",
    "Metric": "repro.analysis.resultset",
    "METRICS": "repro.analysis.resultset",
    "DEFAULT_METRIC_NAMES": "repro.analysis.resultset",
    "PRIMARY_METRIC": "repro.analysis.resultset",
    "config_label": "repro.analysis.resultset",
    "resolve_metrics": "repro.analysis.resultset",
    "result_digest": "repro.analysis.resultset",
    # Experiment analysis
    "analyze": "repro.analysis.experiment",
    "diff_resultsets": "repro.analysis.experiment",
    "AnalysisError": "repro.analysis.experiment",
    "ExperimentAnalysis": "repro.analysis.experiment",
    "MetricSummary": "repro.analysis.experiment",
    "CellComparison": "repro.analysis.experiment",
    "ConfigRanking": "repro.analysis.experiment",
    "RegressionReport": "repro.analysis.experiment",
    "RegressionCell": "repro.analysis.experiment",
    # Statistics
    "mann_whitney_u": "repro.analysis.stat_tests",
    "MannWhitneyResult": "repro.analysis.stat_tests",
    "compare_replicates": "repro.analysis.stat_tests",
    "ReplicateComparison": "repro.analysis.stat_tests",
    "benjamini_hochberg": "repro.analysis.stat_tests",
    "bootstrap_ci": "repro.analysis.stat_tests",
    "relative_verdict": "repro.analysis.stat_tests",
    # Rendering
    "render_markdown": "repro.analysis.render",
    "render_html": "repro.analysis.render",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
