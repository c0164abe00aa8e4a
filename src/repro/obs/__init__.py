"""Observability: request-lifecycle tracing and time-series metrics.

Everything the simulator can tell you about *where time went* lives
here:

* :class:`~repro.obs.trace.TraceRecorder` — span/instant/counter events
  following each translation request through the machine, exported as
  Chrome trace-event JSON (``chrome://tracing`` / Perfetto) or JSONL.
* :class:`~repro.obs.metrics.MetricsRegistry` — component-registered
  gauges polled into time series by an engine-scheduled
  :class:`~repro.obs.metrics.MetricsSampler`.
* :class:`Observability` — the bundle a :class:`~repro.gpu.gpu.GPUSimulator`
  accepts; the default :data:`NULL_OBS` is all null objects, so an
  uninstrumented run pays only a guard branch per hook site.

Usage::

    from repro import Observability, Runner, baseline_config

    obs = Observability.full()
    result = Runner().run(baseline_config(), "gups", scale=0.1, obs=obs)
    obs.trace.write_chrome("trace.json")
    obs.metrics.write_json("metrics.json")

From the command line, ``repro run BENCH --trace OUT --metrics OUT``
composes the same bundle for one simulation.

See docs/observability.md for the full guide and the metric naming
conventions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    MetricsSampler,
    NullMetricsRegistry,
)
from repro.obs.schema import TraceSchemaError, validate_chrome_trace
from repro.obs.trace import (
    NULL_TRACE,
    WALK_COMPONENTS,
    NullTraceRecorder,
    TraceRecorder,
    read_jsonl,
)

#: Default gauge-sampling period in cycles.
DEFAULT_SAMPLE_INTERVAL = 1000


@dataclass
class Observability:
    """The observability bundle threaded through one simulation.

    The default instance is fully disabled (null trace, null metrics);
    use the class methods to switch pieces on.
    """

    trace: TraceRecorder | NullTraceRecorder = field(default=NULL_TRACE)
    metrics: MetricsRegistry | NullMetricsRegistry = field(default=NULL_METRICS)
    #: Cycles between gauge samples when metrics are enabled.
    sample_interval: int = DEFAULT_SAMPLE_INTERVAL

    @property
    def enabled(self) -> bool:
        """True when any instrument is live."""
        return self.trace.enabled or self.metrics.enabled

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def sampling(cls, interval: int = DEFAULT_SAMPLE_INTERVAL) -> "Observability":
        """Metrics time series only."""
        return cls(metrics=MetricsRegistry(), sample_interval=interval)

    @classmethod
    def full(cls, interval: int = DEFAULT_SAMPLE_INTERVAL) -> "Observability":
        """Tracing plus metrics (what a ``REPRO_TRACE`` run uses)."""
        return cls(
            trace=TraceRecorder(),
            metrics=MetricsRegistry(),
            sample_interval=interval,
        )


#: Shared fully disabled bundle (the simulator default).
NULL_OBS = Observability()

__all__ = [
    "DEFAULT_SAMPLE_INTERVAL",
    "NULL_METRICS",
    "NULL_OBS",
    "NULL_TRACE",
    "WALK_COMPONENTS",
    "MetricsRegistry",
    "MetricsSampler",
    "NullMetricsRegistry",
    "NullTraceRecorder",
    "Observability",
    "TraceRecorder",
    "TraceSchemaError",
    "read_jsonl",
    "validate_chrome_trace",
]
