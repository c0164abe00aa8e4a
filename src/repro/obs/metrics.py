"""Time-series metrics: gauges and the periodic sampler.

Components *register* zero-argument gauge callables (queue depth, MSHR
occupancy, hit rate, walker utilisation); a :class:`MetricsSampler` —
an ordinary engine-scheduled event — polls every gauge at a fixed cycle
interval and appends ``(cycle, value)`` points to per-gauge series.

Like the trace recorder, the registry has a null twin: registration and
sampling on :class:`NullMetricsRegistry` are no-ops, so wiring gauges
unconditionally costs nothing when metrics are off.

Sampler events are scheduled as *daemon* events (see
:meth:`repro.sim.engine.Engine.schedule_daemon`): they ride along while
real work is pending and are dropped once only housekeeping remains, so
sampling can never extend a simulation's cycle count.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from repro.obs.trace import NULL_TRACE


class NullMetricsRegistry:
    """No-op registry: the disabled-mode null object."""

    __slots__ = ()

    enabled = False

    def register_gauge(self, name: str, fn: Callable[[], float]) -> None:
        pass

    def sample(self, now: int) -> None:
        pass

    def release(self) -> None:
        pass

    def gauge_names(self) -> list[str]:
        return []

    def series(self, name: str) -> list[tuple[int, float]]:
        return []


#: Shared disabled-mode singleton.
NULL_METRICS = NullMetricsRegistry()


class MetricsRegistry:
    """Named gauges, sampled into time series."""

    enabled = True

    def __init__(self) -> None:
        self._gauges: dict[str, Callable[[], float]] = {}
        self._series: dict[str, list[tuple[int, float]]] = {}
        self._samples_taken = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Register a zero-argument callable sampled on every tick.

        Gauge names are dotted ``component.metric`` paths (metric naming
        conventions live in docs/observability.md).  Re-registering a
        name is an error: two components fighting over one series is a
        wiring bug.
        """
        if name in self._series:
            raise ValueError(f"gauge {name!r} already registered")
        self._gauges[name] = fn
        self._series[name] = []

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, now: int) -> None:
        """Poll every gauge once, appending ``(now, value)`` per series."""
        for name, fn in self._gauges.items():
            self._series[name].append((now, float(fn())))
        self._samples_taken += 1

    def release(self) -> None:
        """Drop the gauge callables once the run is over; keep the series.

        Gauges close over live components, so whoever holds the
        registry after a run would otherwise keep the whole machine.
        """
        self._gauges.clear()

    @property
    def samples_taken(self) -> int:
        return self._samples_taken

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def gauge_names(self) -> list[str]:
        return sorted(self._series)

    def series(self, name: str) -> list[tuple[int, float]]:
        return list(self._series.get(name, []))

    def last(self, name: str) -> float | None:
        points = self._series.get(name)
        if not points:
            return None
        return points[-1][1]

    def mean(self, name: str) -> float:
        points = self._series.get(name)
        if not points:
            return 0.0
        return sum(value for _t, value in points) / len(points)

    def peak(self, name: str) -> float:
        points = self._series.get(name)
        if not points:
            return 0.0
        return max(value for _t, value in points)

    def to_dict(self) -> dict:
        return {
            "series": {
                name: [[t, v] for t, v in points]
                for name, points in sorted(self._series.items())
            },
            "samples_taken": self._samples_taken,
        }

    def write_json(self, path: str | Path) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_dict()))
        return target


class MetricsSampler:
    """Engine-scheduled periodic gauge sampler.

    One daemon event every ``interval`` cycles: sample every registered
    gauge and (when tracing) mirror the values as Chrome counter events
    so queue depths plot directly under the request timeline.  Because
    the events are daemons, the sampler self-terminates with the real
    workload and never perturbs ``engine.now``.
    """

    def __init__(
        self,
        engine,
        metrics: MetricsRegistry,
        interval: int,
        *,
        trace=NULL_TRACE,
    ) -> None:
        if interval < 1:
            raise ValueError("sampling interval must be >= 1 cycle")
        self.engine = engine
        self.metrics = metrics
        self.interval = interval
        self.trace = trace
        self._started = False

    def start(self) -> None:
        """Schedule the first tick at the current cycle."""
        if self._started:
            raise RuntimeError("sampler already started")
        self._started = True
        self.engine.schedule_daemon(0, self._tick)

    def _tick(self) -> None:
        now = self.engine.now
        self.metrics.sample(now)
        if self.trace.enabled:
            for name in self.metrics.gauge_names():
                value = self.metrics.last(name)
                if value is not None:
                    self.trace.counter("metrics", name, now, value=value)
        self.engine.schedule_daemon(self.interval, self._tick)
