"""Statistics primitives shared by every simulated component.

Three building blocks cover everything the paper reports:

* :class:`Counter` — named monotonically increasing event counts
  (TLB hits/misses, MSHR failures, issued instructions, ...).
* :class:`Histogram` — value distributions (walk levels, queue depths).
* :class:`LatencyTracker` — per-request latency accumulation split into
  named components, used for the queueing-delay vs page-table-access
  breakdown of Figures 7 and 18.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Mapping


class Counter:
    """A bag of named integer counters."""

    def __init__(self) -> None:
        self._counts: dict[str, int] = defaultdict(int)

    def add(self, name: str, amount: int = 1) -> None:
        self._counts[name] += amount

    def live(self) -> dict[str, int]:
        """The mutable name -> count mapping itself (hot-path accessor).

        Components that bump the same counter hundreds of thousands of
        times per run hoist this mapping and precompute their counter
        names, so each event costs one dict ``+= 1`` instead of a method
        call plus an f-string.  The mapping is a ``defaultdict(int)``
        and the reference stays valid across :meth:`reset` (which clears
        in place, never rebinds).
        """
        return self._counts

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> dict[str, int]:
        return dict(self._counts)

    def reset(self) -> None:
        self._counts.clear()

    def ratio(self, numerator: str, denominator: str) -> float:
        """``numerator / denominator`` counts, 0.0 when the denominator is 0."""
        denom = self.get(denominator)
        if denom == 0:
            return 0.0
        return self.get(numerator) / denom

    def to_dict(self) -> dict[str, int]:
        """JSON-safe snapshot (alias of :meth:`as_dict` for symmetry)."""
        return self.as_dict()

    @classmethod
    def from_dict(cls, data: dict[str, int]) -> "Counter":
        counter = cls()
        for name, value in data.items():
            counter._counts[name] = int(value)
        return counter

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        items = ", ".join(f"{k}={v}" for k, v in sorted(self._counts.items()))
        return f"Counter({items})"


class Histogram:
    """Integer-valued histogram with summary statistics.

    Recording is one bucket add; the count, total and extremes are
    derived from the buckets when read.
    """

    def __init__(self) -> None:
        self._buckets: dict[int, int] = defaultdict(int)

    def record(self, value: int, weight: int = 1) -> None:
        self._buckets[value] += weight

    @property
    def count(self) -> int:
        return sum(self._buckets.values())

    @property
    def total(self) -> int:
        return sum(value * weight for value, weight in self._buckets.items())

    @property
    def mean(self) -> float:
        count = self.count
        return self.total / count if count else 0.0

    @property
    def maximum(self) -> int:
        return max(self._buckets) if self._buckets else 0

    @property
    def minimum(self) -> int:
        return min(self._buckets) if self._buckets else 0

    def percentile(self, fraction: float) -> int:
        """Value at the given cumulative fraction (0 < fraction <= 1)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        count = self.count
        if count == 0:
            return 0
        target = fraction * count
        running = 0
        for value in sorted(self._buckets):
            running += self._buckets[value]
            if running >= target:
                return value
        return self.maximum

    def percentiles(self, fractions: Iterable[float]) -> dict[float, int]:
        """Values at several cumulative fractions in one bucket pass."""
        ordered = sorted(fractions)
        if not ordered:
            return {}
        if ordered[0] <= 0.0 or ordered[-1] > 1.0:
            raise ValueError("fractions must be in (0, 1]")
        out: dict[float, int] = {}
        count = self.count
        if count == 0:
            return {fraction: 0 for fraction in ordered}
        running = 0
        cursor = 0
        for value in sorted(self._buckets):
            running += self._buckets[value]
            while cursor < len(ordered) and running >= ordered[cursor] * count:
                out[ordered[cursor]] = value
                cursor += 1
            if cursor == len(ordered):
                break
        for fraction in ordered[cursor:]:
            out[fraction] = self.maximum
        return out

    @property
    def median(self) -> int:
        return self.percentile(0.5)

    def as_dict(self) -> dict[int, int]:
        return dict(self._buckets)

    def to_dict(self) -> dict:
        """JSON-safe form: buckets as sorted ``[value, weight]`` pairs."""
        return {"buckets": [[v, self._buckets[v]] for v in sorted(self._buckets)]}

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        histogram = cls()
        for value, weight in data["buckets"]:
            histogram.record(int(value), int(weight))
        return histogram


class LatencyTracker:
    """Accumulates per-request latencies split into named components.

    SoftWalker's analysis hinges on separating *queueing delay* (time a
    walk waits for a walker) from *access latency* (time spent actually
    traversing the page table).  Components are free-form strings so the
    same tracker also covers communication and instruction-execution
    overheads of the software walker.
    """

    def __init__(self) -> None:
        self._component_totals: dict[str, int] = defaultdict(int)
        self._count = 0

    def record(self, components: Mapping[str, int]) -> None:
        """Record one completed request, e.g. ``record({"queueing": 120, "access": 300})``."""
        totals = self._component_totals
        for name, value in components.items():
            if value < 0:
                raise ValueError(f"negative latency component {name}={value}")
            totals[name] += value
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> int:
        """The grand total: the sum of the component totals."""
        return sum(self._component_totals.values())

    @property
    def mean_total(self) -> float:
        return self.total / self._count if self._count else 0.0

    def component_total(self, name: str) -> int:
        return self._component_totals.get(name, 0)

    def component_mean(self, name: str) -> float:
        if self._count == 0:
            return 0.0
        return self._component_totals.get(name, 0) / self._count

    def component_fraction(self, name: str) -> float:
        """Fraction of the grand total attributed to one component."""
        total = self.total
        if total == 0:
            return 0.0
        return self._component_totals.get(name, 0) / total

    def component_shares(self) -> dict[str, float]:
        """Every component's fraction of the grand total (sums to 1.0).

        The Figure 7/18 stacked-bar breakdown in one call — reports and
        trace exporters should use this instead of recomputing ratios.
        """
        total = self.total
        if total == 0:
            return {name: 0.0 for name in self._component_totals}
        return {
            name: value / total for name, value in self._component_totals.items()
        }

    def mean_components(self) -> dict[str, float]:
        """Per-request mean of every component (cycles)."""
        if self._count == 0:
            return {name: 0.0 for name in self._component_totals}
        return {
            name: value / self._count
            for name, value in self._component_totals.items()
        }

    def components(self) -> dict[str, int]:
        return dict(self._component_totals)

    def to_dict(self) -> dict:
        """JSON-safe form: request count plus per-component totals."""
        return {"count": self._count, "components": dict(self._component_totals)}

    @classmethod
    def from_dict(cls, data: dict) -> "LatencyTracker":
        tracker = cls()
        tracker._count = int(data["count"])
        for name, value in data["components"].items():
            tracker._component_totals[name] = int(value)
        return tracker


class StatsRegistry:
    """Top-level container handed to every component of a simulation.

    Keeps one shared :class:`Counter` plus named histograms and latency
    trackers, so experiment harnesses can pull every statistic from a
    single object after a run.

    The registry also carries the run's observability bundle
    (:class:`~repro.obs.Observability`): since every component already
    receives ``stats``, the trace recorder and metrics registry ride
    along without widening any constructor.  The default bundle is all
    null objects, so untraced runs pay one branch per hook site.
    """

    def __init__(self, obs=None) -> None:
        if obs is None:
            from repro.obs import NULL_OBS

            obs = NULL_OBS
        self.obs = obs
        self.counters = Counter()
        self._histograms: dict[str, Histogram] = {}
        self._latencies: dict[str, LatencyTracker] = {}

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram()
        return self._histograms[name]

    def latency(self, name: str) -> LatencyTracker:
        if name not in self._latencies:
            self._latencies[name] = LatencyTracker()
        return self._latencies[name]

    def histogram_names(self) -> list[str]:
        return sorted(self._histograms)

    def latency_names(self) -> list[str]:
        return sorted(self._latencies)

    # ------------------------------------------------------------------
    # Serialization (the persistent result store's wire format)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe snapshot of every counter, histogram, and tracker.

        The observability bundle is deliberately excluded: it holds live
        recorders, not results.  :meth:`from_dict` restores a registry
        whose derived statistics — including everything
        :meth:`~repro.gpu.gpu.SimulationResult.fingerprint` reads — are
        identical to the original's.
        """
        return {
            "counters": self.counters.to_dict(),
            "histograms": {
                name: self._histograms[name].to_dict()
                for name in self.histogram_names()
            },
            "latencies": {
                name: self._latencies[name].to_dict()
                for name in self.latency_names()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StatsRegistry":
        registry = cls()
        registry.counters = Counter.from_dict(data["counters"])
        for name, payload in data["histograms"].items():
            registry._histograms[name] = Histogram.from_dict(payload)
        for name, payload in data["latencies"].items():
            registry._latencies[name] = LatencyTracker.from_dict(payload)
        return registry
