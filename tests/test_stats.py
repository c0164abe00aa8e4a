"""Unit tests for counters, histograms, latency trackers."""

import pytest

from repro.sim.stats import Counter, Histogram, LatencyTracker, StatsRegistry


class TestCounter:
    def test_add_and_get(self):
        c = Counter()
        c.add("hits")
        c.add("hits", 4)
        assert c.get("hits") == 5
        assert c.get("absent") == 0

    def test_ratio(self):
        c = Counter()
        c.add("hits", 3)
        c.add("lookups", 4)
        assert c.ratio("hits", "lookups") == pytest.approx(0.75)
        assert c.ratio("hits", "absent") == 0.0

    def test_as_dict_is_a_copy(self):
        c = Counter()
        c.add("x")
        d = c.as_dict()
        d["x"] = 99
        assert c.get("x") == 1


class TestHistogram:
    def test_summary_stats(self):
        h = Histogram()
        for v in [1, 2, 2, 5]:
            h.record(v)
        assert h.count == 4
        assert h.total == 10
        assert h.mean == pytest.approx(2.5)
        assert h.maximum == 5

    def test_weighted_record(self):
        h = Histogram()
        h.record(3, weight=10)
        assert h.count == 10 and h.total == 30

    def test_percentile(self):
        h = Histogram()
        for v in range(1, 101):
            h.record(v)
        assert h.percentile(0.5) == 50
        assert h.percentile(1.0) == 100
        with pytest.raises(ValueError):
            h.percentile(0.0)

    def test_empty_histogram(self):
        h = Histogram()
        assert h.mean == 0.0
        assert h.percentile(0.5) == 0
        assert h.maximum == 0


class TestLatencyTracker:
    def test_component_accounting(self):
        t = LatencyTracker()
        t.record({"queueing": 100, "access": 50})
        t.record({"queueing": 300, "access": 50})
        assert t.count == 2
        assert t.mean_total == pytest.approx(250.0)
        assert t.component_mean("queueing") == pytest.approx(200.0)
        assert t.component_fraction("queueing") == pytest.approx(400 / 500)

    def test_rejects_negative_components(self):
        t = LatencyTracker()
        with pytest.raises(ValueError):
            t.record({"queueing": -1})

    def test_empty_tracker(self):
        t = LatencyTracker()
        assert t.mean_total == 0.0
        assert t.component_fraction("x") == 0.0


class TestStatsRegistry:
    def test_histograms_and_latencies_are_memoised(self):
        s = StatsRegistry()
        assert s.histogram("a") is s.histogram("a")
        assert s.latency("w") is s.latency("w")
        s.histogram("b")
        assert s.histogram_names() == ["a", "b"]
        assert s.latency_names() == ["w"]


class TestHistogramPercentiles:
    def test_percentiles_rejects_out_of_range(self):
        h = Histogram()
        h.record(1)
        with pytest.raises(ValueError):
            h.percentile(0.0)
        with pytest.raises(ValueError):
            h.percentile(1.5)

    def test_median(self):
        h = Histogram()
        for value in [1, 2, 3, 4, 100]:
            h.record(value)
        assert h.median == 3


class TestLatencyTrackerShares:
    def test_component_shares_sum_to_one(self):
        tracker = LatencyTracker()
        tracker.record({"queueing": 70, "access": 20, "communication": 10})
        tracker.record({"queueing": 30, "access": 60, "communication": 10})
        shares = tracker.component_shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["queueing"] == pytest.approx(0.5)
        assert shares["access"] == pytest.approx(0.4)

    def test_mean_components(self):
        tracker = LatencyTracker()
        tracker.record({"queueing": 100, "access": 50})
        tracker.record({"queueing": 200, "access": 150})
        means = {name: tracker.component_mean(name) for name in tracker.components()}
        assert means == {"queueing": 150.0, "access": 100.0}

    def test_empty_tracker_shares(self):
        tracker = LatencyTracker()
        assert tracker.component_shares() == {}
        assert tracker.components() == {}


class TestStatsObservability:
    def test_registry_defaults_to_null_obs(self):
        from repro.obs import NULL_OBS

        registry = StatsRegistry()
        assert registry.obs is NULL_OBS
        assert not registry.obs.trace.enabled

    def test_registry_carries_supplied_bundle(self):
        from repro.obs import Observability, TraceRecorder

        obs = Observability(trace=TraceRecorder())
        registry = StatsRegistry(obs)
        assert registry.obs is obs
        assert registry.obs.trace.enabled
