"""Tests for the observability layer: tracing, metrics, schema, wiring."""

import json

import pytest

from repro.config import baseline_config, softwalker_config
from repro.gpu.gpu import GPUSimulator
from repro.harness.runner import build_workload
from repro.obs import (
    NULL_OBS,
    WALK_COMPONENTS,
    MetricsRegistry,
    MetricsSampler,
    NullMetricsRegistry,
    NullTraceRecorder,
    Observability,
    TraceRecorder,
    TraceSchemaError,
    read_jsonl,
    validate_chrome_trace,
)
from repro.sim.engine import Engine

TINY = 0.02


# ----------------------------------------------------------------------
# TraceRecorder
# ----------------------------------------------------------------------
class TestTraceRecorder:
    def test_begin_end_nest_in_lifo_order(self):
        trace = TraceRecorder()
        trace.begin("t", "outer", 0)
        trace.begin("t", "inner", 5)
        assert trace.end("t", 8) == "inner"
        assert trace.end("t", 10) == "outer"
        assert trace.open_spans() == 0
        durations = trace.span_durations()
        assert durations == {"inner": 3, "outer": 10}

    def test_end_without_begin_raises(self):
        trace = TraceRecorder()
        with pytest.raises(ValueError):
            trace.end("t", 0)

    def test_complete_rejects_negative_duration(self):
        trace = TraceRecorder()
        with pytest.raises(ValueError):
            trace.complete("t", "x", 10, -1)

    def test_new_ids_are_unique(self):
        trace = TraceRecorder()
        ids = {trace.new_id() for _ in range(100)}
        assert len(ids) == 100
        assert 0 not in ids  # 0 is the null recorder's answer

    def test_chrome_trace_is_schema_valid(self):
        trace = TraceRecorder()
        trace.begin("sm0", "issue", 0, warp=3)
        trace.instant("sm0", "miss", 2, vpn=0x40)
        trace.end("sm0", 4)
        trace.complete("l2tlb", "lookup", 4, 10)
        trace.counter("l2tlb", "depth", 5, depth=7)
        trace.async_begin("walk", 1, 4)
        trace.async_end("walk", 1, 30)
        count = validate_chrome_trace(trace.chrome_trace())
        assert count == trace.num_events

    def test_tracks_become_named_threads(self):
        trace = TraceRecorder()
        trace.instant("sm0", "a", 0)
        trace.instant("l2tlb", "b", 1)
        names = {
            event["args"]["name"]
            for event in trace.events()
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert names == {"sm0", "l2tlb"}

    def test_lifecycle_components_sum_to_span(self):
        trace = TraceRecorder()
        components = {"queueing": 40, "communication": 6, "execution": 10, "access": 44}
        trace.lifecycle("walk", trace.new_id(), 200, components, vpn=7)
        durations = trace.span_durations("walk.")
        assert durations == {f"walk.{k}": v for k, v in components.items()}
        assert sum(durations.values()) == 100
        # The envelope span covers [end - total, end].
        envelope = trace.span_durations("walk")["walk"]
        assert envelope == sum(components.values())
        validate_chrome_trace(trace.chrome_trace())

    def test_lifecycle_skips_zero_components(self):
        trace = TraceRecorder()
        trace.lifecycle("walk", 1, 50, {"queueing": 50, "execution": 0})
        assert "walk.execution" not in trace.span_durations("walk.")

    def test_lifecycle_leg_order_follows_walk_components(self):
        trace = TraceRecorder()
        trace.lifecycle(
            "walk", 1, 100, {"access": 10, "queueing": 70, "communication": 20}
        )
        legs = [
            event["name"]
            for event in trace.events()
            if event["ph"] == "b" and "." in event.get("name", "")
        ]
        expected = [f"walk.{c}" for c in WALK_COMPONENTS if c != "execution"]
        assert legs == expected

    def test_jsonl_roundtrip(self, tmp_path):
        trace = TraceRecorder()
        trace.instant("t", "ping", 1, k="v")
        trace.complete("t", "work", 2, 5)
        path = trace.write_jsonl(tmp_path / "events.jsonl")
        assert list(read_jsonl(path)) == trace.events()

    def test_write_chrome_produces_loadable_json(self, tmp_path):
        trace = TraceRecorder()
        trace.instant("t", "ping", 1)
        path = trace.write_chrome(tmp_path / "trace.json")
        document = json.loads(path.read_text())
        assert validate_chrome_trace(document) == trace.num_events
        assert document["otherData"]["clock"] == "gpu-cycles"

    def test_null_recorder_is_inert(self):
        null = NullTraceRecorder()
        assert not null.enabled
        null.begin("t", "x", 0)
        null.end("t", 1)
        null.instant("t", "y", 2)
        null.lifecycle("walk", null.new_id(), 10, {"queueing": 10})
        assert null.events() == []
        assert null.new_id() == 0


# ----------------------------------------------------------------------
# Schema validation
# ----------------------------------------------------------------------
class TestSchema:
    def test_accepts_bare_event_array(self):
        events = [{"ph": "i", "name": "x", "pid": 1, "tid": 1, "ts": 0, "s": "t"}]
        assert validate_chrome_trace(events) == 1

    def test_rejects_unknown_phase(self):
        with pytest.raises(TraceSchemaError):
            validate_chrome_trace(
                [{"ph": "Z", "name": "x", "pid": 1, "tid": 1, "ts": 0}]
            )

    def test_rejects_unbalanced_duration_spans(self):
        with pytest.raises(TraceSchemaError):
            validate_chrome_trace(
                [{"ph": "B", "name": "open", "pid": 1, "tid": 1, "ts": 0}]
            )

    def test_rejects_mismatched_end_name(self):
        with pytest.raises(TraceSchemaError):
            validate_chrome_trace(
                [
                    {"ph": "B", "name": "a", "pid": 1, "tid": 1, "ts": 0},
                    {"ph": "E", "name": "b", "pid": 1, "tid": 1, "ts": 1},
                ]
            )

    def test_rejects_negative_timestamp(self):
        with pytest.raises(TraceSchemaError):
            validate_chrome_trace(
                [{"ph": "i", "name": "x", "pid": 1, "tid": 1, "ts": -1, "s": "t"}]
            )


# ----------------------------------------------------------------------
# MetricsRegistry + sampler
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_duplicate_gauge_is_an_error(self):
        metrics = MetricsRegistry()
        metrics.register_gauge("q.depth", lambda: 0)
        with pytest.raises(ValueError):
            metrics.register_gauge("q.depth", lambda: 1)

    def test_sampling_appends_time_series(self):
        metrics = MetricsRegistry()
        state = {"depth": 0}
        metrics.register_gauge("q.depth", lambda: state["depth"])
        for now, depth in [(0, 1), (10, 5), (20, 2)]:
            state["depth"] = depth
            metrics.sample(now)
        assert metrics.series("q.depth") == [(0, 1.0), (10, 5.0), (20, 2.0)]
        assert metrics.last("q.depth") == 2.0
        assert metrics.mean("q.depth") == pytest.approx(8 / 3)
        assert metrics.peak("q.depth") == 5.0
        assert metrics.samples_taken == 3

    def test_json_export_roundtrip(self, tmp_path):
        metrics = MetricsRegistry()
        metrics.register_gauge("g", lambda: 4)
        metrics.sample(5)
        path = metrics.write_json(tmp_path / "metrics.json")
        loaded = json.loads(path.read_text())
        assert loaded == {"series": {"g": [[5, 4.0]]}, "samples_taken": 1}

    def test_null_registry_is_inert(self):
        null = NullMetricsRegistry()
        assert not null.enabled
        null.register_gauge("x", lambda: 1)
        null.sample(0)
        assert null.gauge_names() == []
        assert null.series("x") == []

    def test_sampler_ticks_at_fixed_interval(self):
        engine = Engine()
        metrics = MetricsRegistry()
        metrics.register_gauge("clock", lambda: engine.now)
        MetricsSampler(engine, metrics, 10).start()
        engine.schedule(35, lambda: None)  # real work keeps daemons alive
        engine.run()
        assert [t for t, _v in metrics.series("clock")] == [0, 10, 20, 30]

    def test_sampler_never_extends_the_clock(self):
        engine = Engine()
        metrics = MetricsRegistry()
        metrics.register_gauge("x", lambda: 0)
        MetricsSampler(engine, metrics, 5).start()
        engine.schedule(12, lambda: None)
        engine.run()
        assert engine.now == 12
        assert engine.pending_events == 0

    def test_sampler_rejects_bad_interval_and_double_start(self):
        engine = Engine()
        with pytest.raises(ValueError):
            MetricsSampler(engine, MetricsRegistry(), 0)
        sampler = MetricsSampler(engine, MetricsRegistry(), 1)
        sampler.start()
        with pytest.raises(RuntimeError):
            sampler.start()


# ----------------------------------------------------------------------
# Observability bundle
# ----------------------------------------------------------------------
class TestObservability:
    def test_default_is_fully_disabled(self):
        assert not NULL_OBS.enabled
        assert not NULL_OBS.trace.enabled
        assert not NULL_OBS.metrics.enabled

    def test_constructors(self):
        tracing = Observability(trace=TraceRecorder())
        assert tracing.trace.enabled
        assert not tracing.metrics.enabled
        assert Observability.sampling(50).sample_interval == 50
        full = Observability.full()
        assert full.trace.enabled and full.metrics.enabled
        assert full.enabled


# ----------------------------------------------------------------------
# End-to-end wiring through the simulator
# ----------------------------------------------------------------------
def _run(config, obs=None, benchmark="gups"):
    workload = build_workload(benchmark, config, scale=TINY)
    return GPUSimulator(config, workload, obs=obs).run()


class TestSimulatorIntegration:
    @pytest.mark.parametrize(
        "make_config", [baseline_config, softwalker_config], ids=["hw", "sw"]
    )
    def test_traced_run_is_identical_to_untraced(self, make_config):
        config = make_config()
        plain = _run(config)
        obs = Observability.full(interval=100)
        traced = _run(config, obs=obs)
        assert traced.cycles == plain.cycles
        assert traced.instructions == plain.instructions
        assert (
            traced.stats.counters.as_dict() == plain.stats.counters.as_dict()
        )

    def test_trace_is_schema_valid_and_closed(self):
        obs = Observability(trace=TraceRecorder())
        _run(baseline_config(), obs=obs)
        assert obs.trace.open_spans() == 0
        assert validate_chrome_trace(obs.trace.chrome_trace()) == obs.trace.num_events

    @pytest.mark.parametrize(
        "make_config", [baseline_config, softwalker_config], ids=["hw", "sw"]
    )
    def test_trace_breakdown_matches_latency_aggregates(self, make_config):
        obs = Observability(trace=TraceRecorder())
        result = _run(make_config(), obs=obs)
        spans = obs.trace.span_durations("walk.")
        tracker = result.stats.latency("walk")
        total = sum(spans.values())
        assert total > 0
        for component in WALK_COMPONENTS:
            from_trace = spans.get(f"walk.{component}", 0)
            assert from_trace == tracker.components().get(component, 0)
            share = from_trace / total
            assert share == pytest.approx(
                tracker.component_shares().get(component, 0.0), abs=0.01
            )

    def test_walk_count_in_trace_matches_counter(self):
        obs = Observability(trace=TraceRecorder())
        result = _run(baseline_config(), obs=obs)
        launches = sum(
            1 for e in obs.trace.events() if e.get("name") == "walk.launch"
        )
        envelopes = sum(
            1
            for e in obs.trace.events()
            if e["ph"] == "b" and e.get("name") == "walk"
        )
        assert envelopes == result.walks_completed
        assert launches >= envelopes  # launches may still be in flight at drain

    def test_metrics_gauges_are_sampled(self):
        obs = Observability.sampling(interval=200)
        _run(softwalker_config(), obs=obs)
        names = obs.metrics.gauge_names()
        assert "l2tlb.hit_rate" in names
        assert "distributor.in_flight" in names
        assert "engine.pending_events" in names
        assert obs.metrics.samples_taken > 1
        for name in names:
            assert len(obs.metrics.series(name)) == obs.metrics.samples_taken

    def test_metrics_sampling_is_deterministic(self):
        first = Observability.sampling(interval=300)
        second = Observability.sampling(interval=300)
        _run(softwalker_config(), obs=first)
        _run(softwalker_config(), obs=second)
        assert first.metrics.to_dict() == second.metrics.to_dict()


class CountingNullTrace(NullTraceRecorder):
    """A null trace that counts how often hook sites read ``enabled``."""

    __slots__ = ("reads",)

    def __init__(self) -> None:
        self.reads = 0

    @property
    def enabled(self) -> bool:
        self.reads += 1
        return False


class TestHookGuards:
    """Counts the guards an untraced run evaluates per engine event.

    ``smoke/test_obs_overhead.py`` times one guard and multiplies it by
    this count on its own run; here the count is held to 16 per event,
    whatever the host's speed."""

    @pytest.mark.parametrize(
        "config",
        [baseline_config(), softwalker_config(), softwalker_config(hybrid=True)],
        ids=["hw", "sw", "hybrid"],
    )
    def test_guard_reads_per_event_stay_within_the_budget(self, config):
        trace = CountingNullTrace()
        workload = build_workload("gups", config, scale=TINY)
        sim = GPUSimulator(config, workload, obs=Observability(trace=trace))
        result = sim.run()
        events = sim.engine.events_processed
        assert result.fingerprint() == _run(config).fingerprint()
        assert trace.reads > 0
        assert trace.reads / events <= 16
