"""Unit tests for SimulationResult metrics (pure arithmetic paths)."""

import pytest

from repro.gpu.gpu import SimulationResult
from repro.sim.stats import StatsRegistry


def make_result(**overrides) -> SimulationResult:
    params = dict(
        workload="unit",
        cycles=1000,
        instructions=400,
        pw_instructions=100,
        stats=StatsRegistry(),
        num_sms=2,
        stall_cycles=1500,
        memory_wait_cycles=800,
    )
    params.update(overrides)
    return SimulationResult(**params)


class TestSpeedup:
    def test_speedup_over(self):
        fast = make_result(cycles=500)
        slow = make_result(cycles=1000)
        assert fast.speedup_over(slow) == pytest.approx(2.0)
        assert slow.speedup_over(fast) == pytest.approx(0.5)

    def test_zero_cycle_guard(self):
        weird = make_result(cycles=0)
        assert weird.speedup_over(make_result()) == float("inf")


class TestIssueAccounting:
    def test_issued_fraction(self):
        result = make_result(cycles=1000, instructions=400, pw_instructions=100,
                             num_sms=2)
        assert result.issued_fraction == pytest.approx(500 / 2000)
        assert result.stall_fraction == pytest.approx(1 - 500 / 2000)

    def test_issued_fraction_capped_at_one(self):
        result = make_result(cycles=10, instructions=1000, num_sms=1)
        assert result.issued_fraction == 1.0

    def test_empty_run(self):
        result = make_result(cycles=0)
        assert result.issued_fraction == 0.0


class TestWalkLatencyViews:
    def test_components_flow_through(self):
        result = make_result()
        result.stats.latency("walk").record(
            {"queueing": 900, "access": 100, "communication": 40, "execution": 10}
        )
        assert result.walk_latency == pytest.approx(1050.0)
        assert result.walk_queueing == pytest.approx(900.0)
        assert result.walk_access == pytest.approx(100.0)
        assert result.walk_overhead == pytest.approx(50.0)
        assert result.queueing_fraction == pytest.approx(900 / 1050)

    def test_no_walks(self):
        result = make_result()
        assert result.walk_latency == 0.0
        assert result.queueing_fraction == 0.0


class TestCounterViews:
    def test_mpki(self):
        result = make_result(instructions=2000)
        result.stats.counters.add("l2tlb.demand_misses", 50)
        assert result.l2_tlb_mpki == pytest.approx(25.0)
        assert make_result(instructions=0).l2_tlb_mpki == 0.0

    def test_l2_miss_rate(self):
        result = make_result()
        result.stats.counters.add("l2d.accesses", 100)
        result.stats.counters.add("l2d.misses", 20)
        result.stats.counters.add("l2d.sector_misses", 10)
        assert result.l2_cache_miss_rate == pytest.approx(0.3)
        assert make_result().l2_cache_miss_rate == 0.0

    def test_hit_rate_and_failures(self):
        result = make_result()
        result.stats.counters.add("l2tlb.lookups", 10)
        result.stats.counters.add("l2tlb.hits", 3)
        result.stats.counters.add("l2tlb.mshr_failures", 7)
        assert result.stats.counters.ratio("l2tlb.hits", "l2tlb.lookups") == pytest.approx(0.3)
        assert result.mshr_failures == 7

    def test_mean_memory_latency(self):
        result = make_result(memory_wait_cycles=800)
        result.stats.counters.add("gpu.mem_instructions", 40)
        assert result.mean_memory_latency == pytest.approx(20.0)
        assert make_result().mean_memory_latency == 0.0


class TestReplayMetadata:
    def test_defaults(self):
        result = make_result()
        assert result.seed is None
        assert result.complete is True

    def test_effective_seed_recorded_even_when_unseeded(self):
        from repro.config import baseline_config
        from repro.gpu.gpu import GPUSimulator
        from repro.harness.runner import build_workload

        config = baseline_config()
        workload = build_workload("gups", config, scale=0.05, seed=None)
        result = GPUSimulator(config, workload).run()
        assert result.seed == workload.effective_seed
        assert result.seed is not None
        # Replaying from the recorded seed reproduces the run exactly.
        replay_workload = build_workload(
            "gups", config, scale=0.05, seed=result.seed
        )
        replay = GPUSimulator(config, replay_workload).run()
        assert replay.fingerprint() == result.fingerprint()

    def test_explicit_seed_passes_through(self):
        from repro.config import baseline_config
        from repro.gpu.gpu import GPUSimulator
        from repro.harness.runner import build_workload

        config = baseline_config()
        workload = build_workload("gups", config, scale=0.05, seed=1234)
        assert workload.effective_seed == 1234
        result = GPUSimulator(config, workload).run()
        assert result.seed == 1234


class TestFingerprint:
    def test_covers_counters_histograms_and_latencies(self):
        result = make_result()
        result.stats.counters.add("x.hits", 3)
        result.stats.histogram("depth").record(4)
        result.stats.latency("walk").record({"queueing": 10, "access": 20})
        fingerprint = result.fingerprint()
        assert ("x.hits", 3) in fingerprint["counters"]
        assert fingerprint["histograms"]["depth"] == [(4, 1)]
        assert fingerprint["latencies"]["walk"] == (
            1,
            [("access", 20), ("queueing", 10)],
        )

    def test_differs_on_any_stat_change(self):
        first = make_result()
        second = make_result()
        assert first.fingerprint() == second.fingerprint()
        second.stats.counters.add("anything")
        assert first.fingerprint() != second.fingerprint()


class TestPerfMetadata:
    """The optional fingerprint-excluded ``perf`` field (PR-5's
    ``walk_backend`` treatment: absent when None, so pre-existing store
    entries and golden files keep their exact shape)."""

    PERF = {
        "wall_seconds": 1.5,
        "events": 3000,
        "events_per_sec": 2000.0,
        "cycles_per_sec": 666.7,
        "peak_rss_kb": 51200,
    }

    def test_to_dict_omits_perf_when_none(self):
        assert "perf" not in make_result().to_dict()

    def test_round_trips_through_dict(self):
        result = make_result(perf=dict(self.PERF))
        data = result.to_dict()
        assert data["perf"] == self.PERF
        restored = SimulationResult.from_dict(data)
        assert restored.perf == self.PERF
        assert restored.fingerprint() == result.fingerprint()

    def test_from_dict_tolerates_missing_perf(self):
        data = make_result().to_dict()
        assert SimulationResult.from_dict(data).perf is None

    def test_fingerprint_excludes_perf(self):
        bare = make_result()
        timed = make_result(perf=dict(self.PERF))
        assert bare.fingerprint() == timed.fingerprint()
        assert "perf" not in timed.fingerprint()

    def test_harness_attaches_perf(self):
        from repro.config import baseline_config
        from repro.harness.runner import Runner

        result = Runner().run(baseline_config(), "gups", scale=0.02, seed=7)
        assert result.perf is not None
        assert result.perf["wall_seconds"] > 0
        assert result.perf["events"] > 0
        assert result.perf["events_per_sec"] > 0


class TestRunDecomposition:
    def make_sim(self):
        from repro.config import baseline_config
        from repro.gpu.gpu import GPUSimulator
        from repro.harness.runner import build_workload

        config = baseline_config()
        return GPUSimulator(config, build_workload("gups", config, scale=0.05))

    def test_advance_slices_match_monolithic_run(self):
        reference = self.make_sim().run().fingerprint()
        sim = self.make_sim()
        while sim.advance(max_events=700):
            pass
        assert sim.run().fingerprint() == reference

    def test_start_is_idempotent(self):
        sim = self.make_sim()
        sim.start()
        pending = sim.engine.real_pending
        sim.start()
        assert sim.engine.real_pending == pending

    def test_partial_result_mid_run_is_incomplete(self):
        sim = self.make_sim()
        sim.advance(max_events=1_000)
        partial = sim.partial_result()
        assert not partial.complete
        assert partial.cycles == sim.engine.now
        assert sim.warps_remaining > 0

    def test_partial_result_after_drain_is_complete(self):
        sim = self.make_sim()
        while sim.advance(max_events=10_000):
            pass
        assert sim.partial_result().complete
