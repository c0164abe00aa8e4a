"""Tests for Avatar-style TLB speculation (Section 2.3 baseline)."""

import pytest

from repro.config import avatar_config, baseline_config
from repro.gpu.gpu import GPUSimulator
from repro.sim.stats import StatsRegistry
from repro.tlb.speculation import MISPREDICT_PENALTY, ContiguityPredictor
from repro.workloads.base import TraceWorkload, WorkloadSpec


class TestContiguityPredictor:
    def test_no_history_no_prediction(self):
        predictor = ContiguityPredictor(StatsRegistry())
        assert predictor.predict(10) is None

    def test_stride_extrapolation(self):
        predictor = ContiguityPredictor(StatsRegistry())
        predictor.observe(vpn=100, pfn=500)
        assert predictor.predict(101) == 501
        assert predictor.predict(99) == 499
        assert predictor.predict(150) == 550

    def test_negative_prediction_suppressed(self):
        predictor = ContiguityPredictor(StatsRegistry())
        predictor.observe(vpn=100, pfn=3)
        assert predictor.predict(0) is None

    def test_accuracy_tracking(self):
        predictor = ContiguityPredictor(StatsRegistry())
        predictor.record_outcome(True)
        predictor.record_outcome(True)
        predictor.record_outcome(False)
        assert predictor.accuracy() == pytest.approx(2 / 3)
        assert ContiguityPredictor(StatsRegistry()).accuracy() == 0.0


def spec(pattern, category="regular"):
    # "page_walkthrough": one lane stepping a page at a time — the
    # contiguity-friendly access Avatar is built for.
    params = {}
    insts = 4
    if pattern == "page_walkthrough":
        pattern, params, insts = "strided", {"stride_lines": 512, "lanes": 1}, 24
    return WorkloadSpec(
        name=f"spec_{pattern}_{insts}",
        abbr="spc",
        category=category,
        footprint_mb=64,
        pattern=pattern,
        pattern_params=params,
        compute_per_mem=10,
        warps_per_sm=2,
        mem_insts_per_warp=insts,
    )


def run(config, workload_spec, contiguous):
    workload = TraceWorkload(workload_spec, config, contiguous_frames=contiguous)
    return GPUSimulator(config, workload).run()


class TestAvatarEndToEnd:
    def test_contiguous_streaming_speculates_well(self):
        config = avatar_config().derive(num_sms=4)
        result = run(config, spec("page_walkthrough"), contiguous=True)
        counters = result.stats.counters
        correct = counters.get("spec.correct")
        wrong = counters.get("spec.wrong")
        assert correct > 0
        assert correct / (correct + wrong) > 0.5
        # Correct speculations bypass the L2 TLB entirely.
        base = run(baseline_config().derive(num_sms=4), spec("page_walkthrough"), True)
        assert counters.get("l2tlb.lookups") < base.stats.counters.get("l2tlb.lookups")

    def test_scattered_random_defeats_speculation(self):
        config = avatar_config().derive(num_sms=4)
        result = run(config, spec("uniform_random", "irregular"), contiguous=False)
        counters = result.stats.counters
        correct = counters.get("spec.correct")
        wrong = counters.get("spec.wrong")
        assert wrong > 0
        accuracy = correct / max(1, correct + wrong)
        assert accuracy < 0.05, "no contiguity, no speculation wins"
        # Walk contention remains: Avatar does not replace walkers.
        assert result.walks_completed > 0

    def test_speculation_off_by_default(self):
        result = run(
            baseline_config().derive(num_sms=4), spec("page_walkthrough"), contiguous=True
        )
        assert result.stats.counters.get("spec.correct") == 0
        assert result.stats.counters.get("spec.predictions") == 0

    def test_mispredictions_do_not_break_correctness(self):
        config = avatar_config().derive(num_sms=4)
        result = run(config, spec("uniform_random", "irregular"), contiguous=False)
        counters = result.stats.counters
        assert counters.get("walks.launched") == counters.get("walks.completed")
        assert MISPREDICT_PENALTY > 0

    def test_speculation_helps_contiguous_workload(self):
        workload_spec = spec("page_walkthrough")
        base = run(baseline_config().derive(num_sms=4), workload_spec, True)
        avatar = run(avatar_config().derive(num_sms=4), workload_spec, True)
        assert avatar.speedup_over(base) > 0.95
