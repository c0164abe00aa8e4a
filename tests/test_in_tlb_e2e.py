"""End-to-end behaviour of In-TLB MSHR under real workloads (small)."""

import pytest

from repro.config import baseline_config
from repro.harness.runner import Runner
from repro.workloads.base import WorkloadSpec


def pressure_spec():
    """Enough concurrent misses to saturate a shrunken MSHR file."""
    return WorkloadSpec(
        name="intlb_pressure",
        abbr="ip",
        category="irregular",
        footprint_mb=64,
        pattern="uniform_random",
        compute_per_mem=8,
        warps_per_sm=4,
        mem_insts_per_warp=4,
    )


def sw_config(in_tlb: int, *, l2_mshr: int = 16, num_sms: int = 4):
    return (
        baseline_config()
        .derive(num_sms=num_sms)
        .with_l2_tlb(mshr_entries=l2_mshr)
        .with_ptw(num_walkers=0)
        .with_softwalker(enabled=True, in_tlb_mshr_entries=in_tlb)
    )


class TestInTLBEndToEnd:
    def test_failures_monotone_in_capacity(self):
        spec = pressure_spec()
        failures = [
            Runner().run(sw_config(capacity), spec, scale=1.0).mshr_failures
            for capacity in (0, 64, 512)
        ]
        assert failures[0] > 0
        assert failures[0] >= failures[1] >= failures[2]
        assert failures[2] < 0.5 * failures[0]

    def test_capacity_buys_performance_under_pressure(self):
        spec = pressure_spec()
        without = Runner().run(sw_config(0), spec, scale=1.0)
        with_intlb = Runner().run(sw_config(512), spec, scale=1.0)
        assert with_intlb.speedup_over(without) > 1.0

    def test_pending_entries_displace_valid_translations(self):
        # The sy2k effect: pending slots are carved out of live entries,
        # so the TLB's caching capacity shrinks while they are resident.
        # (The *net* hit-rate change is second-order at this scale: fewer
        # failure-retry misses partially offset the lost capacity.)
        spec = pressure_spec()
        without = Runner().run(sw_config(0), spec, scale=1.0)
        with_intlb = Runner().run(sw_config(1024), spec, scale=1.0)
        assert with_intlb.stats.counters.get("l2tlb.pending_allocated") > 0

        def demand_hit_rate(result):
            hits = result.stats.counters.get("l2tlb.hits")
            demand = result.stats.counters.get("l2tlb.demand_misses")
            return hits / (hits + demand)

        # Demand hit rate (retry-free) drops slightly: capacity was lost.
        assert demand_hit_rate(with_intlb) <= demand_hit_rate(without) + 0.01

    def test_in_tlb_unused_when_mshrs_suffice(self):
        config = sw_config(1024, l2_mshr=4096)
        result = Runner().run(config, pressure_spec(), scale=1.0)
        assert result.stats.counters.get("l2tlb.pending_allocated") == 0
        assert result.mshr_failures == 0


class TestHybridOnRegular:
    def test_hybrid_tracks_baseline_on_regular_workload(self):
        spec = WorkloadSpec(
            name="hybrid_regular",
            abbr="hr",
            category="regular",
            footprint_mb=64,
            pattern="streaming",
            compute_per_mem=30,
            warps_per_sm=4,
            mem_insts_per_warp=24,
        )
        small = baseline_config().derive(num_sms=4)
        hybrid = small.with_softwalker(enabled=True, hybrid=True)
        base = Runner().run(small, spec, scale=1.0)
        hyb = Runner().run(hybrid, spec, scale=1.0)
        assert hyb.speedup_over(base) > 0.9, "hybrid must not hurt regulars"
