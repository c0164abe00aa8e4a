"""Tests for the extension features: PWB scheduling and SIMT lockstep."""

import pytest

from repro.config import PTWConfig, baseline_config
from repro.harness.runner import Runner
from repro.workloads.base import WorkloadSpec


def tiny_spec(**overrides):
    params = dict(
        name="ablation_random",
        abbr="abl",
        category="irregular",
        footprint_mb=64,
        pattern="uniform_random",
        compute_per_mem=10,
        warps_per_sm=4,
        mem_insts_per_warp=3,
    )
    params.update(overrides)
    return WorkloadSpec(**params)


class TestPWBScheduling:
    def test_policy_validated(self):
        with pytest.raises(ValueError):
            PTWConfig(pwb_policy="priority")

    def test_sm_batch_policy_runs_and_batches(self):
        config = baseline_config().derive(num_sms=4).with_ptw(
            num_walkers=4, pwb_policy="sm_batch"
        )
        result = Runner().run(config, tiny_spec(), scale=1.0)
        assert result.walks_completed > 0
        assert result.stats.counters.get("ptw.sm_batched") > 0

    def test_scheduling_does_not_change_walk_count(self):
        fcfs = baseline_config().derive(num_sms=4).with_ptw(num_walkers=4)
        batch = fcfs.with_ptw(pwb_policy="sm_batch")
        a = Runner().run(fcfs, tiny_spec(), scale=1.0)
        b = Runner().run(batch, tiny_spec(), scale=1.0)
        # Scheduling reorders work; it cannot manufacture or drop walks
        # (demand misses are workload properties, modulo TLB timing).
        assert b.walks_completed == pytest.approx(a.walks_completed, rel=0.2)


class TestSIMTLockstep:
    def make(self, lockstep: bool):
        return (
            baseline_config()
            .derive(num_sms=4)
            .with_ptw(num_walkers=0)
            .with_softwalker(enabled=True, simt_lockstep=lockstep)
        )

    def test_lockstep_walks_complete(self):
        result = Runner().run(self.make(True), tiny_spec(), scale=1.0)
        assert result.walks_completed > 0
        assert result.stats.counters.get("softwalker.lockstep_walks") > 0

    def test_lockstep_is_slower_than_independent_threads(self):
        spec = tiny_spec()
        independent = Runner().run(self.make(False), spec, scale=1.0)
        lockstep = Runner().run(self.make(True), spec, scale=1.0)
        # Divergence serialises the warp: the paper's independent-thread
        # design must not lose to lockstep.
        assert independent.cycles <= lockstep.cycles * 1.02

    def test_lockstep_matches_translations(self):
        spec = tiny_spec()
        independent = Runner().run(self.make(False), spec, scale=1.0)
        lockstep = Runner().run(self.make(True), spec, scale=1.0)
        assert lockstep.walks_completed > 0
        assert independent.walks_completed > 0
