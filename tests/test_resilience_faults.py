"""Unit tests for fault plans and the deterministic fault injector."""

import pytest

from repro.config import baseline_config, softwalker_config
from repro.gpu.gpu import GPUSimulator
from repro.harness.runner import build_workload
from repro.resilience import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InvariantChecker,
    default_chaos_plan,
)

SCALE = 0.05


def make_sim(config):
    return GPUSimulator(config, build_workload("gups", config, scale=SCALE))


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = default_chaos_plan(seed=3)
        clone = FaultPlan.from_json(plan.to_json())
        assert clone == plan
        assert clone.seed == 3
        assert len(clone) == len(FAULT_KINDS)

    def test_default_plan_covers_every_kind(self):
        plan = default_chaos_plan()
        assert sorted(spec.kind for spec in plan.faults) == sorted(FAULT_KINDS)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="cosmic_ray", time=0)

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="dram_spike", time=-1)

    def test_spec_dict_round_trip_keeps_optionals(self):
        spec = FaultSpec(
            kind="invalidate_pte", time=10, duration=5, magnitude=2, vpn=0x42
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec


#: Chaos runs cover the hardware walkers and SoftWalker's PW warps.
CHAOS_CONFIGS = (baseline_config, softwalker_config)


class TestFaultInjector:
    def test_chaos_run_completes_with_all_kinds_and_no_violations(self):
        for make_config in CHAOS_CONFIGS:
            name = make_config.__name__
            sim = make_sim(make_config())
            checker = InvariantChecker(sim, every=500).attach()
            injector = FaultInjector(sim, default_chaos_plan(seed=7)).arm()
            checker.add_holder(injector)
            result = sim.run()  # raises InvariantViolation on any breakage
            assert result.complete, name
            counters = result.stats.counters
            for kind in FAULT_KINDS:
                assert counters.get(f"chaos.injected.{kind}") == 1, (name, kind)
            assert counters.get("faults.recorded") > 0, name
            assert checker.audits > 0, name

    def test_chaos_run_is_deterministic(self):
        for make_config in CHAOS_CONFIGS:
            config = make_config()

            def chaos_fingerprint():
                sim = make_sim(config)
                FaultInjector(sim, default_chaos_plan(seed=11)).arm()
                return sim.run().fingerprint()

            assert chaos_fingerprint() == chaos_fingerprint(), make_config.__name__

    def test_invalidate_pte_drives_far_fault_path(self):
        config = baseline_config()
        sim = make_sim(config)
        # Invalidate pages mid-run so later walks hit invalid PTEs.
        plan = FaultPlan(
            seed=1,
            faults=tuple(
                FaultSpec(kind="invalidate_pte", time=500 + 300 * i)
                for i in range(8)
            ),
        )
        FaultInjector(sim, plan).arm()
        result = sim.run()
        assert result.complete
        assert result.stats.counters.get("chaos.injected.invalidate_pte") == 8
        # At least one invalidated page was re-walked and far-faulted.
        assert result.stats.counters.get("faults.recorded") > 0

    def test_mshr_exhaustion_restores_capacity(self):
        config = baseline_config()
        sim = make_sim(config)
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    kind="mshr_exhaustion", time=100, duration=500, magnitude=1 << 20
                ),
            )
        )
        FaultInjector(sim, plan).arm()
        sim.run()
        mshr = sim.translation.l2_mshr
        assert mshr.capacity == mshr.nominal_capacity

    def test_walker_stall_skipped_on_software_backend(self):
        config = (
            softwalker_config().with_ptw(num_walkers=0)
        )
        sim = make_sim(config)
        plan = FaultPlan(
            faults=(FaultSpec(kind="walker_stall", time=100, duration=200),)
        )
        FaultInjector(sim, plan).arm()
        result = sim.run()
        assert result.stats.counters.get("chaos.skipped.walker_stall") == 1

    def test_dram_spike_clears_after_duration(self):
        config = baseline_config()
        sim = make_sim(config)
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="dram_spike", time=100, duration=400, magnitude=250),
            )
        )
        FaultInjector(sim, plan).arm()
        sim.run()
        assert sim.memory.dram.extra_latency == 0

    def test_faults_never_extend_a_finished_simulation(self):
        config = baseline_config()
        clean = make_sim(config).run()
        sim = make_sim(config)
        # Scheduled far beyond the natural end: daemons must be dropped.
        plan = FaultPlan(
            faults=(FaultSpec(kind="dram_spike", time=clean.cycles * 10),)
        )
        FaultInjector(sim, plan).arm()
        result = sim.run()
        assert result.cycles == clean.cycles
        assert result.stats.counters.get("chaos.injected.dram_spike") == 0

    def test_arm_twice_rejected(self):
        sim = make_sim(baseline_config())
        injector = FaultInjector(sim, default_chaos_plan())
        injector.arm()
        with pytest.raises(RuntimeError):
            injector.arm()

    def test_delayed_completions_visible_to_audit(self):
        config = baseline_config()
        sim = make_sim(config)
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    kind="delay_completion", time=200, duration=5_000, magnitude=800
                ),
            )
        )
        checker = InvariantChecker(sim, every=200).attach()
        injector = FaultInjector(sim, plan).arm()
        checker.add_holder(injector)
        result = sim.run()
        # Completions were actually held back, audits ran throughout,
        # and no conservation violation fired (the injector's holdings
        # count as live walks).
        assert result.stats.counters.get("chaos.delayed_completions") > 0
        assert checker.audits > 0
        assert injector.live_requests() == []
