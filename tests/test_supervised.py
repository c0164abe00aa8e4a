"""Tests for supervised execution: watchdog, retry, degrade, resume."""

import pytest

from repro.config import baseline_config
from repro.gpu.gpu import GPUSimulator
from repro.harness.runner import build_workload
from repro.harness.supervised import (
    AttemptAbandoned,
    SupervisionPolicy,
    WatchdogTimeout,
    run_supervised,
)
from repro.resilience import InvariantViolation, default_chaos_plan

SCALE = 0.05


def sim_factory(config):
    def make_sim():
        return GPUSimulator(config, build_workload("gups", config, scale=SCALE))

    return make_sim


def fake_clock(seconds_per_tick):
    state = {"now": 0.0}

    def clock():
        state["now"] += seconds_per_tick
        return state["now"]

    return clock


class TestHappyPath:
    def test_supervised_matches_plain_run(self):
        config = baseline_config()
        plain = sim_factory(config)().run().fingerprint()
        report = run_supervised(
            sim_factory(config), policy=SupervisionPolicy(slice_events=1_000)
        )
        assert report.attempts == 1
        assert not report.degraded
        assert report.result.complete
        assert report.result.fingerprint() == plain

    def test_checkpoints_are_taken(self):
        config = baseline_config()
        report = run_supervised(
            sim_factory(config),
            policy=SupervisionPolicy(slice_events=1_000, checkpoint_every=2),
        )
        assert report.checkpoints > 0
        assert report.result.complete

    def test_chaos_plan_and_audits_ride_along(self):
        config = baseline_config()
        report = run_supervised(
            sim_factory(config),
            policy=SupervisionPolicy(slice_events=2_000, audit_every=500),
            plan=default_chaos_plan(seed=7),
        )
        assert report.result.complete
        assert report.faults_injected == 6
        assert report.audits > 0


class TestHeartbeat:
    def test_heartbeat_fires_every_slice_by_default(self):
        config = baseline_config()
        beats = []
        run_supervised(
            sim_factory(config),
            policy=SupervisionPolicy(slice_events=1_000),
            heartbeat=lambda sim: beats.append(sim.engine.events_processed),
        )
        assert len(beats) > 1
        assert beats == sorted(beats)  # monotone progress

    def test_abandoned_attempt_propagates_unretried(self):
        """A heartbeat that raises AttemptAbandoned — the fleet's
        lease-lost signal — aborts the run immediately: no retry, no
        degraded partial result."""
        config = baseline_config()
        attempts = []

        def abandon(_sim):
            attempts.append(1)
            raise AttemptAbandoned("lease went stale")

        with pytest.raises(AttemptAbandoned):
            run_supervised(
                sim_factory(config),
                policy=SupervisionPolicy(
                    slice_events=1_000, max_retries=3, degrade=True
                ),
                heartbeat=abandon,
            )
        assert len(attempts) == 1


class TestWatchdog:
    def test_timeout_retries_then_degrades(self):
        config = baseline_config()
        sleeps = []
        report = run_supervised(
            sim_factory(config),
            policy=SupervisionPolicy(
                slice_events=500,
                wall_clock_limit=1.0,
                max_retries=2,
                backoff_base=0.5,
                degrade=True,
            ),
            clock=fake_clock(10.0),  # every slice blows the 1s budget
            sleep=sleeps.append,
        )
        assert report.attempts == 3  # initial + 2 retries
        assert report.degraded
        assert not report.result.complete
        assert len(report.failures) == 3
        assert sleeps == [0.5, 1.0]  # exponential backoff

    def test_timeout_raises_when_degrade_off(self):
        config = baseline_config()
        with pytest.raises(WatchdogTimeout):
            run_supervised(
                sim_factory(config),
                policy=SupervisionPolicy(
                    slice_events=500,
                    wall_clock_limit=1.0,
                    max_retries=0,
                    degrade=False,
                ),
                clock=fake_clock(10.0),
                sleep=lambda s: None,
            )

    def test_retry_resumes_from_checkpoint(self):
        """After a timeout, the next attempt restores the snapshot and
        the final result is still bit-identical to a plain run."""
        config = baseline_config()
        plain = sim_factory(config)().run().fingerprint()
        # First attempt times out after its checkpoint; later attempts
        # get a generous budget and finish from the snapshot.
        budgets = iter([8, 10_000, 10_000])
        limits = {"per_slice": next(budgets)}

        def clock():
            limits.setdefault("ticks", 0)
            limits["ticks"] += 1
            if limits["ticks"] == limits["per_slice"]:
                limits["ticks"] = 0
                limits["per_slice"] = next(budgets)
                return 1e9  # blow the deadline
            return 0.0

        report = run_supervised(
            sim_factory(config),
            policy=SupervisionPolicy(
                slice_events=1_000,
                checkpoint_every=2,
                wall_clock_limit=100.0,
                max_retries=1,
            ),
            clock=clock,
            sleep=lambda s: None,
        )
        assert report.attempts == 2
        assert report.checkpoints >= 1
        assert not report.degraded
        assert report.result.fingerprint() == plain


class TestBudget:
    def test_event_budget_degrades_to_partial_result(self):
        config = baseline_config()
        report = run_supervised(
            sim_factory(config),
            policy=SupervisionPolicy(
                slice_events=500, max_events=2_000, degrade=True
            ),
        )
        assert report.degraded
        assert not report.result.complete
        assert report.result.cycles > 0  # partial stats survived
        assert report.attempts == 1  # budget exhaustion is never retried

    def test_event_budget_raises_when_degrade_off(self):
        from repro.gpu.gpu import SimulationTruncated

        config = baseline_config()
        with pytest.raises(SimulationTruncated):
            run_supervised(
                sim_factory(config),
                policy=SupervisionPolicy(
                    slice_events=500, max_events=2_000, degrade=False
                ),
            )


class TestInvariantPropagation:
    def test_violations_are_never_degraded_away(self):
        config = baseline_config()

        def broken_sim():
            sim = GPUSimulator(
                config, build_workload("gups", config, scale=SCALE)
            )
            # Sabotage: plant an orphaned MSHR entry no walk will own.
            sim.translation.l2_mshr._entries[0xBAD] = ["stranded"]
            return sim

        with pytest.raises(InvariantViolation):
            run_supervised(
                broken_sim,
                policy=SupervisionPolicy(slice_events=1_000, audit_every=200),
            )


class TestPolicyValidation:
    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            SupervisionPolicy(slice_events=0)
        with pytest.raises(ValueError):
            SupervisionPolicy(max_retries=-1)
