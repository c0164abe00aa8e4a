"""Tests for supervised execution: watchdog, event budget, degrade."""

import pytest

from repro.config import baseline_config
from repro.gpu.gpu import GPUSimulator
from repro.harness.runner import build_workload
from repro.harness.supervised import SupervisionPolicy, run_supervised
from repro.resilience import InvariantViolation, default_chaos_plan

SCALE = 0.05


def build_sim(config):
    return GPUSimulator(config, build_workload("gups", config, scale=SCALE))


def fake_clock(seconds_per_tick):
    state = {"now": 0.0}

    def clock():
        state["now"] += seconds_per_tick
        return state["now"]

    return clock


class TestHappyPath:
    def test_supervised_matches_plain_run(self):
        config = baseline_config()
        plain = build_sim(config).run().fingerprint()
        report = run_supervised(
            build_sim(config), policy=SupervisionPolicy(slice_events=1_000)
        )
        assert not report.degraded
        assert report.failures == ()
        assert report.result.complete
        assert report.result.fingerprint() == plain

    def test_chaos_plan_and_audits_ride_along(self):
        config = baseline_config()
        report = run_supervised(
            build_sim(config),
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
            build_sim(config),
            policy=SupervisionPolicy(slice_events=1_000),
            heartbeat=lambda sim: beats.append(sim.engine.events_processed),
        )
        assert len(beats) > 1
        assert beats == sorted(beats)  # monotone progress

    def test_abandoned_attempt_propagates_unretried(self):
        """A heartbeat that raises aborts the run immediately: the
        exception reaches the caller, with no partial result."""
        config = baseline_config()
        beats = []

        def abandon(_sim):
            beats.append(1)
            raise RuntimeError("lease went stale")

        with pytest.raises(RuntimeError, match="lease went stale"):
            run_supervised(
                build_sim(config),
                policy=SupervisionPolicy(slice_events=1_000),
                heartbeat=abandon,
            )
        assert len(beats) == 1


class TestWatchdog:
    def test_timeout_degrades_after_one_attempt(self):
        """A simulation is deterministic, so a run that overran its wall
        clock is never re-run: it ends once, with its partial result."""
        config = baseline_config()
        report = run_supervised(
            build_sim(config),
            policy=SupervisionPolicy(slice_events=500, wall_clock_limit=1.0),
            clock=fake_clock(10.0),  # every slice blows the 1s budget
        )
        assert report.degraded
        assert not report.result.complete
        assert len(report.failures) == 1
        assert "wall clock" in report.failures[0]


class TestBudget:
    def test_event_budget_degrades_to_partial_result(self):
        config = baseline_config()
        report = run_supervised(
            build_sim(config),
            policy=SupervisionPolicy(slice_events=500, max_events=2_000),
        )
        assert report.degraded
        assert not report.result.complete
        assert report.result.cycles > 0  # partial stats survived
        assert report.result.perf["events"] == 2_000
        assert len(report.failures) == 1
        assert "event budget" in report.failures[0]

    def test_generous_budget_does_not_cut(self):
        config = baseline_config()
        plain = build_sim(config).run().fingerprint()
        report = run_supervised(
            build_sim(config),
            policy=SupervisionPolicy(max_events=10_000_000),
        )
        assert not report.degraded
        assert report.result.complete
        assert report.result.fingerprint() == plain


class TestInvariantPropagation:
    def test_violations_are_never_degraded_away(self):
        config = baseline_config()

        sim = build_sim(config)
        # Sabotage: plant an orphaned MSHR entry no walk will own.
        sim.translation.l2_mshr._entries[0xBAD] = ["stranded"]
        with pytest.raises(InvariantViolation):
            run_supervised(
                sim,
                policy=SupervisionPolicy(slice_events=1_000, audit_every=200),
            )


class TestPolicyValidation:
    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            SupervisionPolicy(slice_events=0)
