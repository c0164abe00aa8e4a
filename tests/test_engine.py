"""Unit tests for the discrete-event engine."""

import pytest

from repro.config import DEFAULT_CONFIGS
from repro.gpu.gpu import GPUSimulator
from repro.harness.runner import build_workload
from repro.sim.engine import Engine, SimulationError


def test_events_fire_in_time_order():
    engine = Engine()
    order = []
    engine.schedule(30, order.append, "c")
    engine.schedule(10, order.append, "a")
    engine.schedule(20, order.append, "b")
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == 30


def test_same_cycle_events_fire_in_insertion_order():
    engine = Engine()
    order = []
    for tag in range(5):
        engine.schedule(7, order.append, tag)
    engine.run()
    assert order == [0, 1, 2, 3, 4]


def test_schedule_at_absolute_time():
    engine = Engine()
    seen = []
    engine.schedule_at(100, seen.append, "x")
    engine.run()
    assert engine.now == 100 and seen == ["x"]


def test_cannot_schedule_in_the_past():
    engine = Engine()
    engine.schedule(5, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda: None)
    with pytest.raises(SimulationError):
        engine.schedule_at(engine.now - 1, lambda: None)


def test_events_scheduled_during_execution_run():
    engine = Engine()
    seen = []

    def chain(depth):
        seen.append(depth)
        if depth < 3:
            engine.schedule(10, chain, depth + 1)

    engine.schedule(0, chain, 0)
    engine.run()
    assert seen == [0, 1, 2, 3]
    assert engine.now == 30


def test_run_until_stops_clock_at_bound():
    """A probe event at cycle 20 sees the clock at 20, the earlier event
    fired and the later one still queued."""
    engine = Engine()
    seen = []
    probed = []
    engine.schedule(10, seen.append, 1)
    engine.schedule(50, seen.append, 2)
    engine.schedule_at(
        20, lambda: probed.append((engine.now, list(seen), engine.pending_events))
    )
    engine.run()
    assert probed == [(20, [1], 1)]
    assert seen == [1, 2]


def test_run_until_includes_boundary_events():
    """A probe at cycle 20 sees an event scheduled earlier at 20 fired."""
    engine = Engine()
    seen = []
    probed = []
    engine.schedule(20, seen.append, "edge")
    engine.schedule_at(20, lambda: probed.append(list(seen)))
    engine.run()
    assert probed == [["edge"]]


def test_max_events_safety_valve():
    engine = Engine()

    def forever():
        engine.schedule(1, forever)

    engine.schedule(0, forever)
    engine.run(max_events=100)
    assert engine.events_processed == 100


def test_step_executes_one_event():
    """A one-event slice is a single step."""
    engine = Engine()
    seen = []
    engine.schedule(3, seen.append, "a")
    engine.schedule(5, seen.append, "b")
    engine.run(max_events=1)
    assert seen == ["a"] and engine.now == 3
    engine.run(max_events=1)
    assert seen == ["a", "b"] and engine.now == 5
    engine.run(max_events=1)
    assert engine.events_processed == 2


def test_max_events_sets_truncated_flag():
    """A run cut by ``max_events`` is truncated: real work stays queued."""
    engine = Engine()

    def forever():
        engine.schedule(1, forever)

    engine.schedule(0, forever)
    engine.run(max_events=100)
    assert engine.real_pending > 0


def test_natural_drain_clears_truncated_flag():
    engine = Engine()
    engine.schedule(5, lambda: None)
    engine.run(max_events=100)
    assert engine.real_pending == 0


def test_daemon_events_fire_alongside_real_work():
    engine = Engine()
    ticks = []

    def tick():
        ticks.append(engine.now)
        engine.schedule_daemon(10, tick)

    engine.schedule_daemon(0, tick)
    engine.schedule(25, lambda: None)
    engine.run()
    assert ticks == [0, 10, 20]
    assert engine.now == 25


def test_daemons_alone_never_advance_the_clock():
    engine = Engine()
    fired = []
    engine.schedule_daemon(50, fired.append, "late daemon")
    engine.run()
    assert fired == []
    assert engine.now == 0
    assert engine.pending_events == 0


def test_daemons_do_not_count_as_real_pending():
    engine = Engine()
    engine.schedule_daemon(10, lambda: None)
    engine.schedule(5, lambda: None)
    assert engine.pending_events == 2
    assert engine.real_pending == 1


def test_truncated_flag_resets_across_consecutive_runs():
    engine = Engine()

    def forever():
        engine.schedule(1, forever)

    engine.schedule(0, forever)
    engine.run(max_events=10)
    assert engine.real_pending > 0
    # Stop rescheduling so the next run can drain naturally.
    engine.clear()
    engine.schedule(1, lambda: None)
    engine.run()
    assert engine.real_pending == 0


def test_max_events_tally_does_not_leak_across_runs():
    engine = Engine()

    def forever():
        engine.schedule(1, forever)

    engine.schedule(0, forever)
    engine.run(max_events=5)
    engine.run(max_events=5)
    # Each run gets its own budget: 10 events total, not 5.
    assert engine.events_processed == 10


def test_max_events_zero_processes_nothing():
    engine = Engine()
    seen = []
    engine.schedule(1, seen.append, "x")
    engine.run(max_events=0)
    assert seen == []
    assert engine.real_pending == 1
    engine.run()
    assert seen == ["x"]
    assert engine.real_pending == 0


def test_audit_hook_fires_every_n_events():
    engine = Engine()
    audits = []
    for delay in range(10):
        engine.schedule(delay, lambda: None)
    engine.attach_audit(3, lambda: audits.append(engine.events_processed))
    engine.run()
    assert audits == [3, 6, 9]


def test_audit_interval_must_be_positive():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.attach_audit(0, lambda: None)


def test_detach_audit_stops_callbacks():
    engine = Engine()
    audits = []
    engine.attach_audit(1, lambda: audits.append(engine.now))
    engine.schedule(1, lambda: None)
    engine.run()
    engine.detach_audit()
    engine.schedule(1, lambda: None)
    engine.run()
    assert len(audits) == 1


def test_audit_exception_leaves_engine_resumable():
    engine = Engine()

    def fail():
        raise ValueError("audit tripped")

    seen = []
    for delay in range(4):
        engine.schedule(delay, seen.append, delay)
    engine.attach_audit(2, fail)
    with pytest.raises(ValueError):
        engine.run()
    # The triggering event fully executed; the rest are still queued and
    # the countdown was reset, so resuming does not re-fire immediately.
    assert seen == [0, 1]
    with pytest.raises(ValueError):
        engine.run()
    assert seen == [0, 1, 2, 3]


@pytest.mark.parametrize("config_name", ["baseline", "softwalker"])
def test_single_stepping_matches_run(config_name):
    """Driving a whole simulation in one-event ``advance`` slices, the
    sliced path supervised runs take, lands on the same clock, event
    count and fingerprint as one ``run()``."""
    config = DEFAULT_CONFIGS.get(config_name)

    def make_sim():
        return GPUSimulator(
            config, build_workload("gups", config, scale=0.05, seed=7)
        )

    reference = make_sim()
    ref_result = reference.run()

    stepped = make_sim()
    while stepped.advance(max_events=1):
        pass
    engine = stepped.engine
    assert engine.now == reference.engine.now
    assert engine.events_processed == reference.engine.events_processed
    assert stepped.partial_result().fingerprint() == ref_result.fingerprint()
