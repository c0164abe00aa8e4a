"""Unit tests for the discrete-event engine."""

import heapq
import itertools

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

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


# ----------------------------------------------------------------------
# Reference model: one heap of real and daemon events
# ----------------------------------------------------------------------
class OneHeapEngine:
    """The engine's contract in its plainest form: every event, daemon
    or not, in one ``(time, seq)`` heap; daemons are dropped once no
    real event is left; the audit hook counts events down."""

    def __init__(self):
        self.now = 0
        self.heap = []
        self.seq = 0
        self.events_processed = 0
        self.audit = None
        self.audit_every = 0
        self.countdown = 0

    def _push(self, when, daemon, callback, args):
        heapq.heappush(self.heap, (when, self.seq, daemon, callback, args))
        self.seq += 1

    def schedule(self, delay, callback, *args):
        self._push(self.now + delay, False, callback, args)

    def schedule_daemon(self, delay, callback, *args):
        self._push(self.now + delay, True, callback, args)

    def attach_audit(self, every, callback):
        self.audit, self.audit_every, self.countdown = callback, every, every

    def detach_audit(self):
        self.audit, self.audit_every, self.countdown = None, 0, 0

    def run(self, max_events=None):
        processed = 0
        while self.heap:
            if max_events is not None and processed >= max_events:
                break
            if all(daemon for _, _, daemon, _, _ in self.heap):
                self.heap.clear()
                break
            when, _, _, callback, args = heapq.heappop(self.heap)
            self.now = when
            callback(*args)
            processed += 1
            self.events_processed += 1
            if self.audit is not None:
                self.countdown -= 1
                if self.countdown <= 0:
                    self.countdown = self.audit_every
                    self.audit()
        return self.now

    @property
    def pending_events(self):
        return len(self.heap)

    @property
    def real_pending(self):
        return sum(1 for _, _, daemon, _, _ in self.heap if not daemon)


#: An event: ``(kind, delay, children)``; firing it schedules each child
#: ``delay`` cycles later.  Small delays make same-cycle ties common.
_leaf = st.tuples(st.sampled_from(["real", "daemon"]), st.integers(0, 4), st.just(()))
event_specs = st.recursive(
    _leaf,
    lambda inner: st.tuples(
        st.sampled_from(["real", "daemon"]),
        st.integers(0, 4),
        st.lists(inner, max_size=3).map(tuple),
    ),
    max_leaves=8,
)


class Side:
    """One engine under test, with the log its callbacks write."""

    def __init__(self, engine):
        self.engine = engine
        self.log = []
        self._ids = itertools.count()

    def schedule(self, spec):
        kind, delay, _children = spec
        schedule = self.engine.schedule if kind == "real" else self.engine.schedule_daemon
        schedule(delay, self._fire, next(self._ids), spec)

    def _fire(self, event_id, spec):
        engine = self.engine
        self.log.append(("fire", event_id, engine.now, engine.events_processed))
        for child in spec[2]:
            self.schedule(child)

    def audit(self):
        engine = self.engine
        self.log.append(
            (
                "audit",
                engine.events_processed,
                engine.now,
                engine.pending_events,
                engine.real_pending,
            )
        )

    def state(self):
        engine = self.engine
        return (
            self.log,
            engine.now,
            engine.pending_events,
            engine.real_pending,
            engine.events_processed,
        )


class EngineMachine(RuleBasedStateMachine):
    """``Engine`` and :class:`OneHeapEngine` through the same schedules,
    slices and audit hooks: same dispatch order, clock and counts."""

    def __init__(self):
        super().__init__()
        self.sides = (Side(Engine()), Side(OneHeapEngine()))

    @rule(spec=event_specs)
    def schedule(self, spec):
        for side in self.sides:
            side.schedule(spec)

    @rule(max_events=st.one_of(st.none(), st.integers(0, 6)))
    def run(self, max_events):
        for side in self.sides:
            side.engine.run(max_events=max_events)

    @rule(every=st.integers(1, 4))
    def attach_audit(self, every):
        for side in self.sides:
            side.engine.attach_audit(every, side.audit)

    @rule()
    def detach_audit(self):
        for side in self.sides:
            side.engine.detach_audit()

    @invariant()
    def same_state(self):
        real, reference = self.sides
        assert real.state() == reference.state()


TestEngineAgainstOneHeap = EngineMachine.TestCase
TestEngineAgainstOneHeap.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
