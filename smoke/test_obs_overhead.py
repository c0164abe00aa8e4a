"""Disabled-mode cost of the tracing layer's null hooks.

Every hook site is an inline ``if trace.enabled:`` guard, so with
tracing off a run pays one guard per site it passes.  The estimate is
two measured quantities: the guard reads per engine event, counted on
the gated softwalker/gups run itself with a counting null trace, times
the timed cost of one inline guard.  It must stay below 5% of the
untraced per-event simulation cost.  The guard and the event loop are
timed back to back in each of several rounds, so both see the same host
speed, and the gate is the median round's ratio.  The timings read the
host's speed, so this test lives outside tier-1.

Run: ``PYTHONPATH=src python -m pytest smoke/test_obs_overhead.py -q``
"""

import statistics
import time
import timeit

from repro.config import softwalker_config
from repro.gpu.gpu import GPUSimulator
from repro.harness.runner import build_workload
from repro.obs import NULL_TRACE, NullTraceRecorder, Observability

SCALE = 0.05
BUDGET_PCT = 5.0

#: Back-to-back (event, guard) timing rounds the gate takes the median of.
ROUNDS = 5


class CountingNullTrace(NullTraceRecorder):
    """A null trace that counts how often hook sites read ``enabled``."""

    __slots__ = ("reads",)

    def __init__(self) -> None:
        self.reads = 0

    @property
    def enabled(self) -> bool:
        self.reads += 1
        return False


def guard_reads_per_event(config, workload) -> float:
    """Guards one run evaluates per engine event (deterministic)."""
    trace = CountingNullTrace()
    sim = GPUSimulator(config, workload, obs=Observability(trace=trace))
    sim.run()
    return trace.reads / max(1, sim.engine.events_processed)


def untraced_seconds_per_event(config, workload) -> float:
    """Seconds per event of one untraced run's loop (the build is not timed)."""
    sim = GPUSimulator(config, workload)
    started = time.perf_counter()
    sim.run()
    seconds = time.perf_counter() - started
    return seconds / max(1, sim.engine.events_processed)


def test_null_hooks_cost_under_budget_of_the_event_loop():
    config = softwalker_config()
    workload = build_workload("gups", config, scale=SCALE)
    reads = guard_reads_per_event(config, workload)
    loops = 1_000_000

    ratios, rounds = [], []
    for index in range(ROUNDS):
        per_event = untraced_seconds_per_event(config, workload)
        # timeit inlines the statement in its loop, so this is the guard
        # as a hook site runs it, with no call (and the loop step, which
        # errs high).
        per_guard = min(
            timeit.repeat(
                "if trace.enabled: pass",
                globals={"trace": NULL_TRACE},
                number=loops,
                repeat=5,
            )
        ) / loops
        ratio = per_guard * reads / per_event * 100
        ratios.append(ratio)
        rounds.append(
            f"round {index + 1}: guard {per_guard * 1e9:.1f}ns "
            f"x {reads:.2f}/event = {ratio:.2f}% of "
            f"{per_event * 1e6:.2f}us/event"
        )
    overhead = statistics.median(ratios)
    assert overhead <= BUDGET_PCT, (
        f"disabled-mode overhead {overhead:.2f}% (median of {ROUNDS} rounds) "
        f"exceeds the {BUDGET_PCT}% budget:\n" + "\n".join(rounds)
    )
