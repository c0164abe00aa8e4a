"""Disabled-mode cost of the tracing layer's null hooks.

The per-event cost of the guarded hook sites, measured by
microbenchmark and multiplied by a conservative hooks-per-event
estimate, must stay below 5% of the untraced per-event simulation
cost.  The two sides are timed back to back in each of several rounds,
so both see the same host speed, and the gate is the median round's
ratio.  ``tests/test_obs.py::TestHookGuards`` counts the guard reads
that the estimate stands for; this test times them, so it reads the
host's speed and lives outside tier-1.

Run: ``PYTHONPATH=src python -m pytest smoke/test_obs_overhead.py -q``
"""

import statistics
import time
import timeit

from repro.config import softwalker_config
from repro.gpu.gpu import GPUSimulator
from repro.harness.runner import build_workload
from repro.obs import NULL_TRACE

SCALE = 0.05
BUDGET_PCT = 5.0

#: Generous upper bound on guarded hook sites evaluated per engine event.
HOOKS_PER_EVENT = 16

#: Back-to-back (event, hook) timing rounds the gate takes the median of.
ROUNDS = 5


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
    trace = NULL_TRACE
    loops = 1_000_000

    def hook() -> None:
        if trace.enabled:
            trace.instant("t", "x", 0)

    ratios, rounds = [], []
    for index in range(ROUNDS):
        per_event = untraced_seconds_per_event(config, workload)
        per_hook = min(timeit.repeat(hook, number=loops, repeat=5)) / loops
        ratio = per_hook * HOOKS_PER_EVENT / per_event * 100
        ratios.append(ratio)
        rounds.append(
            f"round {index + 1}: null hook {per_hook * 1e9:.1f}ns "
            f"x {HOOKS_PER_EVENT}/event = {ratio:.2f}% of "
            f"{per_event * 1e6:.2f}us/event"
        )
    overhead = statistics.median(ratios)
    assert overhead <= BUDGET_PCT, (
        f"disabled-mode overhead {overhead:.2f}% (median of {ROUNDS} rounds) "
        f"exceeds the {BUDGET_PCT}% budget:\n" + "\n".join(rounds)
    )
