#!/usr/bin/env python3
"""Observability smoke check (the CI gate for the tracing layer).

Runs a tiny traced simulation and enforces three invariants:

1. The exported Chrome trace validates against the trace-event schema
   and every span is closed.
2. A traced run produces the identical ``SimulationResult`` to an
   untraced one (instrumentation must never perturb the model).
3. Disabled-mode overhead stays under budget: the per-event cost of the
   null-object hook sites, measured by microbenchmark and multiplied by
   a conservative hooks-per-event estimate, must stay below 5% of the
   untraced per-event simulation cost.  The two sides are timed back to
   back in each of several rounds, so both see the same host speed, and
   the gate is the median round's ratio.

Usage:
    REPRO_SCALE=0.05 python tools/obs_smoke.py [--scale S] [--budget PCT]
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
import timeit

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.config import softwalker_config  # noqa: E402
from repro.gpu.gpu import GPUSimulator  # noqa: E402
from repro.harness.runner import build_workload  # noqa: E402
from repro.obs import NULL_TRACE, Observability, validate_chrome_trace  # noqa: E402

#: Generous upper bound on guarded hook sites evaluated per engine event.
HOOKS_PER_EVENT = 16

#: Back-to-back (event, hook) timing rounds the overhead gate takes the
#: median of.
ROUNDS = 5


def untraced_run(config, workload):
    """One untraced run: ``(result, seconds per event of its loop)``.

    Only ``run()`` is timed, not the machine build, so the denominator
    is the event loop's own cost.
    """
    sim = GPUSimulator(config, workload)
    started = time.perf_counter()
    result = sim.run()
    seconds = time.perf_counter() - started
    return result, seconds / max(1, sim.engine.events_processed)


def check_trace_and_determinism(config, workload) -> None:
    """Invariants 1 + 2."""
    plain, _ = untraced_run(config, workload)

    obs = Observability.full(interval=1000)
    traced = GPUSimulator(config, workload, obs=obs).run()

    if (traced.cycles, traced.instructions) != (plain.cycles, plain.instructions):
        raise SystemExit(
            f"FAIL: traced run diverged — {traced.cycles} vs {plain.cycles} cycles"
        )
    if traced.stats.counters.as_dict() != plain.stats.counters.as_dict():
        raise SystemExit("FAIL: traced run produced different counters")
    print(f"ok: traced == untraced ({plain.cycles:,} cycles)")

    if obs.trace.open_spans():
        raise SystemExit(f"FAIL: {obs.trace.open_spans()} spans left open")
    count = validate_chrome_trace(obs.trace.chrome_trace())
    print(f"ok: trace schema valid ({count:,} events)")


def check_disabled_overhead(config, workload, budget_pct: float) -> None:
    """Invariant 3: the null hook must be cheap enough to leave on."""
    trace = NULL_TRACE
    loops = 1_000_000

    def hook() -> None:
        if trace.enabled:
            trace.instant("t", "x", 0)

    ratios = []
    for index in range(ROUNDS):
        _, per_event = untraced_run(config, workload)
        per_hook = min(timeit.repeat(hook, number=loops, repeat=5)) / loops
        ratio = per_hook * HOOKS_PER_EVENT / per_event * 100
        ratios.append(ratio)
        print(
            f"   round {index + 1}: null hook {per_hook * 1e9:.1f}ns "
            f"x {HOOKS_PER_EVENT}/event = {ratio:.2f}% of "
            f"{per_event * 1e6:.2f}us/event"
        )
    overhead = statistics.median(ratios)
    if overhead > budget_pct:
        raise SystemExit(
            f"FAIL: disabled-mode overhead {overhead:.2f}% (median of {ROUNDS} "
            f"rounds) exceeds {budget_pct}% budget"
        )
    print(f"ok: disabled-mode overhead {overhead:.2f}% (median of {ROUNDS} rounds)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--budget", type=float, default=5.0, help="overhead %% budget")
    args = parser.parse_args()

    config = softwalker_config()
    workload = build_workload("gups", config, scale=args.scale)
    check_trace_and_determinism(config, workload)
    check_disabled_overhead(config, workload, args.budget)
    print("observability smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
