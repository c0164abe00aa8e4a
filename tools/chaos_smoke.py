#!/usr/bin/env python3
"""Chaos smoke check (the CI gate for the resilience layer).

Runs small simulations under chaos and enforces four invariants:

1. A seeded run with *every* fault class injected completes with zero
   invariant violations, exercising the far-fault path along the way.
2. Chaos runs are deterministic: the same plan against the same
   workload produces bit-identical fingerprints.
3. An intentionally broken component is caught by the invariant checker
   with a component-state dump attached.
4. Disabled-mode overhead stays under budget: the per-event cost of the
   detached audit hook plus the resilience-touched hot paths, measured
   by microbenchmark, must stay below 5% of the per-event simulation
   cost.

Usage:
    python tools/chaos_smoke.py [--scale S] [--budget PCT]
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import timeit

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.config import baseline_config, softwalker_config  # noqa: E402
from repro.gpu.gpu import GPUSimulator  # noqa: E402
from repro.harness.runner import build_workload  # noqa: E402
from repro.resilience import (  # noqa: E402
    FAULT_KINDS,
    FaultInjector,
    InvariantChecker,
    InvariantViolation,
    default_chaos_plan,
)
from repro.sim.engine import Engine  # noqa: E402


def make_sim(config, scale: float) -> GPUSimulator:
    return GPUSimulator(config, build_workload("gups", config, scale=scale))


def check_chaos_run(scale: float) -> tuple[int, float]:
    """Invariants 1 + 2; returns (events processed, plain wall seconds)."""
    config = softwalker_config()

    started = time.perf_counter()
    plain_sim = make_sim(config, scale)
    plain_sim.run()
    plain_seconds = time.perf_counter() - started

    def chaos_fingerprint():
        sim = make_sim(config, scale)
        checker = InvariantChecker(sim, every=500).attach()
        injector = FaultInjector(sim, default_chaos_plan(seed=7)).arm()
        checker.add_holder(injector)
        result = sim.run()  # InvariantViolation here fails the check
        return result, checker

    result, checker = chaos_fingerprint()
    counters = result.stats.counters
    missing = [
        kind for kind in FAULT_KINDS if counters.get(f"chaos.injected.{kind}") == 0
    ]
    if missing:
        raise SystemExit(f"FAIL: fault kinds never fired: {missing}")
    if counters.get("faults.recorded") == 0:
        raise SystemExit("FAIL: invalidate_pte never drove the far-fault path")
    if checker.audits == 0:
        raise SystemExit("FAIL: invariant checker never audited")
    print(
        f"ok: chaos run complete — all {len(FAULT_KINDS)} fault kinds, "
        f"{checker.audits} audits, 0 violations"
    )

    if chaos_fingerprint()[0].fingerprint() != result.fingerprint():
        raise SystemExit("FAIL: chaos run is not deterministic")
    print("ok: chaos run deterministic (bit-identical fingerprints)")

    return plain_sim.engine.events_processed, plain_seconds


def check_breakage_detection(scale: float) -> None:
    """Invariant 3: sabotage must be caught, with a state dump."""
    config = baseline_config()
    sim = make_sim(config, scale)
    InvariantChecker(sim, every=200).attach()
    sim.advance(max_events=1_000)
    sim.translation.l2_mshr._entries[0xDEAD] = ["stranded-waiter"]
    try:
        sim.run()
    except InvariantViolation as violation:
        if not violation.dump or "l2_mshr" not in violation.dump:
            raise SystemExit("FAIL: violation carried no component dump")
        print(f"ok: sabotage caught — {violation.violations[0]}")
        return
    raise SystemExit("FAIL: intentionally broken component was not caught")


def check_disabled_overhead(
    events_processed: int, plain_seconds: float, budget_pct: float
) -> None:
    """Invariant 4: the detached audit hook must be cheap enough to
    leave compiled in.

    With no auditor attached, the resilience layer's entire per-event
    footprint is one attribute load plus a None check in the engine
    loop.  Measure exactly that operation and compare it against the
    real per-event simulation cost.
    """
    engine = Engine()
    loops = 1_000_000

    def hook() -> None:
        audit = engine._audit
        if audit is not None:  # pragma: no cover - always detached here
            audit()

    per_hook = min(timeit.repeat(hook, number=loops, repeat=5)) / loops
    sim_per_event = plain_seconds / max(1, events_processed)
    overhead = per_hook / sim_per_event * 100
    print(
        f"ok: detached audit hook {per_hook * 1e9:.1f}ns/event "
        f"= {overhead:.2f}% of {sim_per_event * 1e6:.2f}us/event"
    )
    if overhead > budget_pct:
        raise SystemExit(
            f"FAIL: disabled-mode overhead {overhead:.2f}% exceeds "
            f"{budget_pct}% budget"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--budget", type=float, default=5.0, help="overhead %% budget")
    args = parser.parse_args()

    events, seconds = check_chaos_run(args.scale)
    check_breakage_detection(args.scale)
    check_disabled_overhead(events, seconds, args.budget)
    print("chaos smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
