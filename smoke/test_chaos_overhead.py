"""Disabled-mode cost of the resilience layer's audit hook.

With no auditor attached, the resilience layer's whole per-event
footprint is one attribute load plus a None check in the engine loop.
This times exactly that operation and compares it with the per-event
cost of one plain simulation (build and run); it must stay below 5%.
It reads the host's speed, so it lives outside tier-1.

Run: ``PYTHONPATH=src python -m pytest smoke/test_chaos_overhead.py -q``
"""

import time
import timeit

from repro.config import softwalker_config
from repro.gpu.gpu import GPUSimulator
from repro.harness.runner import build_workload
from repro.sim.engine import Engine

SCALE = 0.05
BUDGET_PCT = 5.0


def test_detached_audit_hook_costs_under_budget_of_an_event():
    config = softwalker_config()
    started = time.perf_counter()
    sim = GPUSimulator(config, build_workload("gups", config, scale=SCALE))
    sim.run()
    sim_per_event = (time.perf_counter() - started) / max(
        1, sim.engine.events_processed
    )

    engine = Engine()
    loops = 1_000_000

    def hook() -> None:
        audit = engine._audit
        if audit is not None:  # pragma: no cover - always detached here
            audit()

    per_hook = min(timeit.repeat(hook, number=loops, repeat=5)) / loops
    overhead = per_hook / sim_per_event * 100
    assert overhead <= BUDGET_PCT, (
        f"detached audit hook {per_hook * 1e9:.1f}ns/event = {overhead:.2f}% "
        f"of {sim_per_event * 1e6:.2f}us/event exceeds the {BUDGET_PCT}% budget"
    )
