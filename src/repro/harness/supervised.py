"""Supervised simulation runs: watchdog, event budget, degrade.

``run_supervised`` drives a simulator in bounded event slices instead of
one monolithic ``run()`` call, which buys three properties a long
unattended experiment needs:

* a **wall-clock watchdog** — a hung or pathologically slow run is cut
  off between slices, not discovered the next morning;
* an **event budget** — a run is bounded by the events it may process,
  whatever the host's speed;
* **graceful degradation** — when the watchdog or the budget ends the
  run, the caller gets a partial
  :class:`~repro.gpu.gpu.SimulationResult` (``complete=False``) holding
  everything the run did measure, rather than an exception and nothing.

There is exactly one attempt.  A simulation is bit-deterministic, so a
run that overran its limit would overrun it again; the only retry worth
having is the service scheduler's crash requeue, which covers a lost
host rather than a slow run.

Invariant violations are *never* degraded away: they mean the machine
state is wrong, and the :class:`InvariantViolation` (with its component
dump) propagates to the caller.  So does any exception a heartbeat
callback raises.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.gpu.gpu import GPUSimulator, SimulationResult
from repro.harness.runner import perf_metadata
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.invariants import InvariantChecker


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs for one supervised run."""

    #: Events per engine slice; the watchdog and heartbeat cadence are
    #: both quantised to this.
    slice_events: int = 20_000
    #: Total event budget (None = unlimited).
    max_events: int | None = None
    #: Wall-clock seconds for the run (None = no watchdog).
    wall_clock_limit: float | None = None
    #: Attach an invariant audit every this many events (0 = off).
    audit_every: int = 0

    def __post_init__(self) -> None:
        if self.slice_events < 1:
            raise ValueError("slice_events must be >= 1")


@dataclass
class SupervisedReport:
    """What a supervised run did, alongside its result."""

    result: SimulationResult
    #: True when the result is partial (the watchdog or budget fired).
    degraded: bool
    #: Why the run was cut short (empty when it completed).
    failures: tuple[str, ...] = ()
    #: Invariant audits performed (0 when auditing was off).
    audits: int = 0
    #: Faults injected (0 when no plan was armed).
    faults_injected: int = 0
    #: Wall-clock seconds the run took, simulator build included.
    wall_seconds: float = 0.0


def run_supervised(
    make_sim: Callable[[], GPUSimulator],
    *,
    policy: SupervisionPolicy | None = None,
    plan: FaultPlan | None = None,
    clock: Callable[[], float] = time.monotonic,
    heartbeat: Callable[[GPUSimulator], None] | None = None,
) -> SupervisedReport:
    """Drive ``make_sim()`` to completion under a supervision policy.

    Args:
        make_sim: builds the simulator to drive.
        policy: supervision knobs; defaults to
            :class:`SupervisionPolicy()`.
        plan: optional fault plan, armed on the fresh simulator.
        clock: injectable time source so tests can fake the watchdog.
        heartbeat: called with the live simulator after every completed
            slice — the hook the service daemon uses to stream progress
            (cycle, warps remaining, sampled gauges) to subscribers
            while a job runs.
    """
    policy = policy if policy is not None else SupervisionPolicy()
    started = clock()
    sim = _prepare(make_sim(), policy, plan)
    deadline = (
        clock() + policy.wall_clock_limit
        if policy.wall_clock_limit is not None
        else None
    )
    failure = _drive(sim, policy, clock, deadline, heartbeat)
    # A drained queue needs run() to validate and build the final
    # result; a cut-short run keeps whatever it measured.
    result = sim.run() if failure is None else sim.partial_result()
    counters = sim.stats.counters
    # As in Runner.run: reference counting frees the machine on return.
    sim.release()
    wall = max(0.0, clock() - started)
    if result.perf is None:
        result.perf = perf_metadata(
            wall_seconds=wall,
            events=sim.engine.events_processed,
            cycles=result.cycles,
        )
    return SupervisedReport(
        result=result,
        degraded=not result.complete,
        failures=() if failure is None else (failure,),
        audits=counters.get("resilience.audits"),
        faults_injected=sum(
            value
            for name, value in counters.as_dict().items()
            if name.startswith("chaos.injected.")
        ),
        wall_seconds=wall,
    )


def _prepare(
    sim: GPUSimulator, policy: SupervisionPolicy, plan: FaultPlan | None
) -> GPUSimulator:
    checker = None
    if policy.audit_every:
        checker = InvariantChecker(sim, every=policy.audit_every).attach()
    if plan is not None and len(plan):
        injector = FaultInjector(sim, plan).arm()
        if checker is not None:
            checker.add_holder(injector)
    return sim


def _drive(
    sim: GPUSimulator,
    policy: SupervisionPolicy,
    clock: Callable[[], float],
    deadline: float | None,
    heartbeat: Callable[[GPUSimulator], None] | None,
) -> str | None:
    """Advance ``sim`` slice by slice; the reason it was cut short, or
    None once the event queue drained."""
    start_events = sim.engine.events_processed
    while True:
        if deadline is not None and clock() > deadline:
            return (
                f"run exceeded {policy.wall_clock_limit}s wall clock at "
                f"cycle {sim.engine.now} "
                f"({sim.engine.events_processed - start_events} events in)"
            )
        slice_budget = policy.slice_events
        if policy.max_events is not None:
            remaining = policy.max_events - (
                sim.engine.events_processed - start_events
            )
            if remaining <= 0:
                return (
                    f"event budget {policy.max_events} exhausted at cycle "
                    f"{sim.engine.now} with {sim.warps_remaining} warps "
                    f"unfinished"
                )
            slice_budget = min(slice_budget, remaining)
        more = sim.advance(max_events=slice_budget)
        if heartbeat is not None:
            heartbeat(sim)
        if not more:
            return None
