"""Supervised simulation runs: watchdog, event budget, degrade.

``run_supervised`` drives a built simulator in bounded event slices
instead of one monolithic ``run()`` call, which buys three properties a
long unattended experiment needs:

* a **wall-clock watchdog** — a hung or pathologically slow run is cut
  off between slices, not discovered the next morning;
* an **event budget** — a run is bounded by the events it may process,
  whatever the host's speed;
* **graceful degradation** — when the watchdog or the budget ends the
  run, the caller gets a partial
  :class:`~repro.gpu.gpu.SimulationResult` (``complete=False``) holding
  everything the run did measure, rather than an exception and nothing.

Every simulation the harness, the service and the CLI run goes through
here (:func:`repro.harness.runner.simulate` builds the machine and
hands it over), so ``result.perf`` means the same on every path: its
``wall_seconds`` are the event loop's, the build excluded.

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

import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.gpu.gpu import GPUSimulator, SimulationResult

if TYPE_CHECKING:
    from repro.resilience.faults import FaultPlan


def peak_rss_kb() -> int:
    """Peak resident set size of this process in KiB (0 if unknown).

    Monotone over the process lifetime: the value is the RSS high-water
    mark so far, not the peak of the last run alone.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-unix
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        rss //= 1024
    return int(rss)


def perf_metadata(*, wall_seconds: float, events: int, cycles: int) -> dict:
    """The ``SimulationResult.perf`` payload for one finished run.

    Host-side only — deliberately excluded from result fingerprints, so
    two bit-identical simulations on hosts of different speeds still
    compare equal.
    """
    wall = max(0.0, float(wall_seconds))
    return {
        "wall_seconds": wall,
        "events": int(events),
        "events_per_sec": (events / wall) if wall > 0 else 0.0,
        "cycles_per_sec": (cycles / wall) if wall > 0 else 0.0,
        "peak_rss_kb": peak_rss_kb(),
    }


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


def run_supervised(
    sim: GPUSimulator,
    *,
    policy: SupervisionPolicy | None = None,
    plan: FaultPlan | None = None,
    clock: Callable[[], float] = time.perf_counter,
    heartbeat: Callable[[GPUSimulator], None] | None = None,
) -> SupervisedReport:
    """Drive the built simulator ``sim`` to completion under a policy.

    Args:
        sim: the simulator to drive; released before this returns.
        policy: supervision knobs; defaults to
            :class:`SupervisionPolicy()`.
        plan: optional fault plan, armed on ``sim`` before it starts.
        clock: injectable time source so tests can fake the watchdog.
        heartbeat: called with the live simulator after every completed
            slice — the hook the service daemon uses to stream progress
            (cycle, warps remaining, sampled gauges) to subscribers
            while a job runs.
    """
    policy = policy if policy is not None else SupervisionPolicy()
    # Imported here: a plain run never loads the resilience package.
    checker = None
    if policy.audit_every:
        from repro.resilience.invariants import InvariantChecker

        checker = InvariantChecker(sim, every=policy.audit_every).attach()
    if plan is not None and len(plan):
        from repro.resilience.faults import FaultInjector

        injector = FaultInjector(sim, plan).arm()
        if checker is not None:
            checker.add_holder(injector)
    started = clock()
    deadline = (
        started + policy.wall_clock_limit
        if policy.wall_clock_limit is not None
        else None
    )
    failure = _drive(sim, policy, clock, deadline, heartbeat)
    # A drained queue needs run() to validate and build the final
    # result; a cut-short run keeps whatever it measured.
    result = sim.run() if failure is None else sim.partial_result()
    # Host-side throughput rides along (fingerprint-excluded), so the
    # ResultStore accumulates a perf trajectory passively.
    result.perf = perf_metadata(
        wall_seconds=clock() - started,
        events=sim.engine.events_processed,
        cycles=result.cycles,
    )
    counters = sim.stats.counters
    # Reference counting frees the machine once the caller drops it, so
    # back-to-back runs hold one machine at a time.
    sim.release()
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
    )


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
