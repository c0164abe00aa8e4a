"""Supervised simulation runs: watchdog, retry, checkpoint, degrade.

``run_supervised`` drives a simulator in bounded event slices instead of
one monolithic ``run()`` call, which buys four properties a long
unattended experiment needs:

* a **wall-clock watchdog** — a hung or pathologically slow attempt is
  cut off between slices, not discovered the next morning;
* **periodic checkpoints** — a :class:`~repro.resilience.Checkpoint`
  every N slices, so a retry resumes from the last good snapshot
  instead of cycle zero (resumed runs are bit-identical to
  uninterrupted ones);
* **bounded retry with exponential backoff** — watchdog timeouts are
  retried up to ``max_retries`` times (sleeping ``backoff_base * 2^k``
  between attempts, for hosts that are transiently overloaded);
* **graceful degradation** — when the event budget or every retry is
  exhausted, the caller gets a partial
  :class:`~repro.gpu.gpu.SimulationResult` (``complete=False``) holding
  everything the run did measure, rather than an exception and nothing.

Invariant violations are *never* retried or degraded away: they mean
the machine state is wrong, and the :class:`InvariantViolation` (with
its component dump) propagates to the caller.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.gpu.gpu import GPUSimulator, SimulationResult, SimulationTruncated
from repro.harness.runner import perf_metadata
from repro.resilience.checkpoint import Checkpoint
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.invariants import InvariantChecker


class WatchdogTimeout(RuntimeError):
    """An attempt exceeded the supervision policy's wall-clock limit."""


class AttemptAbandoned(RuntimeError):
    """Raised *by a heartbeat callback* to abort the run immediately.

    The fleet's lease-lost plumbing: a worker whose heartbeat learns
    its lease went stale (the scheduler requeued the job for someone
    else) raises this to stop burning cycles on a result nobody will
    accept.  It propagates straight out of :func:`run_supervised` —
    never retried, never degraded into a partial result.
    """


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs for one supervised run."""

    #: Events per engine slice; the watchdog and checkpoint cadence are
    #: both quantised to this.
    slice_events: int = 20_000
    #: Total event budget per attempt (None = unlimited).
    max_events: int | None = None
    #: Wall-clock seconds per attempt (None = no watchdog).
    wall_clock_limit: float | None = None
    #: Take a checkpoint every this many slices (0 = off).
    checkpoint_every: int = 0
    #: Attach an invariant audit every this many events (0 = off).
    audit_every: int = 0
    #: Watchdog-timeout retries before giving up.
    max_retries: int = 2
    #: First retry sleeps this many seconds, doubling each retry.
    backoff_base: float = 0.0
    #: On exhausted budget/retries, return a partial result instead of
    #: raising.
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.slice_events < 1:
            raise ValueError("slice_events must be >= 1")
        if self.max_retries < 0 or self.backoff_base < 0:
            raise ValueError("max_retries and backoff_base must be >= 0")


@dataclass
class SupervisedReport:
    """What a supervised run did, alongside its result."""

    result: SimulationResult
    #: Attempts driven (1 = no retries needed).
    attempts: int
    #: Checkpoints captured across all attempts.
    checkpoints: int
    #: True when the result is partial (degradation kicked in).
    degraded: bool
    #: Stringified failure per abandoned attempt, oldest first.
    failures: tuple[str, ...] = ()
    #: Invariant audits performed (0 when auditing was off).
    audits: int = 0
    #: Faults injected (0 when no plan was armed).
    faults_injected: int = 0
    #: Wall-clock seconds across every attempt (backoff sleeps included).
    wall_seconds: float = 0.0

    @property
    def retries(self) -> int:
        return self.attempts - 1


@dataclass
class _RunState:
    checkpoint: Checkpoint | None = None
    checkpoints: int = 0
    failures: list[str] = field(default_factory=list)


def run_supervised(
    make_sim: Callable[[], GPUSimulator],
    *,
    policy: SupervisionPolicy | None = None,
    plan: FaultPlan | None = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    heartbeat: Callable[[GPUSimulator], None] | None = None,
) -> SupervisedReport:
    """Drive ``make_sim()`` to completion under a supervision policy.

    Args:
        make_sim: builds a *fresh* simulator; called once per
            from-scratch attempt (restored attempts come from the last
            checkpoint instead).
        policy: supervision knobs; defaults to
            :class:`SupervisionPolicy()`.
        plan: optional fault plan, armed on every fresh simulator (a
            restored checkpoint already carries its armed injector).
        clock/sleep: injectable time sources so tests can fake the
            watchdog and skip real backoff sleeps.
        heartbeat: called with the live simulator after every completed
            slice — the hook the service daemon uses to stream progress
            (cycle, warps remaining, sampled gauges) to subscribers
            while a job runs.
    """
    policy = policy if policy is not None else SupervisionPolicy()
    state = _RunState()
    attempt = 0
    started = clock()
    while True:
        attempt += 1
        if state.checkpoint is not None:
            sim = state.checkpoint.restore()
        else:
            sim = _prepare(make_sim(), policy, plan)
        deadline = (
            clock() + policy.wall_clock_limit
            if policy.wall_clock_limit is not None
            else None
        )
        try:
            result = _drive(sim, policy, state, clock, deadline, heartbeat)
            return _report(
                result,
                sim,
                attempt,
                state,
                degraded=not result.complete,
                wall=max(0.0, clock() - started),
            )
        except WatchdogTimeout as failure:
            state.failures.append(str(failure))
            if attempt > policy.max_retries:
                if policy.degrade:
                    return _report(
                        sim.partial_result(),
                        sim,
                        attempt,
                        state,
                        degraded=True,
                        wall=max(0.0, clock() - started),
                    )
                raise
            if policy.backoff_base:
                sleep(policy.backoff_base * (2 ** (attempt - 1)))
        except SimulationTruncated as failure:
            # Budget exhaustion is deterministic; retrying cannot help.
            state.failures.append(str(failure))
            if policy.degrade:
                return _report(
                    sim.partial_result(),
                    sim,
                    attempt,
                    state,
                    degraded=True,
                    wall=max(0.0, clock() - started),
                )
            raise


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
    state: _RunState,
    clock: Callable[[], float],
    deadline: float | None,
    heartbeat: Callable[[GPUSimulator], None] | None = None,
) -> SimulationResult:
    start_events = sim.engine.events_processed
    slices = 0
    while True:
        if deadline is not None and clock() > deadline:
            raise WatchdogTimeout(
                f"attempt exceeded {policy.wall_clock_limit}s wall clock at "
                f"cycle {sim.engine.now} "
                f"({sim.engine.events_processed - start_events} events in)"
            )
        slice_budget = policy.slice_events
        if policy.max_events is not None:
            remaining = policy.max_events - (
                sim.engine.events_processed - start_events
            )
            if remaining <= 0:
                raise SimulationTruncated(
                    f"event budget {policy.max_events} exhausted at cycle "
                    f"{sim.engine.now} with {sim.warps_remaining} warps "
                    f"unfinished"
                )
            slice_budget = min(slice_budget, remaining)
        more = sim.advance(max_events=slice_budget)
        slices += 1
        if heartbeat is not None:
            heartbeat(sim)
        if not more:
            # Queue drained naturally; run() validates and builds the
            # final result without processing anything further.
            return sim.run()
        if policy.checkpoint_every and slices % policy.checkpoint_every == 0:
            state.checkpoint = Checkpoint.capture(sim)
            state.checkpoints += 1


def _report(
    result: SimulationResult,
    sim: GPUSimulator,
    attempts: int,
    state: _RunState,
    *,
    degraded: bool,
    wall: float = 0.0,
) -> SupervisedReport:
    counters = sim.stats.counters
    faults = sum(
        value
        for name, value in counters.as_dict().items()
        if name.startswith("chaos.injected.")
    )
    if result.perf is None:
        result.perf = perf_metadata(
            wall_seconds=wall,
            events=sim.engine.events_processed,
            cycles=result.cycles,
        )
    return SupervisedReport(
        result=result,
        attempts=attempts,
        checkpoints=state.checkpoints,
        degraded=degraded,
        failures=tuple(state.failures),
        audits=counters.get("resilience.audits"),
        faults_injected=faults,
        wall_seconds=wall,
    )
