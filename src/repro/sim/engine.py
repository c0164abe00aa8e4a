"""Deterministic discrete-event simulation engine.

The engine is the heartbeat of every model in this package.  Components
schedule callbacks at absolute or relative times measured in GPU core
cycles; the engine pops events in (time, insertion-order) order so that
simulations are fully deterministic and reproducible.

The engine is intentionally minimal: a binary heap of events plus a clock.
All higher-level timing behaviour (queueing, pipelining, bandwidth) is
expressed by the components themselves.

Two observability affordances live here because only the event loop can
provide them:

* **Daemon events** (``schedule_daemon``) — housekeeping callbacks such
  as the metrics sampler.  They fire interleaved with real work but are
  dropped once only daemons remain, so instrumentation can never extend
  a simulation's final cycle count.
* **Audit hook** (``attach_audit``) — a callback invoked every N
  processed events, used by the resilience layer's invariant checker.
  Unlike daemons it is event-indexed rather than time-indexed, so audits
  track simulation *progress* even when the clock jumps.  Detached, it
  costs one attribute load per event.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable


#: Stands in for "no limit" in ``run``: a bound no event count or cycle
#: reaches, so the loop tests one int per event instead of None first.
_UNBOUNDED = 1 << 63


class SimulationError(RuntimeError):
    """Raised when the engine is used incorrectly (e.g. scheduling in the past)."""


class Engine:
    """A discrete-event simulator with a cycle-granularity clock.

    Events scheduled for the same cycle fire in the order they were
    scheduled, which keeps runs deterministic regardless of heap internals.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: list[
            tuple[int, int, Callable[..., None], tuple[Any, ...], bool]
        ] = []
        self._seq: int = 0
        self._events_processed: int = 0
        self._daemons_pending: int = 0
        #: True when the last ``run`` stopped at ``max_events`` with real
        #: work still queued (the safety valve fired).
        self.truncated: bool = False
        #: Audit hook state; None when no auditor is attached.
        self._audit: Callable[[], None] | None = None
        self._audit_every: int = 0
        self._audit_countdown: int = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        self.schedule_at(self.now + int(delay), callback, *args)

    def schedule_at(self, when: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute cycle ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at cycle {when}, current cycle is {self.now}"
            )
        heapq.heappush(self._queue, (when, self._seq, callback, args, False))
        self._seq += 1

    def schedule_daemon(
        self, delay: int, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule a housekeeping callback ``delay`` cycles from now.

        Daemon events fire like ordinary events while real work remains,
        but ``run`` discards them once they are all that is left — the
        clock never advances for a daemon alone.  Daemon callbacks must
        only observe state (schedule more daemons at most), never drive
        the simulation.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        heapq.heappush(
            self._queue, (self.now + int(delay), self._seq, callback, args, True)
        )
        self._seq += 1
        self._daemons_pending += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Drain the event queue.

        Args:
            until: stop once the clock would pass this cycle (events at
                exactly ``until`` still execute).
            max_events: safety valve against runaway simulations.  When
                it fires with real work still queued, ``truncated`` is
                set so callers can distinguish "finished" from "gave up".

        Returns:
            The final simulation time.
        """
        self.truncated = False
        queue = self._queue
        heappop = heapq.heappop
        stop_after = _UNBOUNDED if max_events is None else max_events
        horizon = _UNBOUNDED if until is None else until
        processed = 0
        while queue:
            if processed >= stop_after:
                # Checked at loop top so ``max_events=0`` processes
                # nothing and the tally can never leak across runs.
                self.truncated = self.real_pending > 0
                break
            if self._daemons_pending == len(queue):
                # Only housekeeping left: drop it without moving the clock.
                queue.clear()
                self._daemons_pending = 0
                break
            if queue[0][0] > horizon:
                self.now = until
                break
            when, _seq, callback, args, daemon = heappop(queue)
            if daemon:
                self._daemons_pending -= 1
            self.now = when
            callback(*args)
            processed += 1
            self._events_processed += 1
            audit = self._audit
            if audit is not None:
                self._audit_countdown -= 1
                if self._audit_countdown <= 0:
                    # Reset before the call so an auditor that raises
                    # (and is caught by a supervisor that resumes the
                    # run) does not re-fire on the very next event.
                    self._audit_countdown = self._audit_every
                    audit()
        return self.now

    def step(self) -> bool:
        """Execute a single event.  Returns False when the queue is empty."""
        if not self._queue:
            return False
        when, _seq, callback, args, daemon = heapq.heappop(self._queue)
        if daemon:
            self._daemons_pending -= 1
        self.now = when
        callback(*args)
        self._events_processed += 1
        return True

    # ------------------------------------------------------------------
    # Auditing
    # ------------------------------------------------------------------
    def attach_audit(self, every: int, callback: Callable[[], None]) -> None:
        """Invoke ``callback()`` after every ``every`` processed events.

        One auditor at a time; attaching replaces the previous one.  The
        auditor runs between events, so it always observes a consistent
        post-callback machine state.  An exception it raises propagates
        out of ``run`` with the engine left resumable (the triggering
        event has fully executed).
        """
        if every < 1:
            raise SimulationError(f"audit interval must be >= 1, got {every}")
        self._audit = callback
        self._audit_every = every
        self._audit_countdown = every

    def detach_audit(self) -> None:
        """Remove the audit hook (restores zero-cost event dispatch)."""
        self._audit = None
        self._audit_every = 0
        self._audit_countdown = 0

    def clear(self) -> None:
        """Drop every pending event, daemons included (the run is over)."""
        self._queue.clear()
        self._daemons_pending = 0

    @property
    def auditing(self) -> bool:
        return self._audit is not None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of events waiting in the queue (daemons included)."""
        return len(self._queue)

    @property
    def real_pending(self) -> int:
        """Pending events that represent actual simulated work."""
        return len(self._queue) - self._daemons_pending

    @property
    def exhausted(self) -> bool:
        """True when no real work remains (the run drained naturally)."""
        return self.real_pending == 0

    @property
    def events_processed(self) -> int:
        """Total number of events executed since construction."""
        return self._events_processed

    def peek_time(self) -> int | None:
        """Time of the next event, or None when the queue is empty."""
        if not self._queue:
            return None
        return self._queue[0][0]
