"""Deterministic discrete-event simulation engine.

The engine is the heartbeat of every model in this package.  Components
schedule callbacks at absolute or relative times measured in GPU core
cycles; the engine pops events in (time, insertion-order) order so that
simulations are fully deterministic and reproducible.

The engine is intentionally minimal: a binary heap of events, a clock
and one dispatch loop, ``run``.  The simulator calls it once to drain
the queue, or repeatedly with ``max_events`` to run in slices; a slice
that stops with ``real_pending > 0`` was cut, not drained.  All
higher-level timing behaviour (queueing, pipelining, bandwidth) is
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


#: Stands in for "no limit" in ``run``: a bound no event count reaches,
#: so the loop tests one int per event instead of None first.
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
    def run(self, max_events: int | None = None) -> int:
        """Drain the event queue.

        Args:
            max_events: process at most this many events, then return
                with the rest still queued.  The caller resumes with
                another ``run``; ``real_pending`` tells a cut slice
                from a drained queue.

        Returns:
            The final simulation time.
        """
        queue = self._queue
        heappop = heapq.heappop
        stop_after = _UNBOUNDED if max_events is None else max_events
        processed = 0
        while queue:
            if processed >= stop_after:
                # Checked at loop top so ``max_events=0`` processes
                # nothing and the tally can never leak across runs.
                break
            if self._daemons_pending == len(queue):
                # Only housekeeping left: drop it without moving the clock.
                queue.clear()
                self._daemons_pending = 0
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
    def events_processed(self) -> int:
        """Total number of events executed since construction."""
        return self._events_processed
