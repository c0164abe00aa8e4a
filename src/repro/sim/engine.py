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
  as the metrics sampler.  They wait in a heap of their own, beside the
  heap of real events, and share its insertion counter: the loop pops
  the daemon head instead of the real head only when its ``(time,
  seq)`` is the smaller, so the two heaps dispatch in exactly the order
  one merged heap would.  When the real heap empties the daemons are
  dropped, so instrumentation can never extend a simulation's final
  cycle count, and a run without daemons pays one empty-list test per
  event for them.
* **Audit hook** (``attach_audit``) — a callback invoked every N
  processed events, used by the resilience layer's invariant checker.
  Unlike daemons it is event-indexed rather than time-indexed, so audits
  track simulation *progress* even when the clock jumps.  The loop
  compares the event count with one threshold, the nearer of the next
  audit and the end of the ``max_events`` slice, so an unaudited run
  pays nothing more for the hook.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

#: Stands in for "no limit": an event count no run reaches, so the loop
#: compares one int per event instead of testing for None first.
_UNBOUNDED = 1 << 63

#: One queued event: ``(when, seq, callback, args)``.
Event = tuple[int, int, Callable[..., None], tuple[Any, ...]]


class SimulationError(RuntimeError):
    """Raised when the engine is used incorrectly (e.g. scheduling in the past)."""


class Engine:
    """A discrete-event simulator with a cycle-granularity clock.

    Events scheduled for the same cycle fire in the order they were
    scheduled, which keeps runs deterministic regardless of heap internals.
    """

    def __init__(self) -> None:
        self.now: int = 0
        #: Real events; the run is over when this heap is empty.
        self._queue: list[Event] = []
        #: Daemon events, ordered against ``_queue`` by the shared ``_seq``.
        self._daemons: list[Event] = []
        self._seq: int = 0
        self._events_processed: int = 0
        #: Audit hook state; ``_audit`` is None when no auditor is
        #: attached, and ``_audit_due`` is then ``_UNBOUNDED``.
        self._audit: Callable[[], None] | None = None
        self._audit_every: int = 0
        self._audit_due: int = _UNBOUNDED
        #: The event count at which ``run`` leaves its fast path: the
        #: nearer of ``_audit_due`` and the slice's end.
        self._due: int = _UNBOUNDED

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        heapq.heappush(self._queue, (self.now + int(delay), self._seq, callback, args))
        self._seq += 1

    def schedule_at(self, when: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute cycle ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at cycle {when}, current cycle is {self.now}"
            )
        heapq.heappush(self._queue, (when, self._seq, callback, args))
        self._seq += 1

    def schedule_daemon(
        self, delay: int, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule a housekeeping callback ``delay`` cycles from now.

        Daemon events fire like ordinary events while real work remains,
        but ``run`` discards them once they are all that is left — the
        clock never advances for a daemon alone.  Daemon callbacks
        observe state and schedule more daemons; one that schedules real
        work (fault injection) keeps the run going.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        heapq.heappush(
            self._daemons, (self.now + int(delay), self._seq, callback, args)
        )
        self._seq += 1

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
        daemons = self._daemons
        heappop = heapq.heappop
        count = self._events_processed
        stop_at = _UNBOUNDED if max_events is None else count + max_events
        if count >= stop_at:
            # ``max_events <= 0`` processes nothing.
            return self.now
        self._due = min(stop_at, self._audit_due)
        while queue:
            if daemons and daemons[0] < queue[0]:
                when, _seq, callback, args = heappop(daemons)
            else:
                when, _seq, callback, args = heappop(queue)
            self.now = when
            callback(*args)
            count += 1
            # Stored per event: the audit hook, daemons and a supervisor
            # handling an exception all read the exact count.
            self._events_processed = count
            if count >= self._due:
                if count >= self._audit_due:
                    # Reset before the call so an auditor that raises
                    # (and is caught by a supervisor that resumes the
                    # run) does not re-fire on the very next event.
                    self._audit_due = count + self._audit_every
                    self._audit()
                if count >= stop_at:
                    return self.now
                # Also refreshes a threshold an attach or detach moved.
                self._due = min(stop_at, self._audit_due)
        # Only housekeeping left: drop it without moving the clock.
        daemons.clear()
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
        self._audit_due = self._events_processed + every
        # Attached mid-run, the running loop must see the new threshold.
        self._due = min(self._due, self._audit_due)

    def detach_audit(self) -> None:
        """Remove the audit hook (restores zero-cost event dispatch)."""
        self._audit = None
        self._audit_every = 0
        self._audit_due = _UNBOUNDED

    def clear(self) -> None:
        """Drop every pending event, daemons included (the run is over)."""
        self._queue.clear()
        self._daemons.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of events waiting in the queue (daemons included)."""
        return len(self._queue) + len(self._daemons)

    @property
    def real_pending(self) -> int:
        """Pending events that represent actual simulated work."""
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        """Total number of events executed since construction."""
        return self._events_processed
