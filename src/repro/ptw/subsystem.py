"""Hardware page-walk subsystem: PWB, walker pool, ports, NHA coalescing.

The baseline GPU resolves L2 TLB misses here: requests buffer in the
Page Walk Buffer until one of the ``num_walkers`` hardware walkers is
free, then traverse the page table (radix, or FS-HPT's hashed table)
through the memory system.  The time a request spends buffered is the
*queueing delay* the whole paper revolves around; it is recorded
separately from traversal time.

Optionally models:

* **PWB ports** — how many walks can be dequeued per cycle (Figure 15's
  area/performance trade-off sweep).
* **NHA coalescing** (ref [86]) — pending walks whose final-level PTEs
  fall in the same cache sector merge into a single traversal.
* **PWB dequeue order** — ``PTWConfig.pwb_policy`` picks the
  :class:`DequeuePolicy` class a freed walker consults.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.config import PTWConfig, PwbPolicy
from repro.ptw.request import WalkRequest
from repro.ptw.walker import WalkOutcome
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry

#: PTEs covered by one coalescing unit (32B sector / 8B PTE).
NHA_SPAN_PTES = 4

CompletionCallback = Callable[[WalkRequest, WalkOutcome], None]


class DequeuePolicy:
    """PWB dequeue order: which queued walk a freed walker picks up.

    One class per :attr:`repro.config.PwbPolicy.ALL` name (see
    :data:`DEQUEUE_POLICIES`).  ``dequeue`` receives the backend and
    must remove and return one request from ``backend._queue``
    (guaranteed non-empty).
    """

    def dequeue(self, backend: "HardwareWalkBackend") -> WalkRequest:
        raise NotImplementedError


class FcfsPwbPolicy(DequeuePolicy):
    """Drain the PWB strictly in arrival order (the default)."""

    def dequeue(self, backend: "HardwareWalkBackend") -> WalkRequest:
        return backend._queue.popleft()


class SmBatchPwbPolicy(DequeuePolicy):
    """Warp-aware page-walk scheduling (ref [85]).

    Prefers a walk from the same SM as the one just finished, shrinking
    the gap between the first and last completed walks of one warp
    instruction.
    """

    def dequeue(self, backend: "HardwareWalkBackend") -> WalkRequest:
        queue = backend._queue
        if backend._last_sm >= 0:
            # Bounded scan keeps the CAM-match cost plausible.
            limit = min(len(queue), backend.config.pwb_entries)
            for index in range(limit):
                if queue[index].requester_sm == backend._last_sm:
                    request = queue[index]
                    del queue[index]
                    backend._counts["ptw.sm_batched"] += 1
                    return request
        return queue.popleft()


#: The dequeue policy class of each PWB policy name.
DEQUEUE_POLICIES = {
    PwbPolicy.FCFS: FcfsPwbPolicy,
    PwbPolicy.SM_BATCH: SmBatchPwbPolicy,
}


class HardwareWalkBackend:
    """Fixed pool of hardware page table walkers fed by a PWB.

    ``traverse`` is the page table's ``(vpn, start_level, begin) ->
    WalkOutcome`` walk: a partial of
    :func:`~repro.ptw.walker.execute_walk` for the radix table, or the
    FS-HPT hashed probe.  It must not be a bound method of a component
    that holds this backend.
    """

    def __init__(
        self,
        engine: Engine,
        config: PTWConfig,
        traverse: Callable[[int, int, int], WalkOutcome],
        stats: StatsRegistry,
    ) -> None:
        self.engine = engine
        self.config = config
        self.stats = stats
        self._trace = stats.obs.trace
        self._counts = stats.counters.live()
        #: Live buckets of the walk-depth histogram, fetched on first
        #: use: fetching creates it, and an empty histogram enters the
        #: fingerprint.
        self._levels_buckets = None
        self._traverse = traverse
        self.on_complete: CompletionCallback | None = None
        self._queue: deque[WalkRequest] = deque()
        self._free_walkers = config.num_walkers
        #: Requests currently executing on a walker, in start order.
        #: Kept for conservation audits: every tracked L2 miss must be
        #: attributable to a live walk somewhere in the machine.
        self._busy: list[WalkRequest] = []
        #: Walkers administratively removed from the pool (fault
        #: injection models transient walker stalls this way).
        self._stalled = 0
        # PWB ports bound how many walks can be dequeued per cycle.
        self._port_cycle = 0
        self._port_used = 0
        self._last_sm = -1
        self._nha_pending: dict[int, WalkRequest] = {}
        self._pwb_policy = DEQUEUE_POLICIES[config.pwb_policy]()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    @property
    def has_free_walker(self) -> bool:
        return self._free_walkers > 0

    @property
    def busy_walkers(self) -> int:
        return len(self._busy)

    @property
    def in_flight(self) -> int:
        """Requests the backend currently owns (queued + executing)."""
        return len(self._queue) + len(self._busy)

    def live_requests(self) -> list[WalkRequest]:
        """Every request the backend owns right now (audit support)."""
        return [*self._queue, *self._busy]

    def stall_walkers(self, count: int) -> int:
        """Administratively remove up to ``count`` walkers from the pool.

        Busy walkers finish their current walk but do not pick up new
        work until :meth:`resume_walkers`.  Returns how many were
        actually stalled (never more than the pool size).
        """
        count = max(0, min(count, self.config.num_walkers - self._stalled))
        self._stalled += count
        self._free_walkers -= count
        return count

    def resume_walkers(self, count: int) -> None:
        """Return stalled walkers to service and drain the PWB backlog."""
        count = max(0, min(count, self._stalled))
        self._stalled -= count
        self._free_walkers += count
        while self._queue and self._free_walkers > 0:
            self._start(self._dequeue())

    def utilisation(self) -> float:
        """Instantaneous fraction of walkers busy (a sampler gauge)."""
        if self.config.num_walkers == 0:
            return 0.0
        return self.busy_walkers / self.config.num_walkers

    def register_metrics(self, metrics) -> None:
        """Expose PWB and walker-pool state as sampled gauges."""
        metrics.register_gauge("ptw.queue_depth", lambda: len(self._queue))
        metrics.register_gauge("ptw.busy_walkers", lambda: self.busy_walkers)
        metrics.register_gauge("ptw.utilisation", self.utilisation)

    def submit(self, request: WalkRequest) -> None:
        """Accept a walk request (enqueue time already stamped)."""
        self._counts["ptw.submitted"] += 1
        if self.config.nha_coalescing and self._try_nha_merge(request):
            return
        if self._free_walkers > 0:
            self._start(request)
            return
        if len(self._queue) >= self.config.pwb_entries:
            # The PWB proper is full; requests overflow into MSHR-held
            # backpressure.  The wait is still queueing delay either way.
            self._counts["ptw.pwb_overflow"] += 1
            if self._trace.enabled:
                self._trace.instant(
                    "pwb", "pwb.overflow", self.engine.now, vpn=request.vpn
                )
        self._queue.append(request)
        if self._trace.enabled:
            self._trace.counter(
                "pwb", "pwb.depth", self.engine.now, depth=len(self._queue)
            )
        if self.config.nha_coalescing:
            self._nha_pending.setdefault(self._nha_key(request.vpn), request)

    def _nha_key(self, vpn: int) -> int:
        return vpn // NHA_SPAN_PTES

    def _try_nha_merge(self, request: WalkRequest) -> bool:
        """Merge onto a *queued* walk whose leaf PTE shares the sector."""
        host = self._nha_pending.get(self._nha_key(request.vpn))
        if host is None or host.vpn == request.vpn:
            return False
        if len(host.merged_vpns) + 1 >= NHA_SPAN_PTES:
            return False
        host.merged_vpns.append(request.vpn)
        self._counts["ptw.nha_merged"] += 1
        if self._trace.enabled:
            self._trace.instant(
                "pwb",
                "pwb.nha_merge",
                self.engine.now,
                vpn=request.vpn,
                host_vpn=host.vpn,
            )
        return True

    # ------------------------------------------------------------------
    # Walker pool
    # ------------------------------------------------------------------
    def _acquire_port(self, when: int) -> int:
        """Dequeuing a walk occupies one PWB port for a cycle.

        At most ``pwb_ports`` walks may start per cycle; extra starts
        slip to following cycles.  Grant times are monotone because the
        walker pool starts walks in arrival order.
        """
        if when > self._port_cycle:
            self._port_cycle = when
            self._port_used = 0
        if self._port_used < self.config.pwb_ports:
            self._port_used += 1
            return self._port_cycle
        self._port_cycle += 1
        self._port_used = 1
        return self._port_cycle

    def _start(self, request: WalkRequest) -> None:
        self._free_walkers -= 1
        self._busy.append(request)
        if self.config.nha_coalescing:
            self._nha_pending.pop(self._nha_key(request.vpn), None)
        begin = self._acquire_port(max(self.engine.now, request.enqueue_time))
        request.queueing = begin - request.enqueue_time
        outcome = self._traverse(request.vpn, request.start_level, begin)
        request.access = outcome.finish_time - begin
        request.faulted = outcome.faulted
        request.fault_level = outcome.fault_level
        self._counts["ptw.walks"] += 1
        levels = self._levels_buckets
        if levels is None:
            levels = self._levels_buckets = self.stats.histogram("ptw.levels").live()
        levels[outcome.levels_accessed] += 1
        if self._trace.enabled:
            self._trace.instant(
                "pwb",
                "ptw.walk_start",
                begin,
                id=request.trace_id,
                vpn=request.vpn,
                queued=request.queueing,
                levels=outcome.levels_accessed,
            )
        self.engine.schedule_at(outcome.finish_time, self._finish, request, outcome)

    def _dequeue(self) -> WalkRequest:
        """Pick the next queued walk according to the PWB policy."""
        return self._pwb_policy.dequeue(self)

    def _finish(self, request: WalkRequest, outcome: WalkOutcome) -> None:
        self._free_walkers += 1
        self._busy.remove(request)
        self._last_sm = request.requester_sm
        if self.on_complete is None:
            raise RuntimeError("HardwareWalkBackend.on_complete not wired")
        self.on_complete(request, outcome)
        while self._queue and self._free_walkers > 0:
            self._start(self._dequeue())
