"""Hardware page-walk subsystem: PWB, walker pool, ports, NHA coalescing.

The baseline GPU resolves L2 TLB misses here: requests buffer in the
Page Walk Buffer until one of the ``num_walkers`` hardware walkers is
free, then traverse the radix table through the memory system.  The
time a request spends buffered is the *queueing delay* the whole paper
revolves around; it is recorded separately from traversal time.

Optionally models:

* **PWB ports** — how many walks can be dequeued per cycle (Figure 15's
  area/performance trade-off sweep).
* **NHA coalescing** (ref [86]) — pending walks whose final-level PTEs
  fall in the same cache sector merge into a single traversal.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable

from repro.arch.registry import PWB_POLICIES
from repro.config import PTWConfig
from repro.pagetable.radix import RadixPageTable
from repro.ptw.request import WalkRequest
from repro.ptw.walker import PteMemoryPort, WalkOutcome, execute_walk
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry
from repro.tlb.pwc import PageWalkCache

#: PTEs covered by one coalescing unit (32B sector / 8B PTE).
NHA_SPAN_PTES = 4

CompletionCallback = Callable[[WalkRequest, WalkOutcome], None]


class PwbPolicy:
    """PWB dequeue order: which queued walk a freed walker picks up.

    Resolved by name through :data:`repro.arch.registry.PWB_POLICIES`.
    ``dequeue`` receives the backend and must remove and return one
    request from ``backend._queue`` (guaranteed non-empty).
    """

    name = "?"

    def dequeue(self, backend: "HardwareWalkBackend") -> WalkRequest:
        raise NotImplementedError


class FcfsPwbPolicy(PwbPolicy):
    """Drain the PWB strictly in arrival order (the default)."""

    name = "fcfs"

    def dequeue(self, backend: "HardwareWalkBackend") -> WalkRequest:
        return backend._queue.popleft()


class SmBatchPwbPolicy(PwbPolicy):
    """Warp-aware page-walk scheduling (ref [85]).

    Prefers a walk from the same SM as the one just finished, shrinking
    the gap between the first and last completed walks of one warp
    instruction.
    """

    name = "sm_batch"

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


class HardwareWalkBackend:
    """Fixed pool of hardware page table walkers fed by a PWB."""

    def __init__(
        self,
        engine: Engine,
        config: PTWConfig,
        page_table: RadixPageTable,
        pte_port: PteMemoryPort,
        pwc: PageWalkCache | None,
        stats: StatsRegistry,
        traversal: Callable[[int, int, int], WalkOutcome] | None = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.page_table = page_table
        self.pte_port = pte_port
        self.pwc = pwc
        self.stats = stats
        self._trace = stats.obs.trace
        self._counts = stats.counters.live()
        #: Walk-depth histogram, fetched on first use: fetching creates
        #: it, and an empty histogram enters the fingerprint.
        self._levels_hist = None
        # A partial, not a bound method: ``self`` must not hold itself.
        self._traverse = traversal or partial(execute_walk, page_table, pte_port, pwc)
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
        self._pwb_policy = PWB_POLICIES.create(config.pwb_policy)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    @property
    def has_free_walker(self) -> bool:
        return self._free_walkers > 0

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

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
        levels = self._levels_hist
        if levels is None:
            levels = self._levels_hist = self.stats.histogram("ptw.levels")
        levels.record(outcome.levels_accessed)
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
