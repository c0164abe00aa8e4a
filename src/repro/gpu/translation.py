"""The address-translation pipeline: L1 TLBs -> L2 TLB -> walk backend.

This is the glue the paper's Figure 2 describes.  Per SM: a private L1
TLB with its own MSHR file.  Shared: the L2 TLB, its dedicated MSHRs
(plus In-TLB MSHR overflow, Section 4.5), the Page Walk Cache, and
whichever walk backend the configuration selects (hardware PTWs,
SoftWalker, or hybrid).

Both miss paths are routed here, inline: :meth:`miss` allocates,
merges or parks on the requesting SM's L1 MSHR file, and
:meth:`_l2_lookup` tracks an L2 miss on a dedicated MSHR first and an
In-TLB pending way on overflow.  Misses the L2 TLB cannot track (*MSHR
failures*, the events Figure 17 counts) park in a backpressure list and
re-attempt as walk completions free tracking slots — modelling the
L1-side retry a real design performs, without retry-storm events.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Protocol

from repro.config import GPUConfig
from repro.pagetable.radix import PageFault
from repro.pagetable.space import AddressSpace
from repro.ptw.request import WalkRequest
from repro.ptw.walker import WalkOutcome
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry
from repro.tlb.mshr import MSHRFile
from repro.tlb.pwc import PageWalkCache
from repro.tlb.speculation import MISPREDICT_PENALTY, ContiguityPredictor
from repro.tlb.tlb import TLB

#: callback(completion_cycle, pfn) delivered to the requesting warp.
TranslationCallback = Callable[[int, int], None]


def _probe_neighbour(space: AddressSpace, neighbour_vpn: int) -> int | None:
    """Coalesced-TLB range probe: PFN if mapped, None otherwise."""
    try:
        return space.translate(neighbour_vpn)
    except PageFault:
        return None


class WalkBackend(Protocol):
    """What the machine needs from a walk backend.

    This is the contract every
    :data:`repro.arch.registry.WALK_BACKENDS` factory must satisfy —
    plugin backends included (docs/architecture.md walks through an
    example).  Beyond submit/on_complete, the observability and
    resilience layers use three optional members when present:
    ``register_metrics(metrics)`` for sampled gauges,
    ``live_requests()`` for conservation audits, and ``in_flight``.
    ``on_complete`` is set to None when the job ends; a backend holds
    no other reference back to itself, so the machine is then freed by
    reference counting.
    """

    on_complete: Callable[[WalkRequest, WalkOutcome], None] | None

    def submit(self, request: WalkRequest) -> None: ...


class TranslationService:
    """Routes translation requests through the TLB hierarchy."""

    def __init__(
        self,
        engine: Engine,
        config: GPUConfig,
        space: AddressSpace,
        pwc: PageWalkCache,
        backend: WalkBackend,
        stats: StatsRegistry,
        *,
        fault_handler=None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.space = space
        self.pwc = pwc
        self.backend = backend
        self.stats = stats
        self._trace = stats.obs.trace
        self.fault_handler = fault_handler
        backend.on_complete = self._walk_complete

        self.l1_tlbs = [
            TLB(config.l1_tlb, stats, name="l1tlb") for _ in range(config.num_sms)
        ]
        self.l1_mshrs = [
            MSHRFile(
                config.l1_tlb.mshr_entries, config.l1_tlb.mshr_merges, name="l1tlb.mshr"
            )
            for _ in range(config.num_sms)
        ]
        if config.tlb_coalescing_span > 1:
            from repro.tlb.coalesced import CoalescedTLB

            self.l2_tlb: TLB = CoalescedTLB(
                config.l2_tlb,
                stats,
                name="l2tlb",
                span=config.tlb_coalescing_span,
                translate=partial(_probe_neighbour, space),
            )
        else:
            self.l2_tlb = TLB(config.l2_tlb, stats, name="l2tlb")
        self.l2_mshr = MSHRFile(
            config.l2_tlb.mshr_entries, config.l2_tlb.mshr_merges, name="l2tlb.mshr"
        )
        in_tlb_enabled = config.softwalker.enabled or config.hw_in_tlb_mshr
        #: In-TLB MSHR budget: L2 TLB ways that may be pending at once
        #: (0 disables the overflow path).
        self.in_tlb_limit = (
            config.softwalker.in_tlb_mshr_entries if in_tlb_enabled else 0
        )
        #: L1 TLB lookup latency: a hit is ready this many cycles after
        #: the request.
        self.l1_latency = config.l1_tlb.latency
        self._l2_latency = config.l2_tlb.latency
        # Hot-path counters: the raw mapping, bumped by literal name.
        self._counts = stats.counters.live()
        # Statistics handles, fetched on first use: fetching one creates
        # it, and an empty histogram or tracker enters the fingerprint.
        self._backpressure_hist = None
        self._walk_latency = None
        #: (sm_id, vpn) pairs refused an L2 tracking slot, waiting for one.
        self._backpressure: deque[tuple[int, int]] = deque()
        #: vpn -> cycle of its earliest unresolved L2 demand miss.  The
        #: paper measures queueing delay from translation-request issue,
        #: which includes time stalled on MSHR failures before a walk
        #: request even exists.
        self._first_miss: dict[int, int] = {}
        #: Avatar-style contiguity predictors (one per SM) when enabled.
        self._predictors = None
        if config.tlb_speculation:
            self._predictors = [
                ContiguityPredictor(stats) for _ in range(config.num_sms)
            ]
        #: Per-SM requests refused by a full L1 MSHR file, replayed as
        #: responses free entries (avoids timed-retry event storms).
        #: Keyed by VPN so a fill releases exactly its own waiters.
        self._l1_parked: list[dict[int, list[TranslationCallback]]] = [
            {} for _ in range(config.num_sms)
        ]
        self._l1_parked_order: list[deque[int]] = [
            deque() for _ in range(config.num_sms)
        ]

    # ------------------------------------------------------------------
    # Request entry (from warps' coalesced memory instructions)
    # ------------------------------------------------------------------
    def request(
        self, sm_id: int, vpn: int, now: int, callback: TranslationCallback
    ) -> None:
        """Translate ``vpn`` for SM ``sm_id``; ``callback(time, pfn)`` fires
        with the completion timestamp (synchronously for TLB hits).

        :meth:`l1_hit` then, on a miss, :meth:`miss`.  Warps call the
        two halves themselves so a hit builds no callback.
        """
        pfn = self.l1_hit(sm_id, vpn, now)
        if pfn is not None:
            callback(now + self.l1_latency, pfn)
            return
        self.miss(sm_id, vpn, now, callback)

    def l1_hit(self, sm_id: int, vpn: int, now: int) -> int | None:
        """Look ``vpn`` up in SM ``sm_id``'s L1 TLB at ``now``: the PFN on a
        hit (ready at ``now + l1_latency``), None on a miss, which the
        caller must hand to :meth:`miss`."""
        pfn = self.l1_tlbs[sm_id].lookup(vpn)
        trace = self._trace
        if trace.enabled:
            trace.instant(
                f"sm{sm_id}",
                "xlat.request",
                now,
                vpn=vpn,
                l1="hit" if pfn is not None else "miss",
            )
        return pfn

    def miss(
        self, sm_id: int, vpn: int, now: int, callback: TranslationCallback
    ) -> None:
        """Resolve an L1 TLB miss that :meth:`l1_hit` reported at ``now``.

        Avatar speculation first when enabled (a correct guess calls
        ``callback`` synchronously), then the L1 MSHR file: allocate,
        merge, or park until a response frees an entry.
        """
        lookup_done = now + self.l1_latency
        # The L2 TLB observes the miss after the L1 lookup resolved.
        l2_at = lookup_done
        if self._predictors is not None:
            carried = self._speculate(sm_id, vpn, lookup_done, callback)
            if carried is None:
                return
            if carried is not callback:
                callback = carried
                l2_at += MISPREDICT_PENALTY
        # L1 MSHR file: allocate, merge, or refuse (park).
        mshr = self.l1_mshrs[sm_id]
        entries = mshr._entries
        counts = self._counts
        waiters = entries.get(vpn)
        if waiters is None:
            if len(entries) < mshr.capacity:
                entries[vpn] = [callback]
                counts["l1tlb.mshr.allocated"] += 1
                engine = self.engine
                engine.schedule_at(
                    l2_at if l2_at > engine.now else engine.now,
                    self._l2_lookup,
                    sm_id,
                    vpn,
                )
                return
            counts["l1tlb.mshr.full"] += 1
        elif len(waiters) < mshr.merges:
            waiters.append(callback)
            counts["l1tlb.mshr.merged"] += 1
            return
        else:
            counts["l1tlb.mshr.merge_full"] += 1
        # The L1 MSHR file throttles per-SM outstanding translations;
        # the access replays once a response frees an entry.
        counts["l1tlb.mshr_failures"] += 1
        trace = self._trace
        if trace.enabled:
            trace.instant(f"sm{sm_id}", "l1tlb.mshr_full", now, vpn=vpn)
        parked = self._l1_parked[sm_id]
        waiters = parked.get(vpn)
        if waiters is None:
            parked[vpn] = [callback]
            self._l1_parked_order[sm_id].append(vpn)
        else:
            waiters.append(callback)

    def _speculate(
        self, sm_id: int, vpn: int, lookup_done: int, callback: TranslationCallback
    ) -> TranslationCallback | None:
        """Avatar path: try a contiguity-predicted translation.

        Returns None when a correct guess handled the request: it
        validates against the in-cacheline PTE and generates no L2 TLB
        or walk traffic.  Otherwise returns the callback the ordinary
        miss flow must carry: ``callback`` itself when there was nothing
        to speculate from, or — after a wrong guess, which pays the
        squash penalty — a :func:`~functools.partial` of
        :meth:`_trained_respond` that trains the predictor on the
        verified translation.
        """
        predictor = self._predictors[sm_id]
        prediction = predictor.predict(vpn)
        if prediction is None:
            return callback
        try:
            actual = self.space.translate(vpn)
        except PageFault:
            predictor.record_outcome(False)
            return callback
        if prediction == actual:
            predictor.record_outcome(True)
            predictor.observe(vpn, actual)
            self.l1_tlbs[sm_id].fill(vpn, actual)
            callback(lookup_done, actual)
            return None
        predictor.record_outcome(False)
        return partial(self._trained_respond, sm_id, vpn, callback)

    def _trained_respond(
        self, sm_id: int, vpn: int, callback: TranslationCallback, time: int, pfn: int
    ) -> None:
        """Deliver a squashed misprediction's verified translation.

        Trains the predictor on the real PFN and charges the squash
        penalty on top of the ordinary miss latency.
        """
        self._predictors[sm_id].observe(vpn, pfn)
        callback(time + MISPREDICT_PENALTY, pfn)

    # ------------------------------------------------------------------
    # L2 TLB
    # ------------------------------------------------------------------
    def _l2_lookup(self, sm_id: int, vpn: int, is_retry: bool = False) -> None:
        now = self.engine.now
        lookup_done = now + self._l2_latency
        l2 = self.l2_tlb
        pfn = l2.lookup(vpn)
        trace = self._trace
        if trace.enabled:
            trace.instant(
                "l2tlb",
                "l2tlb.lookup",
                now,
                sm=sm_id,
                vpn=vpn,
                hit=pfn is not None,
                retry=is_retry,
            )
        if pfn is not None:
            self._first_miss.pop(vpn, None)
            self._respond(sm_id, vpn, pfn, lookup_done)
            return
        counts = self._counts
        if not is_retry:
            # Workload-characteristic misses (MPKI) exclude backpressure
            # retries, which are a structural artefact.
            counts["l2tlb.demand_misses"] += 1
            self._first_miss.setdefault(vpn, now)
        # Section 4.5 routing.  An in-flight miss on ``vpn`` lives in
        # exactly one of the MSHR file and the pending ways, so merge
        # paths come first; a fresh miss takes a dedicated MSHR (regular
        # workloads never touch TLB entries until the file is
        # saturated), then an In-TLB pending way.  ``capacity`` is read
        # on every call: fault injection lowers it transiently.
        mshr = self.l2_mshr
        entries = mshr._entries
        waiters = entries.get(vpn)
        if waiters is not None:
            if len(waiters) < mshr.merges:
                waiters.append(sm_id)
                counts["l2tlb.mshr.merged"] += 1
                return
            counts["l2tlb.mshr.merge_full"] += 1
        else:
            pending = l2.probe_pending(vpn) if l2.pending_entries else None
            if pending is not None:
                if len(pending) < mshr.merges:
                    l2.merge_pending(vpn, sm_id)
                    return
                counts["l2tlb.pending_merge_full"] += 1
            elif len(entries) < mshr.capacity:
                entries[vpn] = [sm_id]
                counts["l2tlb.mshr.allocated"] += 1
                self._launch_walk(vpn, lookup_done, sm_id)
                return
            else:
                counts["l2tlb.mshr.full"] += 1
                limit = self.in_tlb_limit
                if limit and l2.pending_entries < limit:
                    if l2.allocate_pending(vpn, sm_id):
                        self._launch_walk(vpn, lookup_done, sm_id)
                        return
                    # Every way of the set is already a pending slot —
                    # the per-set bottleneck that caps spmv in Section 6.3.
                    counts["l2tlb.pending_set_full"] += 1
        # MSHR failure: nothing could hold the miss; it retries later.
        counts["l2tlb.mshr_failures"] += 1
        backpressure = self._backpressure
        backpressure.append((sm_id, vpn))
        histogram = self._backpressure_hist
        if histogram is None:
            histogram = self._backpressure_hist = self.stats.histogram(
                "l2tlb.backpressure_depth"
            )
        histogram.record(len(backpressure))
        if trace.enabled:
            trace.instant("l2tlb", "l2tlb.mshr_failure", now, sm=sm_id, vpn=vpn)
            trace.counter("l2tlb", "l2tlb.backpressure", now, depth=len(backpressure))

    def _launch_walk(self, vpn: int, enqueue_time: int, sm_id: int = -1) -> None:
        start_level, node_base = self.pwc.probe(vpn)
        request = WalkRequest(
            vpn=vpn,
            enqueue_time=enqueue_time,
            start_level=start_level,
            node_base=node_base,
            requester_sm=sm_id,
        )
        self._counts["walks.launched"] += 1
        trace = self._trace
        if trace.enabled:
            request.trace_id = trace.new_id()
            trace.instant(
                "walks",
                "walk.launch",
                self.engine.now,
                id=request.trace_id,
                sm=sm_id,
                vpn=vpn,
                start_level=start_level,
            )
        self.backend.submit(request)

    # ------------------------------------------------------------------
    # Walk completion
    # ------------------------------------------------------------------
    def _walk_complete(self, request: WalkRequest, outcome: WalkOutcome) -> None:
        now = self.engine.now
        if outcome.faulted:
            if self.fault_handler is None:
                raise PageFault(request.vpn, outcome.fault_level)
            self.fault_handler.handle(request)
            return

        counts = self._counts
        counts["walks.completed"] += 1
        first_miss = self._first_miss.get(request.vpn, request.enqueue_time)
        pre_walk_wait = max(0, request.enqueue_time - first_miss)
        latency = self._walk_latency
        if latency is None:
            latency = self._walk_latency = self.stats.latency("walk")
        latency.record(
            {
                "queueing": request.queueing + pre_walk_wait,
                "access": request.access,
                "communication": request.communication,
                "execution": request.execution,
            }
        )
        trace = self._trace
        if trace.enabled:
            # The walk's async span carries one nested leg per latency
            # component, so folding the trace by span name reproduces
            # the LatencyTracker's Figure 7/18 breakdown exactly.
            trace.lifecycle(
                "walk",
                request.trace_id,
                now,
                {
                    "queueing": request.queueing + pre_walk_wait,
                    "communication": request.communication,
                    "execution": request.execution,
                    "access": request.access,
                },
                vpn=request.vpn,
                sm=request.requester_sm,
                merged=len(request.merged_vpns),
            )
        assert outcome.pfn is not None
        self._resolve_vpn(request.vpn, outcome.pfn, now)
        for vpn in request.merged_vpns:
            # NHA: the fetched PTE sector satisfied neighbours too.
            try:
                pfn = self.space.translate(vpn)
            except PageFault as fault:
                # The neighbour's PTE is invalid (unmapped or corrupted
                # while the host walk was in flight).  Its waiters are
                # still parked on the L2 TLB, so relaunch it as its own
                # walk through the far-fault path rather than dropping
                # it — `continue` alone would strand them forever.
                self._refault_merged(vpn, fault.level, now)
                continue
            counts["walks.completed_merged"] += 1
            self._resolve_vpn(vpn, pfn, now)
        self._drain_backpressure()

    def _refault_merged(self, vpn: int, level: int, now: int) -> None:
        """Re-home a faulted NHA neighbour as a standalone walk."""
        self._counts["walks.refaulted_merged"] += 1
        if self.fault_handler is None:
            raise PageFault(vpn, level)
        orphan = WalkRequest(
            vpn=vpn,
            enqueue_time=now,
            start_level=self.space.layout.levels,
            node_base=self.space.radix.root_base,
        )
        orphan.faulted = True
        orphan.fault_level = level
        self.fault_handler.handle(orphan)

    def _resolve_vpn(self, vpn: int, pfn: int, time: int) -> None:
        self._first_miss.pop(vpn, None)
        # A pending way's waiters come back from the fill; an MSHR
        # entry's are freed here.
        waiters = self.l2_tlb.fill(vpn, pfn)
        mshr_waiters = self.l2_mshr._entries.pop(vpn, None)
        if mshr_waiters is not None:
            self._counts["l2tlb.mshr.resolved"] += 1
            waiters = [*waiters, *mshr_waiters] if waiters else mshr_waiters
        if len(waiters) == 1:
            self._respond(waiters[0], vpn, pfn, time)
            return
        for sm_id in dict.fromkeys(waiters):
            self._respond(sm_id, vpn, pfn, time)

    def _drain_backpressure(self) -> None:
        """Replay refused requests until one is refused again.

        Retried lookups often hit the now-filled L2 TLB (or merge) and
        free no tracking slot, so a fixed one-per-completion drain can
        starve the queue once walks run dry; draining until a retry
        re-fails keeps exactly one failure outstanding per round.
        """
        while self._backpressure:
            sm_id, vpn = self._backpressure.popleft()
            depth_before = len(self._backpressure)
            self._l2_lookup(sm_id, vpn, is_retry=True)
            if len(self._backpressure) > depth_before:
                break

    # ------------------------------------------------------------------
    # Response path (L2 -> requesting SM's L1)
    # ------------------------------------------------------------------
    def _respond(self, sm_id: int, vpn: int, pfn: int, time: int) -> None:
        if self._predictors is not None:
            self._predictors[sm_id].observe(vpn, pfn)
        self.l1_tlbs[sm_id].fill(vpn, pfn)
        entries = self.l1_mshrs[sm_id]._entries
        waiters = entries.pop(vpn, None)
        if waiters is not None:
            self._counts["l1tlb.mshr.resolved"] += 1
            for callback in waiters:
                callback(time, pfn)
        # Parked duplicates of this VPN hit the freshly filled L1 entry.
        parked = self._l1_parked[sm_id]
        waiters = parked.pop(vpn, None)
        if waiters is not None:
            hit_time = time + self.l1_latency
            for callback in waiters:
                callback(hit_time, pfn)
        # The resolve freed one MSHR entry: replay parked VPNs into it.
        # Replays that resolve synchronously (TLB hits) produce no future
        # response event, so keep draining until one actually occupies an
        # MSHR slot (or re-parks) — otherwise the queue would starve.
        order = self._l1_parked_order[sm_id]
        while order:
            next_vpn = order.popleft()
            waiters = parked.pop(next_vpn, None)
            if waiters is None:
                continue  # already satisfied by an earlier fill
            for callback in waiters:
                self.request(sm_id, next_vpn, time, callback)
            if next_vpn in entries or next_vpn in parked:
                break

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def register_metrics(self, metrics) -> None:
        """Expose the TLB hierarchy's live state as sampled gauges."""
        metrics.register_gauge("l2tlb.hit_rate", self.l2_tlb.hit_rate)
        metrics.register_gauge("l2tlb.mshr_occupancy", lambda: self.l2_mshr.occupancy)
        metrics.register_gauge(
            "l2tlb.pending_entries", lambda: self.l2_tlb.pending_entries
        )
        metrics.register_gauge(
            "l2tlb.backpressure_depth", lambda: len(self._backpressure)
        )
        metrics.register_gauge(
            "l1tlb.mshr_occupancy",
            lambda: sum(mshr.occupancy for mshr in self.l1_mshrs),
        )
        metrics.register_gauge(
            "l1tlb.parked_vpns",
            lambda: sum(len(parked) for parked in self._l1_parked),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def backpressure_depth(self) -> int:
        return len(self._backpressure)
