"""The address-translation pipeline: L1 TLBs -> L2 TLB -> walk backend.

This is the glue the paper's Figure 2 describes.  Per SM: a private L1
TLB with its own MSHR file.  Shared: the L2 TLB, its dedicated MSHRs
(plus In-TLB MSHR overflow via :class:`~repro.tlb.tracker.L2MissTracker`),
the Page Walk Cache, and whichever walk backend the configuration
selects (hardware PTWs, SoftWalker, or hybrid).

Misses the L2 TLB cannot track (*MSHR failures*) park in a backpressure
list and re-attempt as walk completions free tracking slots — modelling
the L1-side retry a real design performs, without retry-storm events.
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
from repro.tlb.mshr import MSHRFile, MSHRResult
from repro.tlb.pwc import PageWalkCache
from repro.tlb.tlb import TLB
from repro.tlb.tracker import L2MissTracker, TrackOutcome

#: callback(completion_cycle, pfn) delivered to the requesting warp.
TranslationCallback = Callable[[int, int], None]


class WalkBackend(Protocol):
    """What the machine needs from a walk backend.

    This is the contract every
    :data:`repro.arch.registry.WALK_BACKENDS` factory must satisfy —
    plugin backends included (docs/architecture.md walks through an
    example).  Beyond submit/on_complete, the observability and
    resilience layers use three optional members when present:
    ``register_metrics(metrics)`` for sampled gauges,
    ``live_requests()`` for conservation audits, and ``in_flight``.
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
                config.l1_tlb.mshr_entries,
                config.l1_tlb.mshr_merges,
                stats,
                name="l1tlb.mshr",
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
                translate=self._probe_neighbour,
            )
        else:
            self.l2_tlb = TLB(config.l2_tlb, stats, name="l2tlb")
        self.l2_mshr = MSHRFile(
            config.l2_tlb.mshr_entries,
            config.l2_tlb.mshr_merges,
            stats,
            name="l2tlb.mshr",
        )
        in_tlb_enabled = config.softwalker.enabled or config.hw_in_tlb_mshr
        in_tlb_limit = (
            config.softwalker.in_tlb_mshr_entries if in_tlb_enabled else 0
        )
        self.tracker = L2MissTracker(
            self.l2_tlb, self.l2_mshr, stats, in_tlb_limit=in_tlb_limit
        )
        #: (sm_id, vpn) pairs refused by the tracker, waiting for slots.
        self._backpressure: deque[tuple[int, int]] = deque()
        #: vpn -> cycle of its earliest unresolved L2 demand miss.  The
        #: paper measures queueing delay from translation-request issue,
        #: which includes time stalled on MSHR failures before a walk
        #: request even exists.
        self._first_miss: dict[int, int] = {}
        #: Avatar-style contiguity predictors (one per SM) when enabled.
        self._predictors = None
        if config.tlb_speculation:
            from repro.tlb.speculation import ContiguityPredictor

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

    def _probe_neighbour(self, neighbour_vpn: int) -> int | None:
        """Coalesced-TLB range probe: PFN if mapped, None otherwise."""
        try:
            return self.space.translate(neighbour_vpn)
        except PageFault:
            return None

    # ------------------------------------------------------------------
    # Request entry (from warps' coalesced memory instructions)
    # ------------------------------------------------------------------
    def request(
        self, sm_id: int, vpn: int, now: int, callback: TranslationCallback
    ) -> None:
        """Translate ``vpn`` for SM ``sm_id``; ``callback(time, pfn)`` fires
        with the completion timestamp (synchronously for TLB hits)."""
        l1 = self.l1_tlbs[sm_id]
        lookup_done = now + self.config.l1_tlb.latency
        pfn = l1.lookup(vpn)
        trace = self._trace
        if trace.enabled:
            trace.instant(
                f"sm{sm_id}",
                "xlat.request",
                now,
                vpn=vpn,
                l1="hit" if pfn is not None else "miss",
            )
        if pfn is not None:
            callback(lookup_done, pfn)
            return
        if self._predictors is not None:
            outcome = self._speculate(sm_id, vpn, lookup_done, callback)
            if outcome:
                return
        result = self.l1_mshrs[sm_id].allocate(vpn, callback)
        if result is MSHRResult.NEW:
            # Forward to the L2 TLB; it observes the miss after the L1
            # lookup resolved.
            when = max(self.engine.now, lookup_done)
            self.engine.schedule_at(when, self._l2_lookup, sm_id, vpn)
        elif result is MSHRResult.FULL:
            # The L1 MSHR file throttles per-SM outstanding translations;
            # the access replays once a response frees an entry.
            self.stats.counters.add("l1tlb.mshr_failures")
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
    ) -> bool:
        """Avatar path: try a contiguity-predicted translation.

        Returns True when speculation handled the request.  A correct
        guess validates against the in-cacheline PTE and generates no
        L2 TLB or walk traffic; a wrong guess pays the squash penalty
        and then follows the ordinary miss flow (with a callback wrapper
        that trains the predictor on the verified translation).
        """
        from repro.tlb.speculation import MISPREDICT_PENALTY

        predictor = self._predictors[sm_id]
        prediction = predictor.predict(vpn)
        if prediction is None:
            return False
        try:
            actual = self.space.translate(vpn)
        except PageFault:
            predictor.record_outcome(False)
            return False
        if prediction == actual:
            predictor.record_outcome(True)
            predictor.observe(vpn, actual)
            self.l1_tlbs[sm_id].fill(vpn, actual)
            callback(lookup_done, actual)
            return True
        predictor.record_outcome(False)

        trained_callback = partial(self._trained_respond, sm_id, vpn, callback)
        result = self.l1_mshrs[sm_id].allocate(vpn, trained_callback)
        if result is MSHRResult.NEW:
            when = max(self.engine.now, lookup_done + MISPREDICT_PENALTY)
            self.engine.schedule_at(when, self._l2_lookup, sm_id, vpn)
        elif result is MSHRResult.FULL:
            self.stats.counters.add("l1tlb.mshr_failures")
            parked = self._l1_parked[sm_id]
            waiters = parked.get(vpn)
            if waiters is None:
                parked[vpn] = [trained_callback]
                self._l1_parked_order[sm_id].append(vpn)
            else:
                waiters.append(trained_callback)
        return True

    def _trained_respond(
        self, sm_id: int, vpn: int, callback: TranslationCallback, time: int, pfn: int
    ) -> None:
        """Deliver a squashed misprediction's verified translation.

        Trains the predictor on the real PFN and charges the squash
        penalty on top of the ordinary miss latency.
        """
        from repro.tlb.speculation import MISPREDICT_PENALTY

        self._predictors[sm_id].observe(vpn, pfn)
        callback(time + MISPREDICT_PENALTY, pfn)

    # ------------------------------------------------------------------
    # L2 TLB
    # ------------------------------------------------------------------
    def _l2_lookup(self, sm_id: int, vpn: int, is_retry: bool = False) -> None:
        now = self.engine.now
        lookup_done = now + self.config.l2_tlb.latency
        pfn = self.l2_tlb.lookup(vpn)
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
        if not is_retry:
            # Workload-characteristic misses (MPKI) exclude backpressure
            # retries, which are a structural artefact.
            self.stats.counters.add("l2tlb.demand_misses")
            self._first_miss.setdefault(vpn, now)
        outcome = self.tracker.track(vpn, sm_id)
        if outcome is TrackOutcome.NEW:
            self._launch_walk(vpn, lookup_done, sm_id)
        elif outcome is TrackOutcome.FAILED:
            self._backpressure.append((sm_id, vpn))
            self.stats.histogram("l2tlb.backpressure_depth").record(
                len(self._backpressure)
            )
            if trace.enabled:
                trace.instant("l2tlb", "l2tlb.mshr_failure", now, sm=sm_id, vpn=vpn)
                trace.counter(
                    "l2tlb", "l2tlb.backpressure", now, depth=len(self._backpressure)
                )

    def _launch_walk(self, vpn: int, enqueue_time: int, sm_id: int = -1) -> None:
        start_level, node_base = self.pwc.probe(vpn)
        request = WalkRequest(
            vpn=vpn,
            enqueue_time=enqueue_time,
            start_level=start_level,
            node_base=node_base,
            requester_sm=sm_id,
        )
        self.stats.counters.add("walks.launched")
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

        self.stats.counters.add("walks.completed")
        first_miss = self._first_miss.get(request.vpn, request.enqueue_time)
        pre_walk_wait = max(0, request.enqueue_time - first_miss)
        self.stats.latency("walk").record(
            queueing=request.queueing + pre_walk_wait,
            access=request.access,
            communication=request.communication,
            execution=request.execution,
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
                # still parked in the tracker, so relaunch it as its own
                # walk through the far-fault path rather than dropping
                # it — `continue` alone would strand them forever.
                self._refault_merged(vpn, fault.level, now)
                continue
            self.stats.counters.add("walks.completed_merged")
            self._resolve_vpn(vpn, pfn, now)
        self._drain_backpressure()

    def _refault_merged(self, vpn: int, level: int, now: int) -> None:
        """Re-home a faulted NHA neighbour as a standalone walk."""
        self.stats.counters.add("walks.refaulted_merged")
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
        pending_waiters = self.l2_tlb.fill(vpn, pfn)
        mshr_waiters = self.tracker.resolve(vpn)
        for sm_id in dict.fromkeys([*pending_waiters, *mshr_waiters]):
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
        for callback in self.l1_mshrs[sm_id].resolve(vpn):
            callback(time, pfn)
        # Parked duplicates of this VPN hit the freshly filled L1 entry.
        parked = self._l1_parked[sm_id].pop(vpn, None)
        if parked is not None:
            hit_time = time + self.config.l1_tlb.latency
            for callback in parked:
                callback(hit_time, pfn)
        # The resolve freed one MSHR entry: replay parked VPNs into it.
        # Replays that resolve synchronously (TLB hits) produce no future
        # response event, so keep draining until one actually occupies an
        # MSHR slot (or re-parks) — otherwise the queue would starve.
        order = self._l1_parked_order[sm_id]
        parked = self._l1_parked[sm_id]
        while order:
            next_vpn = order.popleft()
            waiters = parked.pop(next_vpn, None)
            if waiters is None:
                continue  # already satisfied by an earlier fill
            for callback in waiters:
                self.request(sm_id, next_vpn, time, callback)
            if self.l1_mshrs[sm_id].is_tracking(next_vpn) or next_vpn in parked:
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
    def l2_mpki(self, instructions: int) -> float:
        """L2 TLB misses per kilo-instruction."""
        if instructions == 0:
            return 0.0
        return self.stats.counters.get("l2tlb.demand_misses") / (instructions / 1000)

    @property
    def backpressure_depth(self) -> int:
        return len(self._backpressure)
