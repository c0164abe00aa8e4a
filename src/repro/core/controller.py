"""SoftWalker Controller: per-SM orchestration of the PW Warp.

Section 4.4's bottom half: the controller receives requests from the
Request Distributor, parks them in the SoftPWB, and launches PW-warp
threads (up to 32 concurrent walks per SM).  The walk itself executes
the Figure 14 routine: per-instruction issue through the SM's pipeline
(with PW-warp priority), LDPT reads priced by the L2 cache / DRAM, FPWC
fills into the shared Page Walk Cache, and a final FL2T hop back to the
L2 TLB.
"""

from __future__ import annotations

from typing import Callable

from repro.config import SoftWalkerConfig
from repro.core.isa import PageWalkProgram
from repro.core.softpwb import SoftPWB
from repro.gpu.sm import SM
from repro.pagetable.radix import RadixPageTable
from repro.ptw.request import WalkRequest
from repro.ptw.walker import PteMemoryPort, WalkOutcome
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry
from repro.tlb.pwc import PageWalkCache

CompletionCallback = Callable[[int, WalkRequest, WalkOutcome], None]

#: Builds a NamedTuple from one positional tuple, skipping the
#: generated keyword ``__new__``: one C call per walk record.
_tuple_new = tuple.__new__


class SoftWalkerController:
    """One SM's PW-warp manager: SoftPWB, status bitmap, walk launch."""

    def __init__(
        self,
        sm: SM,
        engine: Engine,
        config: SoftWalkerConfig,
        page_table: RadixPageTable,
        pte_port: PteMemoryPort,
        pwc: PageWalkCache | None,
        stats: StatsRegistry,
        *,
        communication_latency: int,
    ) -> None:
        self.sm = sm
        self.engine = engine
        self.config = config
        self.page_table = page_table
        self.pte_port = pte_port
        self.pwc = pwc
        self.stats = stats
        #: One-way SM <-> L2 TLB hop; a walk pays it twice (request
        #: delivery and FL2T return), totalling the L2 TLB access
        #: latency per the paper's methodology.
        self.communication_latency = communication_latency
        self.softpwb = SoftPWB(config.softpwb_entries)
        self._trace = stats.obs.trace
        self._counts = stats.counters.live()
        self._active_walks = 0
        #: Requests dispatched by the distributor but still travelling
        #: over the interconnect (audit support: they are owned here).
        self._in_transit: list[WalkRequest] = []
        #: Wired by the backend: invoked at FL2T time with the result.
        self.on_complete: CompletionCallback | None = None

    # ------------------------------------------------------------------
    # Request arrival (from the Request Distributor)
    # ------------------------------------------------------------------
    def receive(self, request: WalkRequest) -> None:
        """A request arrives over the interconnect; buffer and maybe launch.

        Called at dispatch time; the request lands in the SoftPWB one
        communication hop after its L2 TLB miss resolved to a walk.
        """
        arrival = max(self.engine.now, request.enqueue_time) + self.communication_latency
        self._in_transit.append(request)
        self.engine.schedule_at(arrival, self._arrive, request)

    def _arrive(self, request: WalkRequest) -> None:
        self._in_transit.remove(request)
        request.communication += self.communication_latency
        index = self.softpwb.insert(request)
        if index is None:
            # The distributor's per-core counter bounds in-flight requests
            # to the SoftPWB capacity, so this cannot happen unless wiring
            # is broken.
            raise RuntimeError(f"SoftPWB overflow on SM {self.sm.sm_id}")
        self._counts["softwalker.received"] += 1
        if self._trace.enabled:
            self._trace.instant(
                f"sm{self.sm.sm_id}",
                "softwalker.arrive",
                self.engine.now,
                id=request.trace_id,
                vpn=request.vpn,
                slot=index,
                occupied=self.softpwb.occupied,
            )
        self._maybe_launch()

    # ------------------------------------------------------------------
    # PW-warp walk execution
    # ------------------------------------------------------------------
    def _maybe_launch(self) -> None:
        if self.config.simt_lockstep:
            self._maybe_launch_lockstep()
            return
        while self._active_walks < self.config.pw_threads_per_sm:
            taken = self.softpwb.take_valid()
            if taken is None:
                return
            index, request = taken
            self._active_walks += 1
            self._execute(index, request)

    def _maybe_launch_lockstep(self) -> None:
        """Ablation: one warp-wide batch at a time, levels in lockstep."""
        if self._active_walks:
            return  # the warp re-converges before taking new work
        batch: list[tuple[int, WalkRequest]] = []
        while len(batch) < self.config.pw_threads_per_sm:
            taken = self.softpwb.take_valid()
            if taken is None:
                break
            batch.append(taken)
        if batch:
            self._active_walks = len(batch)
            self._execute_lockstep(batch)

    def _execute(self, slot_index: int, request: WalkRequest) -> None:
        now = self.engine.now
        request.queueing += now - request.enqueue_time - request.communication
        if self._trace.enabled:
            self._trace.instant(
                f"sm{self.sm.sm_id}",
                "softwalker.walk_start",
                now,
                id=request.trace_id,
                vpn=request.vpn,
                active=self._active_walks,
            )
        # Each dependent instruction block issues with PW-warp priority
        # and completes ``instruction_cycles`` after its last issue; the
        # blocks' spans add up to the walk's execution latency.  This is
        # SM.issue_priority folded into locals: a block of n > 0
        # instructions issued at ``when`` ends at ``when + n`` and moves
        # the port cursor to ``max(cursor, when) + n``.  PTE reads never
        # touch the SM, so the cursor and issue count are written once.
        sm = self.sm
        port_free = sm._port_free
        block_cycles = self.config.instruction_cycles
        per_level = self.config.instructions_per_level
        level_cycles = max(per_level, 0) + block_cycles
        read = self.pte_port.read
        prologue = len(PageWalkProgram.PROLOGUE)
        port_free = (port_free if port_free > now else now) + prologue
        pw_issued = prologue
        t = now + prologue + block_cycles
        execution = t - now

        vpn = request.vpn
        pwc = self.pwc
        steps = self.page_table.walk_path(vpn, request.start_level)
        access_cycles = 0
        outcome_pfn: int | None = None
        faulted = False
        fault_level = 0
        leaf_pte_address: int | None = None
        for level, pte_address, value, is_leaf, valid in steps:
            if per_level > 0:
                port_free = (port_free if port_free > t else t) + per_level
                pw_issued += per_level
            issued = t + level_cycles
            execution += level_cycles
            t = read(pte_address, issued)  # LDPT
            access_cycles += t - issued
            if is_leaf:
                leaf_pte_address = pte_address
            if not valid:
                # FFB: one more instruction to log the fault.
                port_free = (port_free if port_free > t else t) + 1
                pw_issued += 1
                execution += 1 + block_cycles
                t += 1 + block_cycles
                faulted = True
                fault_level = level
                break
            if not is_leaf and pwc is not None:
                # FPWC is issued as part of the level block; the fill
                # itself is a fire-and-forget store.
                pwc.fill(vpn, level - 1, value)
        if not faulted:
            outcome_pfn = value
        sm._port_free = port_free
        sm.pw_issued += pw_issued

        request.execution += execution
        request.access += access_cycles
        request.faulted = faulted
        request.fault_level = fault_level
        # FL2T: result travels back to the L2 TLB.
        finish = t + self.communication_latency
        request.communication += self.communication_latency
        outcome = _tuple_new(
            WalkOutcome,
            (
                outcome_pfn,
                finish,
                access_cycles,
                len(steps),
                faulted,
                fault_level,
                leaf_pte_address,
            ),
        )
        self._counts["softwalker.walks"] += 1
        self.engine.schedule_at(finish, self._finish, slot_index, request, outcome)

    def _execute_lockstep(self, batch: list[tuple[int, WalkRequest]]) -> None:
        """Walk a whole warp's requests level-by-level in lockstep.

        Each loop iteration issues one warp-wide instruction block and
        one warp-wide LDPT whose latency is the *maximum* over the
        lanes' PTE reads — memory divergence serialises the warp, which
        is exactly the penalty the independent-thread design avoids.
        """
        now = self.engine.now
        paths = []
        for _slot, request in batch:
            request.queueing += now - request.enqueue_time - request.communication
            paths.append(self.page_table.walk_path(request.vpn, request.start_level))
        # Instruction blocks issue as in _execute, charged to the lead lane.
        lead = batch[0][1]
        issue = self.sm.issue_priority
        block_cycles = self.config.instruction_cycles
        t = issue(len(PageWalkProgram.PROLOGUE), now) + block_cycles
        lead.execution += t - now

        depth = max(len(path) for path in paths)
        outcomes: list[WalkOutcome | None] = [None] * len(batch)
        access_start = t
        for level_index in range(depth):
            issued = issue(self.config.instructions_per_level, t) + block_cycles
            lead.execution += issued - t
            t = level_done = issued
            for lane, ((_slot, request), path) in enumerate(zip(batch, paths)):
                if outcomes[lane] is not None or level_index >= len(path):
                    continue
                step = path[level_index]
                completion = self.pte_port.read(step.pte_address, t)
                level_done = max(level_done, completion)
                if not step.valid:
                    outcomes[lane] = WalkOutcome(
                        pfn=None,
                        finish_time=completion,
                        access_cycles=completion - access_start,
                        levels_accessed=level_index + 1,
                        faulted=True,
                        fault_level=step.level,
                        leaf_pte_address=step.pte_address if step.is_leaf else None,
                    )
                elif step.is_leaf:
                    outcomes[lane] = WalkOutcome(
                        pfn=step.value,
                        finish_time=completion,
                        access_cycles=completion - access_start,
                        levels_accessed=level_index + 1,
                        faulted=False,
                        fault_level=0,
                        leaf_pte_address=step.pte_address,
                    )
                elif self.pwc is not None:
                    self.pwc.fill(request.vpn, step.level - 1, step.value)
            t = level_done  # the warp waits for its slowest lane

        finish = t + self.communication_latency
        counts = self._counts
        for (slot, request), outcome in zip(batch, outcomes):
            assert outcome is not None
            request.access += t - access_start
            request.communication += self.communication_latency
            request.faulted = outcome.faulted
            request.fault_level = outcome.fault_level
            counts["softwalker.walks"] += 1
            counts["softwalker.lockstep_walks"] += 1
            self.engine.schedule_at(finish, self._finish, slot, request, outcome)

    def _finish(self, slot_index: int, request: WalkRequest, outcome: WalkOutcome) -> None:
        self.softpwb.complete(slot_index)
        self._active_walks -= 1
        if self.on_complete is None:
            raise RuntimeError("SoftWalkerController.on_complete not wired")
        self.on_complete(self.sm.sm_id, request, outcome)
        self._maybe_launch()

    @property
    def active_walks(self) -> int:
        return self._active_walks

    def live_requests(self) -> list[WalkRequest]:
        """Requests this controller owns: in transit + SoftPWB slots."""
        return [*self._in_transit, *self.softpwb.requests()]
