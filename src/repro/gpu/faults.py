"""Fault Buffer and a minimal UVM-style page-fault handler.

When a walk (hardware or PW Warp via FFB) loads an invalid PTE, the
faulting VPN is logged in the Fault Buffer; from the driver's point of
view this is indistinguishable from a hardware-walker fault, which is
how SoftWalker stays compatible with Unified Virtual Memory
(Section 5.5).  The bundled handler models far-fault servicing: after a
fixed host round-trip it maps the page and relaunches the walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.pagetable.space import AddressSpace
from repro.ptw.request import WalkRequest
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry

#: Host round-trip + driver work for one far fault, in GPU cycles.
DEFAULT_FAULT_LATENCY = 25_000


@dataclass(frozen=True)
class FaultRecord:
    """One entry of the Fault Buffer (what FFB writes)."""

    vpn: int
    level: int
    time: int


class FaultBuffer:
    """Accumulates faulting VPNs for the host driver to service."""

    def __init__(self, stats: StatsRegistry) -> None:
        self.stats = stats
        self._records: list[FaultRecord] = []
        self._drained = 0

    def record(self, vpn: int, level: int, time: int) -> FaultRecord:
        record = FaultRecord(vpn=vpn, level=level, time=time)
        self._records.append(record)
        self.stats.counters.add("faults.recorded")
        return record

    def drain(self) -> list[FaultRecord]:
        """Hand the accumulated records to the driver and clear them.

        Models the host consuming the fault buffer: the returned batch
        belongs to the caller, and subsequent :attr:`records` reads only
        see faults logged after the drain.  ``total_recorded`` still
        counts drained entries.
        """
        batch = self._records
        self._records = []
        self._drained += len(batch)
        return batch

    @property
    def total_recorded(self) -> int:
        """Every fault ever logged, drained or not."""
        return self._drained + len(self._records)

    def __len__(self) -> int:
        return len(self._records)


class UVMFaultHandler:
    """Services far faults: map the page, then retry the walk."""

    def __init__(
        self,
        engine: Engine,
        space: AddressSpace,
        fault_buffer: FaultBuffer,
        resubmit: Callable[[WalkRequest], None],
        *,
        fault_latency: int = DEFAULT_FAULT_LATENCY,
    ) -> None:
        self.engine = engine
        self.space = space
        self.fault_buffer = fault_buffer
        self.resubmit = resubmit
        self.fault_latency = fault_latency
        #: Requests waiting for host servicing, in arrival order.  The
        #: invariant checker counts these as live walks: a tracked L2
        #: miss whose walk faulted is owned here until relaunch.
        self._pending: list[WalkRequest] = []

    def handle(self, request: WalkRequest) -> None:
        """Called when a walk completed with a fault."""
        self.fault_buffer.record(request.vpn, request.fault_level, self.engine.now)
        self._pending.append(request)
        self.engine.schedule(self.fault_latency, self._service, request)

    def _service(self, request: WalkRequest) -> None:
        self._pending.remove(request)
        self.space.ensure_mapped(request.vpn)
        for vpn in request.merged_vpns:
            self.space.ensure_mapped(vpn)
        request.enqueue_time = self.engine.now
        request.faulted = False
        request.fault_level = 0
        self.resubmit(request)

    @property
    def in_flight(self) -> int:
        """Faulted walks awaiting host service."""
        return len(self._pending)

    def pending_requests(self) -> list[WalkRequest]:
        """The faulted walks currently parked here (audit support)."""
        return list(self._pending)
