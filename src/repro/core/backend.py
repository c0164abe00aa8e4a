"""Walk backends: software (PW Warps), and the hybrid HW+SW design.

A *backend* is whatever resolves walk requests for the L2 TLB
controller: it exposes ``submit(request)`` and fires ``on_complete``
with the finished request.  :class:`~repro.gpu.gpu.GPUSimulator` builds
the one its config names through
:data:`repro.arch.registry.WALK_BACKENDS` — ``"hardware"`` builds
:class:`~repro.ptw.subsystem.HardwareWalkBackend`, ``"softwalker"``
and ``"hybrid"`` build the classes here, and plugins may register
further names (see docs/architecture.md for the backend contract and a
worked example under ``examples/plugins/``).
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.config import GPUConfig
from repro.core.controller import SoftWalkerController
from repro.core.distributor import RequestDistributor
from repro.gpu.sm import SM
from repro.pagetable.radix import RadixPageTable
from repro.ptw.request import WalkRequest
from repro.ptw.subsystem import HardwareWalkBackend
from repro.ptw.walker import PteMemoryPort, WalkOutcome
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry
from repro.tlb.pwc import PageWalkCache

CompletionCallback = Callable[[WalkRequest, WalkOutcome], None]


def _port_busy_until(sms: list[SM], sm_id: int) -> int:
    """The stall-aware distributor's idleness probe."""
    return sms[sm_id].port_busy_until()


class SoftWalkerBackend:
    """Software page walking across every SM's PW Warp."""

    def __init__(
        self,
        engine: Engine,
        config: GPUConfig,
        sms: list[SM],
        page_table: RadixPageTable,
        pte_port: PteMemoryPort,
        pwc: PageWalkCache | None,
        stats: StatsRegistry,
    ) -> None:
        sw = config.softwalker
        self.stats = stats
        self._counts = stats.counters.live()
        self._on_complete: CompletionCallback | None = None
        # One-way hop each direction; the round trip equals the L2 TLB
        # access latency (Section 6.1 methodology).
        hop = max(1, config.l2_tlb.latency // 2)
        self.controllers = [
            SoftWalkerController(
                sm,
                engine,
                sw,
                page_table,
                pte_port,
                pwc,
                stats,
                communication_latency=hop,
            )
            for sm in sms
        ]
        self.distributor = RequestDistributor(
            num_sms=config.num_sms,
            capacity_per_sm=sw.softpwb_entries,
            stats=stats,
            policy=sw.distributor_policy,
            # A partial, not a bound method of this backend: the
            # distributor must not hold a reference back to its owner.
            idleness=partial(_port_busy_until, sms),
            engine=engine,
        )

    @property
    def on_complete(self) -> CompletionCallback | None:
        return self._on_complete

    @on_complete.setter
    def on_complete(self, callback: CompletionCallback | None) -> None:
        # The controllers report to this backend only while it has a
        # receiver, so clearing the callback also unwires them.
        self._on_complete = callback
        relay = None if callback is None else self._controller_complete
        for controller in self.controllers:
            controller.on_complete = relay

    def submit(self, request: WalkRequest) -> None:
        self._counts["softwalker.submitted"] += 1
        sm_id = self.distributor.submit(request)
        if sm_id is not None:
            self.controllers[sm_id].receive(request)

    def _controller_complete(
        self, sm_id: int, request: WalkRequest, outcome: WalkOutcome
    ) -> None:
        # FL2T decrements the per-core counter at the distributor.
        freed = self.distributor.complete(sm_id)
        if freed is not None:
            self.controllers[freed[0]].receive(freed[1])
        self._on_complete(request, outcome)

    @property
    def in_flight(self) -> int:
        return self.distributor.in_flight

    def live_requests(self) -> list[WalkRequest]:
        """Every request the software backend owns (audit support)."""
        live = self.distributor.overflow_requests()
        for controller in self.controllers:
            live.extend(controller.live_requests())
        return live

    def register_metrics(self, metrics) -> None:
        """Expose distributor backlog and PW-warp occupancy as gauges."""
        self.distributor.register_metrics(metrics)
        metrics.register_gauge(
            "softwalker.active_walks",
            lambda: sum(c.active_walks for c in self.controllers),
        )
        metrics.register_gauge(
            "softwalker.softpwb_occupied",
            lambda: sum(c.softpwb.occupied for c in self.controllers),
        )


class HybridBackend:
    """Hardware walkers first, PW Warps when none are free (Section 5.4)."""

    def __init__(
        self, hardware: HardwareWalkBackend, software: SoftWalkerBackend
    ) -> None:
        self.hardware = hardware
        self.software = software
        self._on_complete: CompletionCallback | None = None

    @property
    def on_complete(self) -> CompletionCallback | None:
        return self._on_complete

    @on_complete.setter
    def on_complete(self, callback: CompletionCallback) -> None:
        self._on_complete = callback
        self.hardware.on_complete = callback
        self.software.on_complete = callback

    def submit(self, request: WalkRequest) -> None:
        if self.hardware.has_free_walker:
            self.hardware.submit(request)
        else:
            self.software.submit(request)

    def live_requests(self) -> list[WalkRequest]:
        return [*self.hardware.live_requests(), *self.software.live_requests()]

    def register_metrics(self, metrics) -> None:
        self.hardware.register_metrics(metrics)
        self.software.register_metrics(metrics)
