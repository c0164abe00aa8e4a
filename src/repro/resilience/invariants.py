"""Runtime conservation auditing for the translation machinery.

The simulator's correctness rests on a handful of conservation laws —
every tracked L2 miss is owned by exactly one live walk somewhere, MSHR
occupancy never exceeds the as-built capacity, simulated time never runs
backwards.  A wiring bug (or an injected fault the machinery mishandles)
silently violates one of these long before it surfaces as a hung run or
a wrong figure.

:class:`InvariantChecker` rides the engine's audit hook
(:meth:`~repro.sim.engine.Engine.attach_audit`): every N processed
events it sweeps the whole machine and raises
:class:`InvariantViolation` — carrying a full component-state dump — the
moment a law breaks, pinning the failure to within N events of its
cause.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.ptw.request import WalkRequest


class InvariantViolation(RuntimeError):
    """A conservation law broke mid-simulation.

    Attributes:
        violations: human-readable description of each broken law.
        dump: component-state snapshot taken at detection time.
    """

    def __init__(self, violations: list[str], dump: dict) -> None:
        self.violations = list(violations)
        self.dump = dump
        lines = "\n".join(f"  - {violation}" for violation in violations)
        rendered = json.dumps(dump, indent=2, default=str, sort_keys=True)
        super().__init__(
            f"{len(violations)} invariant violation(s) at cycle "
            f"{dump.get('engine', {}).get('now', '?')}:\n{lines}\n"
            f"component state:\n{rendered}"
        )


class InvariantChecker:
    """Audits a :class:`~repro.gpu.gpu.GPUSimulator` every N events.

    The checks, in order:

    1. **Monotonic time** — the engine clock never decreases between
       audits.
    2. **MSHR occupancy** — each MSHR file holds at most its *nominal*
       capacity (fault injection may shrink the usable capacity, never
       the physical bound), and no entry exceeds its merge limit.
    3. **Exclusive tracking** — no VPN is tracked by both the dedicated
       L2 MSHR file and an In-TLB pending slot.
    4. **In-TLB merge bound** — pending-slot waiter lists respect the
       MSHR merge limit.
    5. **Walk conservation** — every VPN the L2 miss tracker holds is
       covered by a live walk somewhere: the backend's queues/walkers,
       the fault handler's pending set, or any registered extra holder
       (e.g. a fault injector sitting on delayed completions).

    Use either :meth:`attach` (engine-driven) or call :meth:`check`
    directly from a supervising loop.
    """

    def __init__(self, sim, *, every: int = 2000) -> None:
        self.sim = sim
        self.every = every
        self.audits = 0
        self._last_now = -1
        #: Extra owners of live walks, each exposing ``live_requests()``.
        self._holders: list = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_holder(self, holder) -> None:
        """Register another owner of in-flight walks (audit coverage)."""
        self._holders.append(holder)

    def attach(self) -> "InvariantChecker":
        self.sim.engine.attach_audit(self.every, self.check)
        return self

    # ------------------------------------------------------------------
    # The audit
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Run every invariant; raises :class:`InvariantViolation`."""
        self.audits += 1
        self.sim.stats.counters.add("resilience.audits")
        violations: list[str] = []
        engine = self.sim.engine
        service = self.sim.translation

        if engine.now < self._last_now:
            violations.append(
                f"time ran backwards: {engine.now} after {self._last_now}"
            )
        self._last_now = engine.now

        mshr_files = [service.l2_mshr, *service.l1_mshrs]
        for mshr in mshr_files:
            if mshr.occupancy > mshr.nominal_capacity:
                violations.append(
                    f"{mshr.name} occupancy {mshr.occupancy} exceeds "
                    f"nominal capacity {mshr.nominal_capacity}"
                )
            for vpn in mshr.tracked_vpns():
                waiters = mshr.waiter_count(vpn)
                if waiters > mshr.merges:
                    violations.append(
                        f"{mshr.name} entry vpn={vpn:#x} holds {waiters} "
                        f"waiters, merge limit is {mshr.merges}"
                    )

        mshr_vpns = set(service.l2_mshr.tracked_vpns())
        pending_vpns = set(service.l2_tlb.pending_vpns())
        both = mshr_vpns & pending_vpns
        if both:
            violations.append(
                f"VPNs tracked twice (MSHR file AND In-TLB slot): "
                f"{sorted(both)[:8]}"
            )
        merge_limit = service.l2_mshr.merges
        for vpn in pending_vpns:
            waiters = service.l2_tlb.pending_waiter_count(vpn)
            if waiters > merge_limit:
                violations.append(
                    f"In-TLB slot vpn={vpn:#x} holds {waiters} waiters, "
                    f"merge limit is {merge_limit}"
                )

        tracked = mshr_vpns | pending_vpns
        covered = self._covered_vpns()
        orphans = tracked - covered
        if orphans:
            violations.append(
                f"{len(orphans)} tracked VPN(s) have no live walk "
                f"(stranded waiters): {sorted(orphans)[:8]}"
            )

        if violations:
            raise InvariantViolation(violations, self.component_dump())

    def _live_walks(self) -> list[tuple[str, list[WalkRequest]]]:
        # ``live_requests`` is optional in the walk-backend contract;
        # a plugin backend without it simply contributes no live walks.
        backend_live = getattr(self.sim.backend, "live_requests", list)
        holders: list[tuple[str, list[WalkRequest]]] = [
            ("backend", backend_live()),
            ("fault_handler", self.sim.fault_handler.pending_requests()),
        ]
        for holder in self._holders:
            holders.append((type(holder).__name__, holder.live_requests()))
        return holders

    def _covered_vpns(self) -> set[int]:
        covered: set[int] = set()
        for _name, requests in self._live_walks():
            for request in requests:
                covered.update(request.all_vpns())
        return covered

    # ------------------------------------------------------------------
    # State dump
    # ------------------------------------------------------------------
    def component_dump(self) -> dict:
        """Snapshot of every audited component, for failure forensics."""
        sim = self.sim
        service = sim.translation

        def mshr_state(mshr) -> dict:
            return {
                "occupancy": mshr.occupancy,
                "capacity": mshr.capacity,
                "nominal_capacity": mshr.nominal_capacity,
                "tracked_vpns": _hex(mshr.tracked_vpns()),
            }

        live = {
            name: _hex(vpn for request in requests for vpn in request.all_vpns())
            for name, requests in self._live_walks()
        }
        return {
            "engine": {
                "now": sim.engine.now,
                "events_processed": sim.engine.events_processed,
                "pending_events": sim.engine.pending_events,
                "real_pending": sim.engine.real_pending,
            },
            "warps_remaining": sim.warps_remaining,
            "l2_mshr": mshr_state(service.l2_mshr),
            "l1_mshrs": [mshr_state(mshr) for mshr in service.l1_mshrs],
            "l2_tlb_pending": _hex(service.l2_tlb.pending_vpns()),
            "backpressure_depth": service.backpressure_depth,
            "live_walks": live,
            "fault_buffer": {
                "undrained": len(sim.fault_buffer),
                "total_recorded": sim.fault_buffer.total_recorded,
            },
            "audits": self.audits,
        }


def _hex(vpns: Iterable[int]) -> list[str]:
    return [hex(vpn) for vpn in sorted(set(vpns))]
