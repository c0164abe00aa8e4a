"""Deterministic mid-run fault injection.

A :class:`FaultPlan` is a declarative, JSON-serialisable schedule of
faults; :class:`FaultInjector` arms a plan against a live
:class:`~repro.gpu.gpu.GPUSimulator` and executes it as the simulation
runs.  Everything is seeded — the same plan against the same workload
perturbs the exact same VPNs at the exact same cycles — so chaos runs
are replayable bug reports, not flaky noise.

Fault classes (``FaultSpec.kind``):

* ``invalidate_pte`` — unmap a touched page and shoot it down from every
  TLB, so the next walk loads an invalid PTE and takes the far-fault
  path (:class:`~repro.gpu.faults.UVMFaultHandler` remaps + relaunches).
* ``mshr_exhaustion`` — shrink the L2 MSHR file's usable capacity by
  ``magnitude`` entries for ``duration`` cycles, forcing MSHR-failure
  backpressure bursts.
* ``walker_stall`` — take ``magnitude`` hardware walkers out of service
  for ``duration`` cycles (skipped, with a counter, on software-only
  backends).
* ``dram_spike`` — add ``magnitude`` cycles to every DRAM access for
  ``duration`` cycles.
* ``delay_completion`` — hold walk completions finishing within the next
  ``duration`` cycles and deliver them ``magnitude`` cycles late, out of
  their natural order.
* ``duplicate_request`` — re-issue ``magnitude`` redundant translation
  requests for a touched page, exercising the merge/dedup paths.

Injector bookkeeping events are engine *daemons*: they perturb
component state but can never extend a simulation past its natural end.
Delayed completions are real events — they are real work, merely late.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from repro.ptw.request import WalkRequest
from repro.ptw.subsystem import HardwareWalkBackend
from repro.ptw.walker import WalkOutcome

#: Every fault kind the injector knows how to execute.
FAULT_KINDS = (
    "invalidate_pte",
    "mshr_exhaustion",
    "walker_stall",
    "dram_spike",
    "delay_completion",
    "duplicate_request",
)


def _discard_translation(time: int, pfn: int) -> None:
    """Sink callback for duplicated requests (module-level: picklable)."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault."""

    kind: str
    #: Absolute cycle at which the fault triggers.
    time: int
    #: How long transient faults persist (cycles); 0 for one-shot kinds.
    duration: int = 0
    #: Kind-specific intensity: entries removed, walkers stalled, extra
    #: cycles, or request copies.
    magnitude: int = 1
    #: Explicit target page; None lets the injector's RNG pick one.
    vpn: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.time < 0 or self.duration < 0 or self.magnitude < 0:
            raise ValueError("fault time/duration/magnitude must be >= 0")

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "time": self.time}
        if self.duration:
            out["duration"] = self.duration
        if self.magnitude != 1:
            out["magnitude"] = self.magnitude
        if self.vpn is not None:
            out["vpn"] = self.vpn
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        return cls(
            kind=data["kind"],
            time=data["time"],
            duration=data.get("duration", 0),
            magnitude=data.get("magnitude", 1),
            vpn=data.get("vpn"),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered schedule of faults."""

    seed: int = 0
    faults: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {"seed": self.seed, "faults": [f.to_dict() for f in self.faults]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            seed=data.get("seed", 0),
            faults=tuple(FaultSpec.from_dict(f) for f in data.get("faults", ())),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def __len__(self) -> int:
        return len(self.faults)


def default_chaos_plan(
    *, seed: int = 0, start: int = 1_000, spacing: int = 4_000
) -> FaultPlan:
    """One of every fault kind, evenly spaced — the plan
    ``tests/test_resilience_faults.py`` runs end to end."""
    specs = []
    for index, kind in enumerate(FAULT_KINDS):
        time = start + index * spacing
        if kind == "invalidate_pte":
            specs.append(FaultSpec(kind=kind, time=time))
        elif kind == "mshr_exhaustion":
            specs.append(
                FaultSpec(kind=kind, time=time, duration=spacing // 2, magnitude=1 << 12)
            )
        elif kind == "walker_stall":
            specs.append(
                FaultSpec(kind=kind, time=time, duration=spacing // 2, magnitude=2)
            )
        elif kind == "dram_spike":
            specs.append(
                FaultSpec(kind=kind, time=time, duration=spacing // 2, magnitude=200)
            )
        elif kind == "delay_completion":
            specs.append(
                FaultSpec(kind=kind, time=time, duration=spacing // 2, magnitude=500)
            )
        else:  # duplicate_request
            specs.append(FaultSpec(kind=kind, time=time, magnitude=3))
    return FaultPlan(seed=seed, faults=tuple(specs))


class FaultInjector:
    """Executes a :class:`FaultPlan` against a live simulator.

    Create after the simulator, then :meth:`arm` before (or during) the
    run.  Register with an :class:`~repro.resilience.invariants.InvariantChecker`
    via ``checker.add_holder(injector)`` so walks the injector is
    deliberately sitting on still count as live.
    """

    def __init__(self, sim, plan: FaultPlan) -> None:
        self.sim = sim
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._armed = False
        #: Completions held back by an active ``delay_completion`` window.
        self._delayed: list[WalkRequest] = []
        self._downstream = None
        self._delay_window_end = -1
        self._delay_by = 0
        #: Targets the RNG may pick when a spec names no VPN.
        self._candidates = sorted(sim.workload.touched_page_set())

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self) -> "FaultInjector":
        """Schedule every fault in the plan as engine daemon events."""
        if self._armed:
            raise RuntimeError("fault plan already armed")
        self._armed = True
        engine = self.sim.engine
        if any(spec.kind == "delay_completion" for spec in self.plan.faults):
            self._install_intercept()
        for spec in self.plan.faults:
            engine.schedule_daemon(max(0, spec.time - engine.now), self._fire, spec)
        return self

    def _install_intercept(self) -> None:
        backend = self.sim.backend
        self._downstream = backend.on_complete
        if self._downstream is None:
            raise RuntimeError("backend completion path not wired yet")
        backend.on_complete = self._intercept

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def _fire(self, spec: FaultSpec) -> None:
        self.sim.stats.counters.add(f"chaos.injected.{spec.kind}")
        getattr(self, f"_fault_{spec.kind}")(spec)

    def _pick_vpn(self, spec: FaultSpec) -> int | None:
        if spec.vpn is not None:
            return spec.vpn
        if not self._candidates:
            return None
        return self._rng.choice(self._candidates)

    def _fault_invalidate_pte(self, spec: FaultSpec) -> None:
        vpn = self._pick_vpn(spec)
        if vpn is None or not self.sim.space.is_mapped(vpn):
            self.sim.stats.counters.add("chaos.skipped.invalidate_pte")
            return
        # Corrupt the PTE, then shoot the stale translation down from
        # every TLB so the next access walks into the invalid entry.
        self.sim.space.unmap(vpn)
        service = self.sim.translation
        service.l2_tlb.invalidate(vpn)
        for l1 in service.l1_tlbs:
            l1.invalidate(vpn)

    def _fault_mshr_exhaustion(self, spec: FaultSpec) -> None:
        mshr = self.sim.translation.l2_mshr
        mshr.set_capacity(mshr.nominal_capacity - spec.magnitude)
        self.sim.engine.schedule_daemon(
            max(1, spec.duration), mshr.set_capacity, mshr.nominal_capacity
        )

    def _hardware_backend(self) -> HardwareWalkBackend | None:
        backend = self.sim.backend
        if isinstance(backend, HardwareWalkBackend):
            return backend
        return getattr(backend, "hardware", None)

    def _fault_walker_stall(self, spec: FaultSpec) -> None:
        hardware = self._hardware_backend()
        if hardware is None:
            self.sim.stats.counters.add("chaos.skipped.walker_stall")
            return
        stalled = hardware.stall_walkers(spec.magnitude)
        if stalled:
            self.sim.engine.schedule_daemon(
                max(1, spec.duration), hardware.resume_walkers, stalled
            )

    def _fault_dram_spike(self, spec: FaultSpec) -> None:
        dram = self.sim.memory.dram
        dram.extra_latency += spec.magnitude
        self.sim.engine.schedule_daemon(
            max(1, spec.duration), self._end_dram_spike, spec.magnitude
        )

    def _end_dram_spike(self, magnitude: int) -> None:
        # Subtract rather than zero so overlapping spikes compose.
        self.sim.memory.dram.extra_latency -= magnitude

    def _fault_delay_completion(self, spec: FaultSpec) -> None:
        if self._downstream is None:  # pragma: no cover - guarded by arm()
            raise RuntimeError("delay_completion fired without an intercept")
        self._delay_window_end = self.sim.engine.now + spec.duration
        self._delay_by = max(1, spec.magnitude)

    def _intercept(self, request: WalkRequest, outcome: WalkOutcome) -> None:
        if self.sim.engine.now <= self._delay_window_end:
            self._delayed.append(request)
            self.sim.stats.counters.add("chaos.delayed_completions")
            # A real event, not a daemon: it is genuine work, just late.
            self.sim.engine.schedule(self._delay_by, self._deliver, request, outcome)
            return
        self._downstream(request, outcome)

    def _deliver(self, request: WalkRequest, outcome: WalkOutcome) -> None:
        self._delayed.remove(request)
        self._downstream(request, outcome)

    def _fault_duplicate_request(self, spec: FaultSpec) -> None:
        vpn = self._pick_vpn(spec)
        if vpn is None:
            self.sim.stats.counters.add("chaos.skipped.duplicate_request")
            return
        service = self.sim.translation
        now = self.sim.engine.now
        for _ in range(spec.magnitude):
            sm_id = self._rng.randrange(self.sim.config.num_sms)
            service.request(sm_id, vpn, now, _discard_translation)

    # ------------------------------------------------------------------
    # Audit support
    # ------------------------------------------------------------------
    def live_requests(self) -> list[WalkRequest]:
        """Walks the injector is deliberately holding (delayed delivery)."""
        return list(self._delayed)
