"""Full-GPU façade: one configured machine executing one workload.

``GPUSimulator(config, workload)`` wires the machine of Figure 2/10 —
SMs, warps, per-SM L1 TLBs, shared L2 TLB with MSHRs (plus In-TLB MSHR
when SoftWalker is on), Page Walk Cache, the configured walk backend
(hardware PTWs, SoftWalker, or hybrid), the L2 data cache and DRAM —
runs the workload to completion, and returns a
:class:`SimulationResult` with everything the paper's figures report.

The walk backend is the one component resolved by name, through
:data:`repro.arch.registry.WALK_BACKENDS`, so a plugin swaps it in with
no change here; every other component is built directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.arch.registry import WALK_BACKENDS, BackendContext
from repro.config import GPUConfig, PageTableKind
from repro.gpu.faults import FaultBuffer, UVMFaultHandler
from repro.gpu.sm import SM
from repro.gpu.translation import TranslationService
from repro.gpu.warp import Warp
from repro.obs import NULL_OBS, MetricsSampler, Observability
from repro.pagetable.space import AddressSpace
from repro.ptw.hashed_backend import make_hashed_traversal
from repro.ptw.walker import PteMemoryPort, WalkOutcome, execute_walk
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry
from repro.tlb.pwc import PageWalkCache
from repro.workloads.base import TraceWorkload


@dataclass
class SimulationResult:
    """Everything a finished run reports."""

    workload: str
    cycles: int
    instructions: int
    pw_instructions: int
    stats: StatsRegistry
    num_sms: int
    stall_cycles: int
    memory_wait_cycles: int
    #: Effective RNG seed of the workload (derived when the caller
    #: passed ``seed=None``) — enough to replay this run exactly.
    seed: int | None = None
    #: False when the run was degraded to a partial result (supervised
    #: execution gave up before every warp finished).
    complete: bool = True
    #: Host-side performance metadata (wall seconds, events/sec, peak
    #: RSS — see :func:`repro.harness.supervised.perf_metadata`), attached
    #: by the harness after the run.  Deliberately excluded from
    #: :meth:`fingerprint` — two bit-identical simulations on hosts of
    #: different speeds must still compare equal — and omitted from
    #: :meth:`to_dict` when None, so pre-existing store entries and
    #: golden files keep their exact shape (the ``walk_backend``
    #: optional-field treatment).
    perf: dict | None = None

    # ------------------------------------------------------------------
    # Replay / resume verification
    # ------------------------------------------------------------------
    def fingerprint(self) -> dict:
        """Canonical digest of every observable outcome of the run.

        Two runs are considered bit-identical when their fingerprints
        compare equal: headline numbers, every counter, every histogram
        bucket, and every latency component are included, so a resumed
        run that diverges anywhere from its uninterrupted twin cannot
        slip through.
        """
        histograms = {
            name: sorted(self.stats.histogram(name).as_dict().items())
            for name in self.stats.histogram_names()
        }
        latencies = {
            name: (
                self.stats.latency(name).count,
                sorted(self.stats.latency(name).components().items()),
            )
            for name in self.stats.latency_names()
        }
        return {
            "workload": self.workload,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "pw_instructions": self.pw_instructions,
            "num_sms": self.num_sms,
            "stall_cycles": self.stall_cycles,
            "memory_wait_cycles": self.memory_wait_cycles,
            "seed": self.seed,
            "complete": self.complete,
            "counters": sorted(self.stats.counters.as_dict().items()),
            "histograms": histograms,
            "latencies": latencies,
        }

    # ------------------------------------------------------------------
    # Persistence (the sweep engine's result store and worker transport)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe form that round-trips through :meth:`from_dict`.

        The contract the persistent result store and the parallel sweep
        workers both rely on: ``from_dict(r.to_dict()).fingerprint()``
        equals ``r.fingerprint()``.
        """
        data = {
            "workload": self.workload,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "pw_instructions": self.pw_instructions,
            "num_sms": self.num_sms,
            "stall_cycles": self.stall_cycles,
            "memory_wait_cycles": self.memory_wait_cycles,
            "seed": self.seed,
            "complete": self.complete,
            "stats": self.stats.to_dict(),
        }
        if self.perf is not None:
            data["perf"] = dict(self.perf)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        return cls(
            workload=data["workload"],
            cycles=int(data["cycles"]),
            instructions=int(data["instructions"]),
            pw_instructions=int(data["pw_instructions"]),
            stats=StatsRegistry.from_dict(data["stats"]),
            num_sms=int(data["num_sms"]),
            stall_cycles=int(data["stall_cycles"]),
            memory_wait_cycles=int(data["memory_wait_cycles"]),
            seed=None if data["seed"] is None else int(data["seed"]),
            complete=bool(data["complete"]),
            perf=data.get("perf"),
        )

    # ------------------------------------------------------------------
    # Headline metrics
    # ------------------------------------------------------------------
    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Cycles ratio: >1 means this configuration is faster."""
        if self.cycles == 0:
            return float("inf")
        return baseline.cycles / self.cycles

    @property
    def issued_fraction(self) -> float:
        slots = self.cycles * self.num_sms
        if slots == 0:
            return 0.0
        return min(1.0, (self.instructions + self.pw_instructions) / slots)

    @property
    def stall_fraction(self) -> float:
        return 1.0 - self.issued_fraction

    # ------------------------------------------------------------------
    # Page-walk latency (Figures 7, 18)
    # ------------------------------------------------------------------
    @property
    def walk_latency(self) -> float:
        return self.stats.latency("walk").mean_total

    @property
    def walk_queueing(self) -> float:
        return self.stats.latency("walk").component_mean("queueing")

    @property
    def walk_access(self) -> float:
        return self.stats.latency("walk").component_mean("access")

    @property
    def walk_overhead(self) -> float:
        """SoftWalker-only components: communication + instruction execution."""
        tracker = self.stats.latency("walk")
        return tracker.component_mean("communication") + tracker.component_mean(
            "execution"
        )

    @property
    def queueing_fraction(self) -> float:
        return self.stats.latency("walk").component_fraction("queueing")

    # ------------------------------------------------------------------
    # TLB / memory metrics
    # ------------------------------------------------------------------
    @property
    def l2_tlb_mpki(self) -> float:
        if self.instructions == 0:
            return 0.0
        return self.stats.counters.get("l2tlb.demand_misses") / (
            self.instructions / 1000
        )

    @property
    def mshr_failures(self) -> int:
        return self.stats.counters.get("l2tlb.mshr_failures")

    @property
    def l2_cache_miss_rate(self) -> float:
        accesses = self.stats.counters.get("l2d.accesses")
        if accesses == 0:
            return 0.0
        misses = self.stats.counters.get("l2d.misses") + self.stats.counters.get(
            "l2d.sector_misses"
        )
        return misses / accesses

    @property
    def walks_completed(self) -> int:
        return self.stats.counters.get("walks.completed")

    @property
    def mean_memory_latency(self) -> float:
        """Average per-memory-instruction wait (the Figure 4 metric)."""
        insts = self.stats.counters.get("gpu.mem_instructions")
        if insts == 0:
            return 0.0
        return self.memory_wait_cycles / insts


def _traversal(
    config: GPUConfig,
    space: AddressSpace,
    pte_port: PteMemoryPort,
    pwc: PageWalkCache,
) -> Callable[[int, int, int], WalkOutcome]:
    """The configured page table's ``(vpn, start_level, begin) ->
    WalkOutcome`` walk, for the hardware walkers."""
    if config.ptw.page_table_kind == PageTableKind.HASHED:
        if space.hashed is None:
            raise ValueError("hashed page table requested but not built")
        # Hashed walks are single probes; the PWC caches radix interior
        # nodes and does not apply.
        return make_hashed_traversal(space.hashed, pte_port)
    # A partial, not a bound method, so the walkers hold no reference
    # back to the simulator.
    return partial(execute_walk, space.radix, pte_port, pwc)


class GPUSimulator:
    """One configured GPU executing one workload."""

    def __init__(
        self,
        config: GPUConfig,
        workload: TraceWorkload,
        *,
        obs: Observability | None = None,
    ) -> None:
        # Local: the memory layer is not one this module imports at
        # load time.
        from repro.memory.hierarchy import MemorySystem

        if workload.config.page_table != config.page_table:
            raise ValueError("workload was generated for a different page-table setup")
        # Refuses a backend that needs hardware walkers the config lacks;
        # ``from_dict`` checks this too, but not a config built in code.
        config.check_walkers()
        self.config = config
        self.workload = workload
        self.obs = obs if obs is not None else NULL_OBS
        # Construction order is part of the determinism contract (engine,
        # stats, memory, SMs, PWC, PTE port, backend, fault path,
        # translation, warps): do not reorder without re-pinning the
        # golden fingerprints.
        self.engine = engine = Engine()
        self.stats = stats = StatsRegistry(self.obs)
        self.space = space = workload.space
        self.memory = memory = MemorySystem(config, stats)
        self.sms = sms = [SM(i, stats) for i in range(config.num_sms)]
        self.pwc = pwc = PageWalkCache(
            config.ptw.pwc_entries,
            space.layout,
            space.radix.root_base,
            stats,
            min_level=config.ptw.pwc_min_level,
        )
        pte_port = PteMemoryPort(memory.l2, config.fixed_pt_level_latency)
        self.backend = backend = WALK_BACKENDS.create(
            config.backend_name,
            BackendContext(
                engine=engine,
                config=config,
                sms=sms,
                space=space,
                pte_port=pte_port,
                pwc=pwc,
                stats=stats,
                traverse=_traversal(config, space, pte_port, pwc),
            ),
        )
        self.fault_buffer = FaultBuffer(stats)
        self.fault_handler = UVMFaultHandler(
            engine, space, self.fault_buffer, backend.submit
        )
        self.translation = TranslationService(
            engine,
            config,
            space,
            pwc,
            backend,
            stats,
            fault_handler=self.fault_handler,
        )
        self._warps = self._build_warps()
        self._started = False
        if self.obs.metrics.enabled:
            self._register_metrics()

    def _build_warps(self) -> list[Warp]:
        page_size = self.config.page_table.page_size
        warps = []
        for sm_id, sm_programs in enumerate(self.workload.programs):
            for program in sm_programs:
                warps.append(
                    Warp(
                        len(warps),
                        self.sms[sm_id],
                        self.engine,
                        self.translation,
                        self.memory.l1s[sm_id],
                        page_size,
                        program,
                    )
                )
                self.stats.counters.add(
                    "gpu.mem_instructions",
                    sum(1 for _compute, vpns, _offsets in program if vpns is not None),
                )
        return warps

    def _register_metrics(self) -> None:
        """Wire every component's gauges into the sampled registry."""
        metrics = self.obs.metrics
        self.translation.register_metrics(metrics)
        register = getattr(self.backend, "register_metrics", None)
        if register is not None:  # optional for plugin backends
            register(metrics)
        self.memory.register_metrics(metrics)
        self.pwc.register_metrics(metrics)
        metrics.register_gauge("engine.pending_events", lambda: self.engine.real_pending)
        metrics.register_gauge("gpu.warps_remaining", lambda: self.warps_remaining)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch every warp (and the metrics sampler) exactly once.

        Idempotent, so supervised runners can call it before each
        :meth:`advance` slice without double-issuing warps.
        """
        if self._started:
            return
        self._started = True
        for warp in self._warps:
            warp.start()
        if self.obs.metrics.enabled:
            MetricsSampler(
                self.engine,
                self.obs.metrics,
                self.obs.sample_interval,
                trace=self.obs.trace,
            ).start()

    def advance(self, *, max_events: int | None = None) -> bool:
        """Run one bounded slice; returns True while real work remains.

        The supervised runner drives the simulation in slices so it can
        check its watchdog and event budget between them.
        """
        self.start()
        self.engine.run(max_events=max_events)
        return self.engine.real_pending > 0

    @property
    def warps_remaining(self) -> int:
        return sum(warp.finished_at is None for warp in self._warps)

    def release(self) -> None:
        """Unwire the machine's two-way references once the run is over.

        These are the walk backend's completion callbacks, an invariant
        checker's audit hook and the gauges sampled into ``obs.metrics``.
        A run cut short also leaves events queued and warps unfinished,
        both pointing back into the machine, so those go too.  After
        this, dropping the simulator frees it by reference counting
        alone.
        """
        self.backend.on_complete = None
        self.engine.detach_audit()
        self.engine.clear()
        for warp in self._warps:
            if warp.finished_at is None:
                warp.sm = warp.engine = warp.translation = warp.l1d = None
        self.obs.metrics.release()

    def run(self) -> SimulationResult:
        """Run to completion; raises if the queue drains with warps left."""
        self.start()
        self.engine.run()
        remaining = self.warps_remaining
        if remaining:
            raise RuntimeError(
                f"simulation drained with {remaining} warps unfinished "
                f"(event starvation — likely a wiring bug)"
            )
        return self._build_result(complete=True)

    def partial_result(self) -> SimulationResult:
        """Best-effort result from wherever the run currently stands.

        Supervised execution uses this for graceful degradation: when
        the watchdog or the event budget ends a run, the caller gets
        everything the truncated run did measure, flagged ``complete=False`` (unless every warp
        in fact finished).
        """
        return self._build_result(complete=self.warps_remaining == 0)

    def _build_result(self, *, complete: bool) -> SimulationResult:
        cycles = self.engine.now
        instructions = sum(sm.user_issued for sm in self.sms)
        pw_instructions = sum(sm.pw_issued for sm in self.sms)
        issued_slots = instructions + pw_instructions
        stall = max(0, cycles * self.config.num_sms - issued_slots)
        return SimulationResult(
            workload=self.workload.spec.name,
            cycles=cycles,
            instructions=instructions,
            pw_instructions=pw_instructions,
            stats=self.stats,
            num_sms=self.config.num_sms,
            stall_cycles=stall,
            memory_wait_cycles=sum(sm.memory_wait for sm in self.sms),
            seed=getattr(self.workload, "effective_seed", None),
            complete=complete,
        )
