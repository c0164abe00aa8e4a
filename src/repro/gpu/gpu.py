"""Full-GPU façade: one configured machine executing one workload.

``GPUSimulator(config, workload)`` fronts the machine of Figure 2/10 —
SMs, warps, per-SM L1 TLBs, shared L2 TLB with MSHRs (plus In-TLB MSHR
when SoftWalker is on), Page Walk Cache, the configured walk backend
(hardware PTWs, SoftWalker, or hybrid), the L2 data cache and DRAM —
runs the workload to completion, and returns a
:class:`SimulationResult` with everything the paper's figures report.

Assembly itself lives in :class:`repro.arch.machine.MachineBuilder`:
the simulator hands its config to the builder and adopts the wired
:class:`~repro.arch.machine.Machine`, so swapping any component (via
the ``repro.arch`` registries) needs no changes here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from repro.arch.machine import MachineBuilder, MachineSpec
from repro.config import GPUConfig
from repro.obs import NULL_OBS, MetricsSampler, Observability
from repro.sim.stats import StatsRegistry
from repro.workloads.base import TraceWorkload


class SimulationTruncated(RuntimeError):
    """The ``max_events`` safety valve fired before the workload finished."""


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
    #: RSS — see :func:`repro.harness.runner.perf_metadata`), attached
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
    def l2_tlb_hit_rate(self) -> float:
        return self.stats.counters.ratio("l2tlb.hits", "l2tlb.lookups")

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


class GPUSimulator:
    """One configured GPU executing one workload."""

    def __init__(
        self,
        config: GPUConfig,
        workload: TraceWorkload,
        *,
        obs: Observability | None = None,
    ) -> None:
        self.config = config
        self.workload = workload
        self.obs = obs if obs is not None else NULL_OBS
        machine = MachineBuilder(MachineSpec(config=config)).build(
            workload, obs=self.obs
        )
        self.machine = machine
        self.engine = machine.engine
        self.stats = machine.stats
        self.space = machine.space
        self.memory = machine.memory
        self.sms = machine.sms
        self.pwc = machine.pwc
        self._pte_port = machine.pte_port
        self.backend = machine.backend
        self.fault_buffer = machine.fault_buffer
        self.fault_handler = machine.fault_handler
        self.translation = machine.translation
        self._warps = machine.warps
        self._started = False
        if self.obs.metrics.enabled:
            self._register_metrics()

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
        :meth:`advance` slice without double-issuing warps.  A simulator
        restored from a checkpoint is already started.
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
        checkpoint, audit, and check its watchdog between them without
        ever raising :class:`SimulationTruncated` mid-flight.
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
        After this, dropping the simulator frees it by reference
        counting alone.
        """
        self.backend.on_complete = None
        self.engine.detach_audit()
        self.obs.metrics.release()

    def run(self, *, max_events: int | None = None) -> SimulationResult:
        self.start()
        self.engine.run(max_events=max_events)
        remaining = self.warps_remaining
        if remaining:
            if self.engine.truncated:
                raise SimulationTruncated(
                    f"max_events={max_events} fired with "
                    f"{remaining} warps unfinished and "
                    f"{self.engine.real_pending} events still pending; "
                    f"raise max_events or shrink the workload"
                )
            raise RuntimeError(
                f"simulation drained with {remaining} warps unfinished "
                f"(event starvation — likely a wiring bug)"
            )
        if self.engine.truncated:
            # All warps finished but the valve still cut residual events
            # (e.g. in-flight prefetches); results are usable but inexact.
            warnings.warn(
                f"max_events={max_events} truncated {self.engine.real_pending} "
                f"residual events after the last warp finished",
                RuntimeWarning,
                stacklevel=2,
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
