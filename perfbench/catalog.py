"""What the benchmark runs and what it reports.

One table of workloads and one of metrics.  ``run.py`` prints results in
this order and writes ``BENCHMARK.json`` from it, and ``README.md``
explains each row, so the three cannot drift apart.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: The seed whose per-point fingerprint digests ``expected.json`` records.
DEFAULT_SEED = 1
#: Seconds one run measures (``--seconds`` default).
RUN_SECONDS = 30
#: Bound on how many service rounds one run may submit; ``expected.json``
#: holds digests for every cold job of these rounds at the default seed.
SERVICE_MAX_ROUNDS = 24


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep" or "service"
    configs: tuple[str, ...]
    benchmarks: tuple[str, ...]
    scale: float
    #: Nominal seconds of one pass over the job list on the reference
    #: machine; ``--seconds`` divided by it gives the number of passes.
    pass_seconds: float
    why: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "irregular-sweep",
            "sweep",
            ("baseline", "softwalker", "hybrid"),
            ("gups", "spmv"),
            0.1,
            7.5,
            "cold serial sweep where page walks dominate: walk path, MSHRs, "
            "PWB and PTE reads through the memory layer",
        ),
        Workload(
            "regular-sweep",
            "sweep",
            ("baseline", "softwalker"),
            ("gemm", "cc", "histo"),
            0.5,
            5.0,
            "cold serial sweep that hits in the TLB and barely walks; data-side "
            "memory, workload generation and machine build dominate",
        ),
        Workload(
            "service-mixed",
            "service",
            ("baseline", "softwalker"),
            ("gups", "dc", "gemm"),
            0.05,
            4.5,
            "closed-loop client submitting small jobs to a live daemon, one in "
            "three a repeat: queue, fork, protocol, store and dedupe",
        ),
    )
}


def sweep_jobs(workload: Workload) -> list[tuple[str, str]]:
    """(config, benchmark) pairs of one sweep pass, benchmark-major."""
    return [(c, b) for b in workload.benchmarks for c in workload.configs]


@dataclass(frozen=True)
class ServiceJob:
    config: str
    benchmark: str
    scale: float
    seed: int
    #: True when this submission repeats an earlier spec of its round.
    repeat: bool

    @property
    def label(self) -> str:
        return job_label(self.config, self.benchmark, self.scale, self.seed)

    def spec(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "config": self.config,
            "scale": self.scale,
            "seed": self.seed,
        }


def job_label(config: str, benchmark: str, scale: float, seed: int) -> str:
    return f"{config}/{benchmark}/x{scale:g}/seed{seed}"


def round_seed(seed: int, round_index: int) -> int:
    """Workload seed of every cold job in one service round."""
    return (seed * 1000 + round_index) % 2**31


def service_rounds(workload: Workload, seed: int) -> list[list[ServiceJob]]:
    """The closed-loop submission order, one list per round.

    Each round submits every (config, benchmark) pair once as a cold job
    (fresh workload seed), in a seed-shuffled order, and after every
    second cold job repeats a spec submitted earlier in the same round.
    Whole, self-contained rounds keep the latency mix the same from run
    to run, even across a daemon restart.
    """
    rng = random.Random(seed)
    pairs = sweep_jobs(workload)
    rounds = []
    for index in range(SERVICE_MAX_ROUNDS):
        order = list(pairs)
        rng.shuffle(order)
        jobs = []
        submitted: list[ServiceJob] = []
        for n, (config, benchmark) in enumerate(order, start=1):
            job = ServiceJob(
                config, benchmark, workload.scale, round_seed(seed, index), False
            )
            jobs.append(job)
            submitted.append(job)
            if n % 2 == 0:
                earlier = rng.choice(submitted)
                jobs.append(
                    ServiceJob(
                        earlier.config,
                        earlier.benchmark,
                        earlier.scale,
                        earlier.seed,
                        True,
                    )
                )
        rounds.append(jobs)
    return rounds


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    #: Share of the parent's median by which the metric may worsen
    #: (end-to-end metrics only).  README.md defines each metric.
    bound: float | None


END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("events_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("job_p50_s", "s", "lower", 0.25),
    Metric("job_tail_s", "s", "lower", 0.25),
)

_SELF_PACKAGES = (
    "sim", "gpu", "tlb", "ptw", "core", "pagetable", "memory",
    "workloads", "arch", "harness", "service",
)

PER_LAYER: tuple[Metric, ...] = (
    Metric("workloads.gen_s", "s", "lower", None),
    Metric("arch.build_s", "s", "lower", None),
    Metric("sim.loop_s", "s", "lower", None),
    Metric("sim.events", "count", "lower", None),
    *(
        Metric(f"{package}.self_s", "s", "lower", None)
        for package in _SELF_PACKAGES
    ),
    Metric("harness.serialize_s", "s", "lower", None),
    Metric("harness.fingerprint_s", "s", "lower", None),
    Metric("harness.store_write_s", "s", "lower", None),
    Metric("harness.store_read_s", "s", "lower", None),
    Metric("harness.store_bytes", "B", "lower", None),
    Metric("service.queue_wait_s", "s", "lower", None),
    Metric("service.run_s", "s", "lower", None),
    Metric("service.overhead_s", "s", "lower", None),
    Metric("service.reply_s", "s", "lower", None),
    Metric("service.dedupe_p50_s", "s", "lower", None),
    Metric("service.simulations", "count", "lower", None),
    Metric("service.store_hit_ratio", "ratio", "higher", None),
    Metric("gpu.sim_cycles", "cycles", "lower", None),
    Metric("gpu.instructions", "count", "higher", None),
    Metric("tlb.l2_hit_ratio", "ratio", "higher", None),
    Metric("tlb.mshr_failures", "count", "lower", None),
    Metric("ptw.walks", "count", "lower", None),
    Metric("core.walk_queueing_frac", "ratio", "lower", None),
    Metric("memory.l2d_miss_ratio", "ratio", "lower", None),
    Metric("trace.overhead_s", "s", "lower", None),
)


def benchmark_manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
