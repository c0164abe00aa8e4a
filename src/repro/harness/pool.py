"""Parallel sweep engine: independent simulation points across processes.

A sweep matrix is a list of :class:`SweepPoint`s — (config, benchmark,
scale, footprint scale, seed) tuples.  Points are independent by
construction (the trace is deterministic in the benchmark name and
seed), so :func:`run_sweep` deduplicates them, resolves what it can from
the caller's caches, and executes the remainder either in-process or
across a ``ProcessPoolExecutor``.  Results are assembled in first-seen
point order regardless of completion order, and workers ship results
home as :meth:`~repro.gpu.gpu.SimulationResult.to_dict` payloads, so a
parallel sweep is fingerprint-identical to a serial one.

Workers inherit the parent's environment (``REPRO_TRACE`` included):
the trace exporter claims its output filename with ``O_EXCL`` atomic
creation, so concurrent workers tracing the same benchmark get distinct
files instead of racing.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.config import GPUConfig, config_fingerprint
from repro.gpu.gpu import SimulationResult
from repro.workloads.base import WorkloadSpec
from repro.workloads.catalog import get_spec

_JOBS_ENV = "REPRO_JOBS"

#: Progress callback: (point, status, done_so_far, total).  Status is
#: "cached" (served from a cache tier) or "ran" (freshly simulated).
ProgressFn = Callable[["SweepPoint", str, int, int], None]


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (default 1 = serial)."""
    value = os.environ.get(_JOBS_ENV)
    if value is None:
        return 1
    jobs = int(value)
    if jobs < 1:
        raise ValueError(f"{_JOBS_ENV} must be >= 1, got {value!r}")
    return jobs


@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation of a sweep matrix.

    ``benchmark`` is always the catalog abbreviation and ``scale`` is
    always concrete (use :func:`make_point` to resolve specs and env
    defaults), so equal points compare and hash equal — the dedup and
    both cache tiers rely on that.
    """

    config: GPUConfig
    benchmark: str
    scale: float
    footprint_scale: float = 1.0
    seed: int | None = None

    def store_key(self) -> dict:
        """JSON-safe key for the persistent result store."""
        return {
            "config": config_fingerprint(self.config),
            "benchmark": self.benchmark,
            "scale": self.scale,
            "footprint_scale": self.footprint_scale,
            "seed": self.seed,
        }

    def label(self) -> str:
        parts = [self.benchmark, f"x{self.scale:g}"]
        if self.footprint_scale != 1.0:
            parts.append(f"fp{self.footprint_scale:g}")
        if self.seed is not None:
            parts.append(f"seed{self.seed}")
        return "/".join(parts)

    # ------------------------------------------------------------------
    # Serialization (same shape as :meth:`store_key`, and losslessly
    # invertible because config fingerprints are `GPUConfig.to_dict`)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return self.store_key()

    #: The serialized field set; ``from_dict`` rejects anything else.
    FIELDS = ("config", "benchmark", "scale", "footprint_scale", "seed")

    @classmethod
    def from_dict(cls, data: dict) -> "SweepPoint":
        unknown = sorted(set(data) - set(cls.FIELDS))
        if unknown:
            import difflib

            hints = []
            for name in unknown:
                close = difflib.get_close_matches(name, cls.FIELDS, n=1)
                hints.append(
                    f"{name!r}"
                    + (f" (did you mean {close[0]!r}?)" if close else "")
                )
            raise ValueError(
                f"unknown SweepPoint field(s): {', '.join(hints)}"
            )
        return cls(
            config=GPUConfig.from_dict(data["config"]),
            benchmark=str(data["benchmark"]),
            scale=float(data["scale"]),
            footprint_scale=float(data.get("footprint_scale", 1.0)),
            seed=None if data.get("seed") is None else int(data["seed"]),
        )


def make_point(
    config: GPUConfig,
    benchmark: str | WorkloadSpec,
    *,
    scale: float | None = None,
    footprint_scale: float = 1.0,
    seed: int | None = None,
) -> SweepPoint:
    """Normalise loose run arguments into a canonical :class:`SweepPoint`."""
    from repro.harness.runner import default_scale

    spec = get_spec(benchmark) if isinstance(benchmark, str) else benchmark
    return SweepPoint(
        config=config,
        benchmark=spec.abbr,
        scale=scale if scale is not None else default_scale(),
        footprint_scale=footprint_scale,
        seed=seed,
    )


def matrix_points(
    configs: Iterable[GPUConfig],
    benchmarks: Iterable[str | WorkloadSpec],
    *,
    scale: float | None = None,
    footprint_scale: float = 1.0,
    seed: int | None = None,
) -> list[SweepPoint]:
    """The full cross product, benchmark-major like the serial loops."""
    configs = list(configs)
    return [
        make_point(
            config,
            benchmark,
            scale=scale,
            footprint_scale=footprint_scale,
            seed=seed,
        )
        for benchmark in benchmarks
        for config in configs
    ]


def dedupe_points(points: Iterable[SweepPoint]) -> list[SweepPoint]:
    """Unique points in first-seen order (figures often share runs)."""
    return list(dict.fromkeys(points))


def _execute_point(point: SweepPoint) -> dict:
    """Worker entry: simulate one point, ship the result as a dict.

    Runs in a forked worker process; the dict transport (rather than a
    pickled SimulationResult) keeps the wire format identical to the
    persistent store's and exercises the same round-trip guarantee.
    """
    from repro.harness.runner import default_runner

    result = default_runner().run(
        point.config,
        point.benchmark,
        scale=point.scale,
        footprint_scale=point.footprint_scale,
        seed=point.seed,
    )
    return result.to_dict()


def run_point_supervised(
    point: SweepPoint,
    *,
    policy=None,
    heartbeat=None,
    sample_interval: int | None = None,
):
    """Execute one point under supervised slicing — the service hook.

    Unlike :func:`_execute_point` (one monolithic ``run()`` per worker),
    this drives the simulation through
    :func:`~repro.harness.supervised.run_supervised`, so the caller gets
    one attempt under a wall-clock watchdog and an event budget, a
    partial result (``complete=False``) when either ends the run, and a
    per-slice ``heartbeat(sim)`` callback.  With ``sample_interval``
    set, the run carries a sampling :class:`~repro.obs.Observability`
    bundle, so the heartbeat can read live component gauges off
    ``sim.obs.metrics``.

    Returns the :class:`~repro.harness.supervised.SupervisedReport`.
    """
    from repro.gpu.gpu import GPUSimulator
    from repro.harness.runner import build_workload
    from repro.harness.supervised import run_supervised
    from repro.obs import Observability

    def make_sim() -> GPUSimulator:
        obs = (
            Observability.sampling(sample_interval)
            if sample_interval
            else None
        )
        workload = build_workload(
            point.benchmark,
            point.config,
            scale=point.scale,
            footprint_scale=point.footprint_scale,
            seed=point.seed,
        )
        return GPUSimulator(point.config, workload, obs=obs)

    return run_supervised(make_sim, policy=policy, heartbeat=heartbeat)


def pool_context():
    """The multiprocessing context every harness worker pool uses.

    Fork keeps workers' view of os.environ and sys.path identical to
    the parent's (spawn/forkserver would re-import with whatever the
    interpreter start-up happens to see).  The service daemon spawns
    its job workers from this same context so they behave identically
    to sweep workers.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_sweep(
    points: Sequence[SweepPoint],
    *,
    jobs: int | None = None,
    lookup: Callable[[SweepPoint], SimulationResult | None] | None = None,
    publish: Callable[[SweepPoint, SimulationResult], None] | None = None,
    progress: ProgressFn | None = None,
    execute: Callable[[SweepPoint], dict] | None = None,
) -> dict[SweepPoint, SimulationResult]:
    """Execute a sweep matrix; returns {point: result} for every point.

    ``lookup`` is consulted once per deduplicated point before dispatch
    (the caller's memory/disk cache tiers); ``publish`` is called for
    every freshly simulated result so the caller can warm those tiers.
    With ``jobs > 1`` the misses run across a process pool; ordering of
    the returned mapping (and of ``publish`` calls) follows first-seen
    point order either way, so serial and parallel sweeps are
    indistinguishable to the caller.

    ``execute`` swaps the worker body: it takes a point and returns a
    ``SimulationResult.to_dict`` payload.  The explore driver uses this
    to run truncated-budget rungs through the supervised runner; the
    callable must be picklable (a module-level function or a
    ``functools.partial`` of one) so the process pool can ship it.
    """
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if execute is None:
        execute = _execute_point

    ordered = dedupe_points(points)
    total = len(ordered)
    results: dict[SweepPoint, SimulationResult] = {}
    pending: list[SweepPoint] = []
    done = 0
    for point in ordered:
        cached = lookup(point) if lookup is not None else None
        if cached is not None:
            results[point] = cached
            done += 1
            if progress is not None:
                progress(point, "cached", done, total)
        else:
            pending.append(point)

    def finish(point: SweepPoint, result: SimulationResult) -> None:
        nonlocal done
        results[point] = result
        if publish is not None:
            publish(point, result)
        done += 1
        if progress is not None:
            progress(point, "ran", done, total)

    if len(pending) <= 1 or jobs == 1:
        for point in pending:
            finish(point, SimulationResult.from_dict(execute(point)))
    else:
        workers = min(jobs, len(pending))
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=pool_context()
        ) as pool:
            futures = [(p, pool.submit(execute, p)) for p in pending]
            for point, future in futures:
                finish(point, SimulationResult.from_dict(future.result()))

    # Hand every requested point back in first-seen order.
    return {point: results[point] for point in ordered}
