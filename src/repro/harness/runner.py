"""Experiment runner: builds a workload, runs a configuration, sweeps.

The trace for a given benchmark is deterministic in its name, so every
configuration of a sweep replays the identical workload — speedups are
cycles ratios over the same work.

Every run is built in one place, :func:`simulate`, which drives the
machine with :func:`~repro.harness.supervised.run_supervised`.  The
front door over it is :class:`Runner`: it owns the trace scale, the
parallel worker count, the two-tier result cache (an in-memory memo over
the persistent on-disk :class:`~repro.harness.store.ResultStore`), and
per-run observability.

Environment knobs (all read by the default instance):

* ``REPRO_SCALE`` (float, default 1.0) scales trace length globally:
  tests run at tiny scales, benches at 1.0, and patient users can crank
  it up for smoother numbers.
* ``REPRO_JOBS`` (int, default 1) parallelises sweeps across processes.
* ``REPRO_STORE`` (directory) enables the persistent result store, so
  repeated figure/benchmark invocations warm-start from disk.
* ``REPRO_TRACE`` (directory) turns on full observability for every
  run not given its own ``obs``, writing one Chrome trace + metrics
  JSON pair per run into the directory (filenames claimed atomically,
  so parallel workers never overwrite each other's traces).
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Mapping, Sequence

# Two parts of the machine are built through function-local imports:
# the walk backends (the arch registry's lazy factories) and the memory
# system (``GPUSimulator.__init__``).  Import them here, so a process,
# and each sweep or service worker it forks, pays for them once, before
# its first job.
import repro.core.backend  # noqa: F401
import repro.memory.hierarchy  # noqa: F401
from repro.config import GPUConfig
from repro.gpu.gpu import GPUSimulator, SimulationResult
from repro.harness.pool import (
    SweepPoint,
    default_jobs,
    matrix_points,
    run_sweep,
)
from repro.harness.store import ResultStore, default_store_path
from repro.harness.supervised import (
    SupervisedReport,
    SupervisionPolicy,
    run_supervised,
)
from repro.obs import Observability
from repro.workloads.base import TraceWorkload, WorkloadSpec
from repro.workloads.catalog import get_spec

if TYPE_CHECKING:
    from repro.resilience.faults import FaultPlan

_SCALE_ENV = "REPRO_SCALE"
_TRACE_ENV = "REPRO_TRACE"


def default_scale() -> float:
    """Trace-length multiplier from the environment (default 1.0)."""
    value = os.environ.get(_SCALE_ENV)
    if value is None:
        return 1.0
    scale = float(value)
    if scale <= 0:
        raise ValueError(f"{_SCALE_ENV} must be positive, got {value!r}")
    return scale


def coerce_config(config: GPUConfig | Mapping) -> GPUConfig:
    """Accept a built config or an inline config dict interchangeably.

    Every Runner entry point funnels through this, so callers holding a
    serialized spec (a sweep file, a service payload) never need to
    deserialize by hand — and the result is fingerprint-identical to
    the equivalent named variant.
    """
    if isinstance(config, GPUConfig):
        return config
    if isinstance(config, Mapping):
        return GPUConfig.from_dict(config)
    raise TypeError(
        f"config must be a GPUConfig or a mapping, got {type(config).__name__}"
    )


def build_workload(
    benchmark: str | WorkloadSpec,
    config: GPUConfig,
    *,
    scale: float | None = None,
    footprint_scale: float = 1.0,
    seed: int | None = None,
) -> TraceWorkload:
    spec = get_spec(benchmark) if isinstance(benchmark, str) else benchmark
    return TraceWorkload(
        spec,
        config,
        scale=scale if scale is not None else default_scale(),
        footprint_scale=footprint_scale,
        seed=seed,
    )


def _export_env_trace(obs: Observability, target: str, benchmark_abbr: str) -> None:
    """Write one run's ``<abbr>-<n>.trace.json`` / ``.metrics.json``
    pair into the ``REPRO_TRACE`` directory ``target``."""
    # Claim the next free slot with O_EXCL atomic creation: a plain
    # exists() probe races under parallel sweep workers (two processes
    # both see "-3 free" and one silently overwrites the other).
    n = 0
    while True:
        stem = os.path.join(target, f"{benchmark_abbr}-{n}")
        try:
            handle = open(stem + ".trace.json", "x", encoding="utf-8")
        except FileExistsError:
            n += 1
            continue
        break
    with handle:
        json.dump(obs.trace.chrome_trace(), handle)
    obs.metrics.write_json(stem + ".metrics.json")


def simulate(
    config: GPUConfig | Mapping,
    benchmark: str | WorkloadSpec,
    *,
    scale: float | None = None,
    footprint_scale: float = 1.0,
    seed: int | None = None,
    obs: Observability | None = None,
    policy: SupervisionPolicy | None = None,
    plan: FaultPlan | None = None,
    heartbeat: Callable[[GPUSimulator], None] | None = None,
) -> SupervisedReport:
    """Build one simulation point and drive it with :func:`run_supervised`.

    The one place a run is built: :meth:`Runner.run`, the sweep worker,
    the service's job worker and ``repro run`` all come through here.
    A run given no ``obs`` of its own takes the ``REPRO_TRACE`` bundle
    when that is set.  ``policy``, ``plan`` and ``heartbeat`` pass
    through to :func:`run_supervised`.
    """
    config = coerce_config(config)
    workload = build_workload(
        benchmark,
        config,
        scale=scale,
        footprint_scale=footprint_scale,
        seed=seed,
    )
    trace_dir = os.environ.get(_TRACE_ENV) if obs is None else None
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        obs = Observability.full()
    report = run_supervised(
        GPUSimulator(config, workload, obs=obs),
        policy=policy,
        plan=plan,
        heartbeat=heartbeat,
    )
    if trace_dir:
        _export_env_trace(obs, trace_dir, workload.spec.abbr)
    return report


class Runner:
    """Facade over simulation execution: scale, caching, parallelism.

    One object owns everything the retired module-level helpers used
    to split between free functions and module globals:

    * ``scale`` — default trace scale (None defers to ``REPRO_SCALE``).
    * ``jobs`` — default sweep parallelism (None defers to
      ``REPRO_JOBS``).
    * two-tier result cache — an in-memory memo in front of the
      persistent :class:`ResultStore` (None defers to ``REPRO_STORE``;
      pass a path or a store to pin one).
    * observability — explicit ``obs=`` per call, else the
      ``REPRO_TRACE`` bundle.

    The memory tier memoises object identity (two equal lookups return
    the *same* ``SimulationResult``) and is unbounded, so figures run in
    one process share every point; the disk tier persists across
    processes, keyed by the point's full input fingerprint including
    the effective scale and seed.
    """

    def __init__(
        self,
        *,
        scale: float | None = None,
        jobs: int | None = None,
        store: ResultStore | str | os.PathLike | None = None,
    ) -> None:
        self.scale = scale
        self._jobs = jobs
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        self._store = store
        self._store_pinned = store is not None
        self._store_env_path: str | None = None
        self._cache: dict[SweepPoint, SimulationResult] = {}
        self._hits = 0
        self._misses = 0
        self._simulations = 0

    # ------------------------------------------------------------------
    # Policy resolution
    # ------------------------------------------------------------------
    @property
    def jobs(self) -> int:
        return self._jobs if self._jobs is not None else default_jobs()

    @jobs.setter
    def jobs(self, value: int | None) -> None:
        if value is not None and value < 1:
            raise ValueError(f"jobs must be >= 1, got {value}")
        self._jobs = value

    @property
    def store(self) -> ResultStore | None:
        """The disk tier, tracking ``REPRO_STORE`` unless pinned."""
        if self._store_pinned:
            return self._store
        path = default_store_path()
        if path is None:
            self._store = None
        elif self._store is None or path != self._store_env_path:
            self._store = ResultStore(path)
        self._store_env_path = path
        return self._store

    def _effective_scale(self, scale: float | None) -> float | None:
        if scale is not None:
            return scale
        return self.scale  # None falls through to default_scale() later

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        config: GPUConfig | Mapping,
        benchmark: str | WorkloadSpec,
        *,
        scale: float | None = None,
        footprint_scale: float = 1.0,
        seed: int | None = None,
        obs: Observability | None = None,
    ) -> SimulationResult:
        """Build the benchmark's trace under ``config`` and simulate it.

        ``config`` may be a built :class:`~repro.config.GPUConfig` or an
        inline config dict.  Always executes (no cache tiers); use
        :meth:`sweep` or :meth:`run_matrix` for memoised paths.  This is
        :func:`simulate`'s result under the default supervision policy.
        """
        return simulate(
            config,
            benchmark,
            scale=self._effective_scale(scale),
            footprint_scale=footprint_scale,
            seed=seed,
            obs=obs,
        ).result

    def sweep(
        self,
        points: Sequence[SweepPoint],
        *,
        jobs: int | None = None,
        progress=None,
    ) -> dict[SweepPoint, SimulationResult]:
        """Execute a sweep matrix through the cache tiers.

        Points are deduplicated before dispatch; misses run across
        ``jobs`` worker processes (default: the runner's ``jobs``).
        Results are fingerprint-identical to running every point
        serially, and every fresh simulation is published to both cache
        tiers, so re-running the same sweep is all warm-start.
        """
        return run_sweep(
            points,
            jobs=jobs if jobs is not None else self.jobs,
            lookup=self._lookup,
            publish=self._publish,
            progress=progress,
        )

    def run_matrix(
        self,
        configs: Mapping[Hashable, GPUConfig],
        benchmarks: Iterable[str | WorkloadSpec],
        *,
        scale: float | None = None,
        footprint_scale: float = 1.0,
        jobs: int | None = None,
    ) -> dict[tuple[Hashable, str], SimulationResult]:
        """Every (config, benchmark) pair; keys are (config_label, abbr).

        One :meth:`sweep` over the cross product, so two labels naming
        equal configs share one simulation.
        """
        labels = list(configs)
        points = matrix_points(
            configs.values(),
            benchmarks,
            scale=self._effective_scale(scale),
            footprint_scale=footprint_scale,
        )
        by_point = self.sweep(points, jobs=jobs)
        results: dict[tuple[Hashable, str], SimulationResult] = {}
        for index, point in enumerate(points):
            label = labels[index % len(labels)]
            results[(label, point.benchmark)] = by_point[point]
        return results

    def resultset(
        self,
        points: Sequence[SweepPoint],
        *,
        jobs: int | None = None,
        progress=None,
    ):
        """Sweep ``points`` and return the grouped
        :class:`~repro.analysis.ResultSet` — the container the
        experiment-analysis layer and ``repro report`` consume.
        """
        # Local import: keeps the harness importable without the
        # analysis package loaded (and mirrors ResultSet.from_store's
        # layering-safe lazy import in the opposite direction).
        from repro.analysis.resultset import ResultSet

        return ResultSet.from_results(
            self.sweep(points, jobs=jobs, progress=progress),
            source="runner.sweep",
        )

    # ------------------------------------------------------------------
    # Cache tiers
    # ------------------------------------------------------------------
    def _lookup(self, point: SweepPoint) -> SimulationResult | None:
        """Memory first, then the disk store; None on a full miss."""
        cached = self._cache.get(point)
        if cached is not None:
            self._hits += 1
            return cached
        self._misses += 1
        store = self.store
        if store is not None:
            result = store.load(point.store_key())
            if result is not None:
                self._cache[point] = result
                return result
        return None

    def _publish(self, point: SweepPoint, result: SimulationResult) -> None:
        """Warm both tiers with a freshly simulated result."""
        self._simulations += 1
        store = self.store
        if store is not None:
            store.store(point.store_key(), result)
        self._cache[point] = result

    def cache_info(self) -> dict:
        """Two-tier cache telemetry (memory memo plus the disk store)."""
        store = self.store
        return {
            "hits": self._hits,
            "misses": self._misses,
            "entries": len(self._cache),
            "simulations": self._simulations,
            "store_path": str(store.path) if store is not None else None,
            "disk_hits": store.hits if store is not None else 0,
            "disk_misses": store.misses if store is not None else 0,
            "disk_stores": store.stores if store is not None else 0,
            "disk_evictions": store.evictions if store is not None else 0,
            "disk_quarantined": store.quarantined if store is not None else 0,
            "disk_entries": len(store) if store is not None else 0,
            "disk_bytes": store.size_bytes() if store is not None else 0,
        }

    def clear_cache(self) -> None:
        """Drop every memoised result (counters are left running)."""
        self._cache.clear()


#: The process-wide default instance every module-level shim delegates
#: to; ``python -m repro --jobs N`` adjusts this one.
_DEFAULT_RUNNER: Runner | None = None


def default_runner() -> Runner:
    global _DEFAULT_RUNNER
    if _DEFAULT_RUNNER is None:
        _DEFAULT_RUNNER = Runner()
    return _DEFAULT_RUNNER


def cache_info() -> dict:
    """Two-tier cache telemetry of the default runner."""
    return default_runner().cache_info()


def clear_cache() -> None:
    """Drop the default runner's memoised results."""
    default_runner().clear_cache()


def speedups(
    results: Mapping[tuple[str, str], SimulationResult],
    *,
    baseline_label: str,
) -> dict[tuple[str, str], float]:
    """Per-(label, benchmark) speedup over the baseline configuration."""
    out: dict[tuple[str, str], float] = {}
    for (label, abbr), result in results.items():
        baseline = results[(baseline_label, abbr)]
        out[(label, abbr)] = result.speedup_over(baseline)
    return out
