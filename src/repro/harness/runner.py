"""Experiment runner: builds a workload, runs a configuration, sweeps.

The trace for a given benchmark is deterministic in its name, so every
configuration of a sweep replays the identical workload — speedups are
cycles ratios over the same work.

The one front door is :class:`Runner`: it owns the trace scale, the
parallel worker count, the two-tier result cache (an in-memory LRU over
the persistent on-disk :class:`~repro.harness.store.ResultStore`), and
per-run observability.

Environment knobs (all read by the default instance):

* ``REPRO_SCALE`` (float, default 1.0) scales trace length globally:
  tests run at tiny scales, benches at 1.0, and patient users can crank
  it up for smoother numbers.
* ``REPRO_JOBS`` (int, default 1) parallelises sweeps across processes.
* ``REPRO_STORE`` (directory) enables the persistent result store, so
  repeated figure/benchmark invocations warm-start from disk.
* ``REPRO_CACHE_ENTRIES`` (int, default 128) bounds the in-memory LRU.
* ``REPRO_TRACE`` (directory) turns on full observability for every
  run, writing one Chrome trace + metrics JSON pair per run into the
  directory (filenames claimed atomically, so parallel workers never
  overwrite each other's traces).
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from collections import OrderedDict
from typing import Iterable, Mapping, Sequence

from repro.config import GPUConfig
from repro.gpu.gpu import GPUSimulator, SimulationResult
from repro.harness.pool import (
    SweepPoint,
    default_jobs,
    make_point,
    matrix_points,
    run_sweep,
)
from repro.harness.store import ResultStore, default_store_path
from repro.obs import Observability
from repro.workloads.base import TraceWorkload, WorkloadSpec
from repro.workloads.catalog import get_spec

_SCALE_ENV = "REPRO_SCALE"
_TRACE_ENV = "REPRO_TRACE"
_CACHE_ENV = "REPRO_CACHE_ENTRIES"
_DEFAULT_CACHE_ENTRIES = 128


def peak_rss_kb() -> int:
    """Peak resident set size of this process in KiB (0 if unknown).

    Monotone over the process lifetime: the value is the RSS high-water
    mark so far, not the peak of the last run alone.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-unix
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        rss //= 1024
    return int(rss)


def perf_metadata(*, wall_seconds: float, events: int, cycles: int) -> dict:
    """The ``SimulationResult.perf`` payload for one finished run.

    Host-side only — deliberately excluded from result fingerprints, so
    two bit-identical simulations on hosts of different speeds still
    compare equal.
    """
    wall = max(0.0, float(wall_seconds))
    return {
        "wall_seconds": wall,
        "events": int(events),
        "events_per_sec": (events / wall) if wall > 0 else 0.0,
        "cycles_per_sec": (cycles / wall) if wall > 0 else 0.0,
        "peak_rss_kb": peak_rss_kb(),
    }


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


def _env_observability() -> Observability | None:
    """Build a per-run observability bundle when ``REPRO_TRACE`` is set.

    The env value names a directory; each run writes
    ``<abbr>-<n>.trace.json`` / ``<abbr>-<n>.metrics.json`` into it.
    """
    target = os.environ.get(_TRACE_ENV)
    if not target:
        return None
    os.makedirs(target, exist_ok=True)
    return Observability.full()


def _export_env_trace(obs: Observability, benchmark_abbr: str) -> None:
    target = os.environ.get(_TRACE_ENV)
    if not target:
        return
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


def _cache_capacity() -> int:
    value = os.environ.get(_CACHE_ENV)
    if value is None:
        return _DEFAULT_CACHE_ENTRIES
    capacity = int(value)
    if capacity <= 0:
        raise ValueError(f"{_CACHE_ENV} must be positive, got {value!r}")
    return capacity


class Runner:
    """Facade over simulation execution: scale, caching, parallelism.

    One object owns everything the retired module-level helpers used
    to split between free functions and module globals:

    * ``scale`` — default trace scale (None defers to ``REPRO_SCALE``).
    * ``jobs`` — default sweep parallelism (None defers to
      ``REPRO_JOBS``).
    * two-tier result cache — a bounded in-memory LRU in front of the
      persistent :class:`ResultStore` (None defers to ``REPRO_STORE``;
      pass a path or a store to pin one).
    * observability — explicit ``obs=`` per call, else the
      ``REPRO_TRACE`` bundle.

    The memory tier memoises object identity (two equal lookups return
    the *same* ``SimulationResult``); the disk tier persists across
    processes, keyed by the point's full input fingerprint including
    the effective scale and seed.
    """

    def __init__(
        self,
        *,
        scale: float | None = None,
        jobs: int | None = None,
        store: ResultStore | str | os.PathLike | None = None,
        cache_entries: int | None = None,
    ) -> None:
        self.scale = scale
        self._jobs = jobs
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        self._store = store
        self._store_pinned = store is not None
        self._store_env_path: str | None = None
        self._cache_entries = cache_entries
        self._cache: OrderedDict[SweepPoint, SimulationResult] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
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

    def _capacity(self) -> int:
        if self._cache_entries is not None:
            return self._cache_entries
        return _cache_capacity()

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
        :meth:`run_cached` or :meth:`sweep` for memoised paths.
        """
        config = coerce_config(config)
        workload = build_workload(
            benchmark,
            config,
            scale=self._effective_scale(scale),
            footprint_scale=footprint_scale,
            seed=seed,
        )
        env_obs = None
        if obs is None:
            env_obs = _env_observability()
            obs = env_obs
        sim = GPUSimulator(config, workload, obs=obs)
        started = time.perf_counter()
        result = sim.run()
        wall = time.perf_counter() - started
        # Host-side throughput rides along (fingerprint-excluded), so
        # the ResultStore accumulates a perf trajectory passively.
        result.perf = perf_metadata(
            wall_seconds=wall,
            events=sim.engine.events_processed,
            cycles=result.cycles,
        )
        if env_obs is not None:
            _export_env_trace(env_obs, workload.spec.abbr)
        # A finished machine is one cyclic object graph (warps and the
        # callbacks wiring its components).  Free it at the job boundary,
        # so back-to-back runs hold one machine, not however many the
        # collector's allocation-count heuristics let pile up.
        del sim
        gc.collect()
        return result

    def run_cached(
        self,
        config: GPUConfig | Mapping,
        benchmark: str | WorkloadSpec,
        *,
        scale: float | None = None,
        footprint_scale: float = 1.0,
        seed: int | None = None,
    ) -> SimulationResult:
        """Like :meth:`run`, but served through both cache tiers."""
        point = make_point(
            coerce_config(config),
            benchmark,
            scale=self._effective_scale(scale),
            footprint_scale=footprint_scale,
            seed=seed,
        )
        cached = self._lookup(point)
        if cached is not None:
            return cached
        result = self.run(
            config,
            point.benchmark,
            scale=point.scale,
            footprint_scale=point.footprint_scale,
            seed=point.seed,
        )
        self._publish(point, result)
        return result

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
        configs: Mapping[str, GPUConfig],
        benchmarks: Iterable[str | WorkloadSpec],
        *,
        scale: float | None = None,
        footprint_scale: float = 1.0,
        jobs: int | None = None,
    ) -> dict[tuple[str, str], SimulationResult]:
        """Every (config, benchmark) pair; keys are (config_label, abbr)."""
        labels = list(configs)
        points = matrix_points(
            configs.values(),
            benchmarks,
            scale=self._effective_scale(scale),
            footprint_scale=footprint_scale,
        )
        by_point = self.sweep(points, jobs=jobs)
        results: dict[tuple[str, str], SimulationResult] = {}
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
            self._cache.move_to_end(point)
            return cached
        self._misses += 1
        store = self.store
        if store is not None:
            result = store.load(point.store_key())
            if result is not None:
                self._insert(point, result)
                return result
        return None

    def _publish(self, point: SweepPoint, result: SimulationResult) -> None:
        """Warm both tiers with a freshly simulated result."""
        self._simulations += 1
        store = self.store
        if store is not None:
            store.store(point.store_key(), result)
        self._insert(point, result)

    def _insert(self, point: SweepPoint, result: SimulationResult) -> None:
        self._cache[point] = result
        self._cache.move_to_end(point)
        while len(self._cache) > self._capacity():
            self._cache.popitem(last=False)
            self._evictions += 1

    def cache_info(self) -> dict:
        """Two-tier cache telemetry (memory LRU plus the disk store)."""
        store = self.store
        return {
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "entries": len(self._cache),
            "capacity": self._capacity(),
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
