"""ResultSet: the one container experiment analysis loads results into.

A :class:`ResultSet` is the one loading path for results, whether
they come from :class:`~repro.harness.store.ResultStore` entry files or
straight from a sweep.  It groups
:class:`~repro.gpu.gpu.SimulationResult` replicates into *cells* keyed
by (config × benchmark × scale), labels configs against the registered
variants, and is what :func:`repro.analysis.experiment.analyze` and the
``repro report`` CLI consume.

Three constructors cover every source of results:

* :meth:`ResultSet.from_store` — bulk-load a persistent store directory
  (corruption-tolerant, via :meth:`ResultStore.iter_entries`);
* :meth:`ResultSet.from_files` — individual store-entry or bare result
  JSON files;
* :meth:`ResultSet.from_results` — in-memory results straight from
  :meth:`Runner.sweep` / :meth:`Runner.run_matrix`.

Metrics are first-class: the :data:`METRICS` registry maps names like
``cycles`` or ``wall_seconds`` to extraction functions plus a
direction (lower- or higher-is-better), so summaries, significance
tests, and regression verdicts all agree on how to read a metric.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.config import DEFAULT_CONFIGS, GPUConfig
from repro.gpu.gpu import SimulationResult


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Metric:
    """One named way of reading a number out of a result."""

    name: str
    #: Extractor; may return None when the result carries no such value
    #: (e.g. host metadata absent) — the cell then has no observation.
    extract: Callable[[SimulationResult], float | None]
    #: Direction: False means smaller is better (cycles, latency...).
    higher_is_better: bool = False
    description: str = ""

    def values(self, results: Iterable[SimulationResult]) -> list[float]:
        """Observations across replicates, Nones dropped."""
        observed = (self.extract(result) for result in results)
        return [float(value) for value in observed if value is not None]


def _perf_value(result: SimulationResult, key: str) -> float | None:
    if not result.perf:
        return None
    value = result.perf.get(key)
    return float(value) if value is not None else None


#: The stable metric registry reports and diffs resolve names against.
METRICS: dict[str, Metric] = {
    metric.name: metric
    for metric in (
        Metric("cycles", lambda r: r.cycles, description="total simulated cycles"),
        Metric(
            "walk_latency",
            lambda r: r.walk_latency,
            description="mean page-walk latency (cycles)",
        ),
        Metric(
            "l2_tlb_mpki",
            lambda r: r.l2_tlb_mpki,
            description="L2 TLB misses per kilo-instruction",
        ),
        Metric(
            "stall_fraction",
            lambda r: r.stall_fraction,
            description="fraction of issue slots lost to stalls",
        ),
        Metric(
            "mshr_failures",
            lambda r: r.mshr_failures,
            description="L2 TLB MSHR allocation failures",
        ),
        Metric(
            "wall_seconds",
            lambda r: _perf_value(r, "wall_seconds"),
            description="host wall-clock seconds (perf metadata)",
        ),
        Metric(
            "events_per_sec",
            lambda r: _perf_value(r, "events_per_sec"),
            higher_is_better=True,
            description="simulator event throughput (perf metadata)",
        ),
    )
}

#: Metrics a report covers when the caller does not choose.
DEFAULT_METRIC_NAMES = (
    "cycles",
    "walk_latency",
    "l2_tlb_mpki",
    "stall_fraction",
)

#: The metric design ranking (geomean speedup) is computed over.
PRIMARY_METRIC = "cycles"


def resolve_metrics(names: Sequence[str] | None = None) -> list[Metric]:
    """Named metrics, defaulting to :data:`DEFAULT_METRIC_NAMES`."""
    chosen = list(names) if names else list(DEFAULT_METRIC_NAMES)
    missing = [name for name in chosen if name not in METRICS]
    if missing:
        known = ", ".join(sorted(METRICS))
        raise KeyError(f"unknown metric(s) {missing!r}; known metrics: {known}")
    return [METRICS[name] for name in chosen]


# ----------------------------------------------------------------------
# Config labelling
# ----------------------------------------------------------------------
def _canonical(config_dict: Mapping) -> str:
    return json.dumps(config_dict, sort_keys=True, separators=(",", ":"))


def _registry_labels() -> dict[str, str]:
    """canonical(config.to_dict()) -> registered variant name."""
    labels: dict[str, str] = {}
    for variant in DEFAULT_CONFIGS.variants():
        try:
            labels.setdefault(_canonical(variant.build().to_dict()), variant.name)
        except Exception:  # a plugin variant that fails to build
            continue
    return labels


def config_label(config: GPUConfig | Mapping, labels: Mapping[str, str] | None = None) -> str:
    """Human label for a config: registry name, name[backend], or digest.

    A config matching a registered variant gets its name ("baseline").
    One differing *only* in ``walk_backend`` is labelled
    ``name[backend]`` — this is how a plugin-wrapped run ("molasses")
    stays recognisable next to its parent.  Anything else falls back to
    ``cfg-<digest8>`` of the fingerprint.
    """
    if labels is None:
        labels = _registry_labels()
    config_dict = dict(config.to_dict() if isinstance(config, GPUConfig) else config)
    canonical = _canonical(config_dict)
    if canonical in labels:
        return labels[canonical]
    backend = config_dict.pop("walk_backend", None)
    if backend is not None:
        stripped = _canonical(config_dict)
        if stripped in labels:
            return f"{labels[stripped]}[{backend}]"
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:8]
    return f"cfg-{digest}"


def result_digest(result: SimulationResult) -> str:
    """Hex digest of the result fingerprint (bit-identity currency)."""
    fingerprint = json.dumps(
        result.fingerprint(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellKey:
    """Identity of one (config × benchmark) group of seed replicates."""

    config: str
    benchmark: str
    scale: float | None = None
    footprint_scale: float | None = None

    def sort_key(self) -> tuple:
        """Deterministic ordering even when scales mix None and float."""
        return (
            self.config,
            self.benchmark,
            self.scale is not None,
            self.scale or 0.0,
            self.footprint_scale is not None,
            self.footprint_scale or 0.0,
        )

    def __str__(self) -> str:
        return f"{self.config}/{self.benchmark}"


@dataclass
class ResultCell:
    """Seed replicates of one configuration on one benchmark."""

    key: CellKey
    #: Config fingerprint dict when known (None for bare result files).
    config: dict | None = None
    #: seed (or replicate index) -> result.
    replicates: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.replicates)

    def seeds(self) -> list:
        return sorted(self.replicates, key=lambda s: (s is None, s))

    def results(self) -> list[SimulationResult]:
        return [self.replicates[seed] for seed in self.seeds()]

    def complete_results(self) -> list[SimulationResult]:
        """Replicates that ran to completion (``result.complete``).

        A truncated run (an event-budget degrade, an explore rung) did
        not simulate the same work as a full run, so its numbers are
        not observations of the same distribution.  Every statistics
        path reads through here; partial results stay visible via
        :attr:`incomplete_n` but can never pollute medians, tests, or
        fingerprint comparisons silently.
        """
        return [result for result in self.results() if result.complete]

    @property
    def incomplete_n(self) -> int:
        """How many replicates are truncated/partial runs."""
        return sum(1 for result in self.results() if not result.complete)

    def values(self, metric: Metric) -> list[float]:
        return metric.values(self.complete_results())

    def median(self, metric: Metric) -> float | None:
        values = self.values(metric)
        return statistics.median(values) if values else None

    def fingerprints(self) -> tuple[str, ...]:
        """Sorted unique result digests across complete replicates."""
        return tuple(
            sorted({result_digest(r) for r in self.complete_results()})
        )

    def add(self, result: SimulationResult, *, seed=None) -> None:
        key = seed if seed is not None else result.seed
        if key is None:
            key = f"replicate-{len(self.replicates)}"
        self.replicates[key] = result


# ----------------------------------------------------------------------
# ResultSet
# ----------------------------------------------------------------------
class ResultSet:
    """Grouped simulation results: THE input to experiment analysis.

    Everything downstream — summaries, significance, rankings, report
    rendering, snapshot diffs — reads cells out of one of these instead
    of scraping stores or passing ad-hoc dicts around.
    """

    def __init__(self, *, source: str = "") -> None:
        self.source = source
        self._cells: dict[CellKey, ResultCell] = {}

    # -- construction ---------------------------------------------------
    @classmethod
    def from_store(cls, store, *, source: str | None = None) -> "ResultSet":
        """Bulk-load a persistent result store (object or directory).

        Corruption-tolerant: defective entries are quarantined by
        :meth:`ResultStore.iter_entries` and simply absent here.
        """
        # Local import: analysis is a model layer and must not
        # module-import the harness (see tools/check_layering.py).
        from repro.harness.store import ResultStore

        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        resultset = cls(source=source if source is not None else str(store.path))
        labels = _registry_labels()
        for key, result in store.iter_entries():
            resultset._ingest_store_key(key, result, labels)
        return resultset

    @classmethod
    def from_files(cls, paths: Iterable[str | Path], *, source: str = "files") -> "ResultSet":
        """Load individual JSON files: store entries or bare results.

        A store-entry payload (``{"key": ..., "result": ...}``) keeps
        its full point identity; a bare ``SimulationResult.to_dict``
        payload is grouped under its workload with an unknown config.
        """
        resultset = cls(source=source)
        labels = _registry_labels()
        for path in paths:
            path = Path(path)
            payload = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(payload, Mapping) and "result" in payload and "key" in payload:
                result = SimulationResult.from_dict(payload["result"])
                resultset._ingest_store_key(payload["key"], result, labels)
            else:
                result = SimulationResult.from_dict(payload)
                key = CellKey(config="unknown", benchmark=result.workload)
                resultset._cell(key, None).add(result)
        return resultset

    @classmethod
    def from_results(cls, results, *, source: str = "memory") -> "ResultSet":
        """Adopt in-memory results keyed the way the harness hands them.

        Accepts a :meth:`Runner.sweep` mapping (``SweepPoint ->
        result``), a :meth:`Runner.run_matrix` mapping ``(config_name,
        benchmark) -> result``, or an iterable of ``(store_key_dict,
        result)`` pairs.
        """
        resultset = cls(source=source)
        labels = _registry_labels()
        if isinstance(results, Mapping):
            pairs = results.items()
        else:
            pairs = results
        for key, result in pairs:
            if hasattr(key, "config") and hasattr(key, "benchmark"):  # SweepPoint
                cell_key = CellKey(
                    config=config_label(key.config, labels),
                    benchmark=key.benchmark,
                    scale=key.scale,
                    footprint_scale=key.footprint_scale,
                )
                resultset._cell(cell_key, key.config.to_dict()).add(
                    result, seed=key.seed
                )
            elif isinstance(key, tuple) and len(key) == 2:  # run_matrix
                config_name, benchmark = key
                cell_key = CellKey(config=str(config_name), benchmark=benchmark)
                resultset._cell(cell_key, None).add(result)
            elif isinstance(key, Mapping):  # store key dict
                resultset._ingest_store_key(key, result, labels)
            else:
                raise TypeError(
                    f"cannot interpret result key {key!r}; expected a "
                    "SweepPoint, (config, benchmark) tuple, or store key dict"
                )
        return resultset

    # -- ingestion ------------------------------------------------------
    def _cell(self, key: CellKey, config_dict: dict | None) -> ResultCell:
        cell = self._cells.get(key)
        if cell is None:
            cell = ResultCell(key=key, config=config_dict)
            self._cells[key] = cell
        elif cell.config is None and config_dict is not None:
            cell.config = config_dict
        return cell

    #: The canonical SweepPoint store-key fields; anything beyond them
    #: (e.g. the explore driver's ``max_events`` budget) changes what
    #: was simulated, so it becomes part of the cell identity below.
    _POINT_KEY_FIELDS = ("config", "benchmark", "scale", "footprint_scale", "seed")

    def _ingest_store_key(
        self,
        key: Mapping,
        result: SimulationResult,
        labels: Mapping[str, str],
    ) -> None:
        config_dict = key.get("config")
        label = (
            config_label(config_dict, labels)
            if isinstance(config_dict, Mapping)
            else str(config_dict or "unknown")
        )
        extras = {
            name: key[name]
            for name in sorted(set(key) - set(self._POINT_KEY_FIELDS))
        }
        if extras:
            qualifier = ",".join(f"{k}={v}" for k, v in extras.items())
            label = f"{label}[{qualifier}]"
        cell_key = CellKey(
            config=label,
            benchmark=key.get("benchmark", result.workload),
            scale=key.get("scale"),
            footprint_scale=key.get("footprint_scale"),
        )
        config_payload = dict(config_dict) if isinstance(config_dict, Mapping) else None
        self._cell(cell_key, config_payload).add(result, seed=key.get("seed"))

    # -- access ---------------------------------------------------------
    def cells(self) -> list[ResultCell]:
        """All cells, sorted by key for deterministic iteration."""
        return [
            self._cells[key]
            for key in sorted(self._cells, key=CellKey.sort_key)
        ]

    def cell(self, key: CellKey) -> ResultCell | None:
        return self._cells.get(key)

    def configs(self) -> list[str]:
        return sorted({key.config for key in self._cells})

    def benchmarks(self) -> list[str]:
        return sorted({key.benchmark for key in self._cells})

    def filter(
        self,
        *,
        configs: Iterable[str] | None = None,
        benchmarks: Iterable[str] | None = None,
    ) -> "ResultSet":
        """A new ResultSet restricted to the named configs/benchmarks."""
        wanted_configs = set(configs) if configs is not None else None
        wanted_benchmarks = set(benchmarks) if benchmarks is not None else None
        subset = ResultSet(source=self.source)
        for key, cell in self._cells.items():
            if wanted_configs is not None and key.config not in wanted_configs:
                continue
            if wanted_benchmarks is not None and key.benchmark not in wanted_benchmarks:
                continue
            subset._cells[key] = cell
        return subset

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self) -> Iterator[ResultCell]:
        return iter(self.cells())

    def __bool__(self) -> bool:
        return bool(self._cells)

    def total_results(self) -> int:
        return sum(cell.n for cell in self._cells.values())

    def total_incomplete(self) -> int:
        """Truncated/partial replicates across all cells."""
        return sum(cell.incomplete_n for cell in self._cells.values())

    def describe(self) -> str:
        """One-line inventory ("4 cells, 2 configs x 2 benchmarks...")."""
        incomplete = self.total_incomplete()
        return (
            f"{len(self)} cells, {len(self.configs())} configs x "
            f"{len(self.benchmarks())} benchmarks, "
            f"{self.total_results()} results"
            + (
                f" ({incomplete} incomplete, excluded from statistics)"
                if incomplete
                else ""
            )
            + (f" from {self.source}" if self.source else "")
        )
