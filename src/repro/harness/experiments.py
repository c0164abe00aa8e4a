"""Per-figure experiment definitions.

One function per table/figure of the paper's evaluation.  Each returns
an :class:`ExperimentTable` whose rows are what the paper's plot shows;
the benchmark suite runs these and prints/saves the rendered tables, so
``pytest benchmarks/ --benchmark-only -s`` doubles as the full results
report (see EXPERIMENTS.md for paper-vs-measured commentary).

Heavy sweeps run over a representative irregular subset
(:data:`SWEEP_ABBRS`) instead of all twelve irregular benchmarks; the
per-benchmark figures (16-20, 25) use the full suite.

Every figure declares its cells once, as a ``{label: config}`` matrix,
and runs it with one :meth:`~repro.harness.runner.Runner.run_matrix`
call on the default runner (one call per footprint scale).  The runner
deduplicates points shared between figures, executes misses in
parallel when ``--jobs``/``REPRO_JOBS`` allow, and serves repeats from
its two-tier (memory + disk) cache; the rows then read
``results[label, abbr]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.analysis.area import (
    PTWAreaModel,
    hardware_overhead_summary,
    softwalker_relative_area,
)
from repro.analysis.report import format_table, geomean
from repro.config import (
    PAGE_SIZE_2M,
    DistributorPolicy,
    GPUConfig,
    baseline_config,
    fshpt_config,
    ideal_config,
    nha_config,
    softwalker_config,
)
from repro.gpu.gpu import GPUSimulator, SimulationResult
from repro.harness.runner import default_runner, default_scale
from repro.workloads.base import TraceWorkload
from repro.workloads.catalog import (
    ALL_ABBRS,
    IRREGULAR_ABBRS,
    REGULAR_ABBRS,
    SCALABLE_ABBRS,
    get_spec,
)
from repro.workloads.microbench import MicrobenchWorkload

#: Representative irregular subset for multi-point sweeps.
SWEEP_ABBRS = ["dc", "nw", "xsb", "sy2k", "spmv", "gups"]

#: Footprint multiplier that pushes the scalable workloads past the
#: 2MB-page L2 TLB coverage (2GB), per Section 6.3's methodology.
LARGE_PAGE_FOOTPRINT_SCALE = 8.0


@dataclass
class ExperimentTable:
    """A rendered experiment: title, column headers, data rows."""

    name: str
    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        text = format_table(self.headers, self.rows, title=self.title)
        if self.notes:
            text += "\n" + "\n".join(f"note: {note}" for note in self.notes)
        return text

    def save(self, directory: str | Path = "results") -> Path:
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        out = path / f"{self.name}.txt"
        out.write_text(self.render() + "\n")
        return out

    def column(self, header: str) -> list:
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def row_for(self, key) -> list:
        for row in self.rows:
            if row[0] == key:
                return row
        raise KeyError(key)


#: Label of the baseline cell in a figure's config matrix.
BASELINE = "baseline"


def _geomean_speedup(
    results: Mapping[tuple, SimulationResult],
    label,
    abbrs: Sequence[str],
    baseline=BASELINE,
) -> float:
    """Geomean over ``abbrs`` of ``label``'s speedup over ``baseline``."""
    return geomean(
        [results[label, abbr].speedup_over(results[baseline, abbr]) for abbr in abbrs]
    )


def sweep_resultset(
    configs: Iterable[GPUConfig],
    abbrs: Iterable[str],
    *,
    scale: float | None = None,
    seeds: Sequence[int] = (1, 2, 3),
    jobs: int | None = None,
):
    """Seed-replicated sweep as a :class:`repro.analysis.ResultSet`.

    The figures above aggregate single deterministic runs into tables;
    statistical questions — confidence intervals, significance, design
    ranking — belong to :mod:`repro.analysis.experiment`.  This is the
    sanctioned bridge between the two layers: run the matrix once per
    seed and hand back THE container the analysis layer consumes
    (``analyze``, ``diff_resultsets``, ``repro report``).  Do not scrape
    the :class:`~repro.harness.store.ResultStore` entry files directly;
    ``ResultSet.from_store`` is the loading path for persisted sweeps.
    """
    from repro.harness.pool import make_point

    points = [
        make_point(config, abbr, scale=scale, seed=seed)
        for config in configs
        for abbr in abbrs
        for seed in seeds
    ]
    return default_runner().resultset(points, jobs=jobs)


# ----------------------------------------------------------------------
# Configuration sets
# ----------------------------------------------------------------------
def figure16_configs() -> dict[str, GPUConfig]:
    """The Figure 16 comparison set."""
    return {
        "NHA": nha_config(),
        "FS-HPT": fshpt_config(),
        "SW w/o In-TLB": softwalker_config(in_tlb_mshr_entries=0),
        "SoftWalker": softwalker_config(),
        "SW Hybrid": softwalker_config(hybrid=True),
        "Ideal": ideal_config(),
    }


def scaled_ptw_config(num_walkers: int, *, pwb_ports: int = 1) -> GPUConfig:
    """Hardware scaling: PWB entries and L2 TLB MSHRs grow with walkers."""
    base = baseline_config()
    scale = max(1, num_walkers // base.ptw.num_walkers)
    return base.with_ptw(
        num_walkers=num_walkers,
        pwb_entries=base.ptw.pwb_entries * scale,
        pwb_ports=pwb_ports,
    ).with_l2_tlb(mshr_entries=base.l2_tlb.mshr_entries * scale)


def scaled_mshr_config(mshr_entries: int) -> GPUConfig:
    """Scale only the L2 TLB MSHRs, keeping 32 walkers (Figure 12)."""
    return baseline_config().with_l2_tlb(mshr_entries=mshr_entries)


# ----------------------------------------------------------------------
# Motivation figures
# ----------------------------------------------------------------------
def fig03_access_patterns(scale: float | None = None) -> ExperimentTable:
    """Page-level access-pattern statistics for nw, bfs (irregular), 2dc."""
    table = ExperimentTable(
        name="fig03_access_patterns",
        title="Figure 3: page-granularity access patterns (64KB pages)",
        headers=[
            "workload",
            "category",
            "pages touched",
            "mean pages / warp instruction",
            "mean page span / instruction",
        ],
    )
    for abbr in ["nw", "bfs", "2dc"]:
        spec = get_spec(abbr)
        workload = TraceWorkload(
            spec, baseline_config(), scale=scale or default_scale()
        )
        lines_per_page = workload.page_size // 128
        per_inst_pages = []
        per_inst_span = []
        for sm_traces in workload.traces:
            for trace in sm_traces:
                for inst in trace:
                    if inst[0] != "m":
                        continue
                    pages = sorted({v // lines_per_page for v in inst[1]})
                    per_inst_pages.append(len(pages))
                    per_inst_span.append(pages[-1] - pages[0])
        count = len(per_inst_pages)
        table.rows.append(
            [
                abbr,
                spec.category,
                workload.touched_pages,
                sum(per_inst_pages) / count,
                sum(per_inst_span) / count,
            ]
        )
    table.notes.append(
        "irregular workloads touch many distinct, widely separated pages "
        "per warp instruction; the regular workload stays page-local"
    )
    return table


def fig04_microbench(
    concurrencies: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 256),
    scale: float | None = None,
) -> ExperimentTable:
    """Memory latency vs number of concurrent page walks (baseline GPU)."""
    table = ExperimentTable(
        name="fig04_microbench",
        title="Figure 4: average memory access latency vs concurrent page walks",
        headers=["concurrent walks", "mean latency (cycles)", "normalized"],
    )
    baseline_latency = None
    for concurrency in concurrencies:
        workload = MicrobenchWorkload(
            baseline_config(), concurrency, scale=scale or default_scale()
        )
        result = GPUSimulator(baseline_config(), workload).run()
        latency = result.mean_memory_latency
        if baseline_latency is None:
            baseline_latency = latency
        table.rows.append([concurrency, latency, latency / baseline_latency])
    table.notes.append("paper: ~4x latency at 256 concurrent walks on an A2000")
    return table


def fig05_ptw_scaling(
    abbrs: Sequence[str] | None = None,
    ptw_counts: Sequence[int] = (32, 64, 128, 256, 512, 1024),
    scale: float | None = None,
) -> ExperimentTable:
    """Speedup of scaling hardware PTWs (normalized to 32 PTWs)."""
    abbrs = list(abbrs or ALL_ABBRS)
    configs = {f"{n} PTWs": scaled_ptw_config(n) for n in ptw_counts}
    configs["Ideal"] = ideal_config()
    table = ExperimentTable(
        name="fig05_ptw_scaling",
        title="Figure 5: speedup with increasing PTWs (norm. to 32 PTWs)",
        headers=["workload"] + list(configs),
    )
    results = default_runner().run_matrix(
        {BASELINE: baseline_config(), **configs}, abbrs, scale=scale
    )
    per_config: dict[str, list[float]] = {label: [] for label in configs}
    for abbr in abbrs:
        base = results[BASELINE, abbr]
        row: list = [abbr]
        for label in configs:
            speedup = results[label, abbr].speedup_over(base)
            row.append(speedup)
            per_config[label].append(speedup)
        table.rows.append(row)
    table.rows.append(["geomean"] + [geomean(per_config[l]) for l in configs])
    irregular = [i for i, a in enumerate(abbrs) if get_spec(a).is_irregular]
    if irregular:
        table.rows.append(
            ["geomean (irregular)"]
            + [geomean([per_config[l][i] for i in irregular]) for l in configs]
        )
    table.notes.append("paper: ideal = 2.58x average, 4.84x for irregular workloads")
    return table


def fig06_prior_techniques(
    abbrs: Sequence[str] | None = None,
    ptw_counts: Sequence[int] = (32, 128, 512),
    scale: float | None = None,
) -> ExperimentTable:
    """PTW scaling under (a) NHA coalescing and (b) 2MB large pages."""
    abbrs = list(abbrs or SWEEP_ABBRS)
    table = ExperimentTable(
        name="fig06_prior_techniques",
        title="Figure 6: PTW contention persists under NHA and 2MB pages",
        headers=["technique"] + [f"{n} PTWs" for n in ptw_counts],
    )
    runner = default_runner()
    # (a) NHA + scaling.
    nha = runner.run_matrix(
        {
            BASELINE: nha_config(),
            **{
                n: scaled_ptw_config(n).with_ptw(nha_coalescing=True)
                for n in ptw_counts
            },
        },
        abbrs,
        scale=scale,
    )
    table.rows.append(
        ["NHA coalescing (a)"]
        + [_geomean_speedup(nha, n, abbrs) for n in ptw_counts]
    )
    # (b) 2MB pages + scaling (footprints scaled past L2 TLB coverage).
    large = runner.run_matrix(
        {
            BASELINE: baseline_config().with_page_size(PAGE_SIZE_2M),
            **{
                n: scaled_ptw_config(n).with_page_size(PAGE_SIZE_2M)
                for n in ptw_counts
            },
        },
        abbrs,
        scale=scale,
        footprint_scale=LARGE_PAGE_FOOTPRINT_SCALE,
    )
    table.rows.append(
        ["2MB pages (b)"] + [_geomean_speedup(large, n, abbrs) for n in ptw_counts]
    )
    table.notes.append(
        "speedups normalized to 32 PTWs *within* each technique: extra "
        "walkers still help, so contention is not solved by either"
    )
    return table


def fig07_latency_breakdown(
    abbrs: Sequence[str] | None = None,
    ptw_counts: Sequence[int] = (32, 128, 512),
    scale: float | None = None,
) -> ExperimentTable:
    """Walk-latency breakdown (queueing vs access) as PTWs scale."""
    abbrs = list(abbrs or SWEEP_ABBRS)
    table = ExperimentTable(
        name="fig07_latency_breakdown",
        title="Figure 7: page-walk latency breakdown vs number of PTWs",
        headers=[
            "PTWs",
            "mean queueing (cycles)",
            "mean access (cycles)",
            "queueing share",
        ],
    )
    configs: dict = {n: scaled_ptw_config(n) for n in ptw_counts}
    configs["ideal"] = ideal_config()
    results = default_runner().run_matrix(configs, abbrs, scale=scale)
    for label in configs:
        q = sum(results[label, abbr].walk_queueing for abbr in abbrs) / len(abbrs)
        a = sum(results[label, abbr].walk_access for abbr in abbrs) / len(abbrs)
        table.rows.append([label, q, a, q / (q + a)])
    table.notes.append("paper: queueing is ~95% of walk latency at 32 PTWs")
    return table


def fig08_stall_breakdown(
    abbrs: Sequence[str] | None = None, scale: float | None = None
) -> ExperimentTable:
    """Warp-scheduler cycle breakdown on the baseline GPU."""
    abbrs = list(abbrs or ALL_ABBRS)
    table = ExperimentTable(
        name="fig08_stall_breakdown",
        title="Figure 8: warp scheduler cycles (baseline)",
        headers=["workload", "category", "issued", "memory/scoreboard stall"],
    )
    results = default_runner().run_matrix(
        {BASELINE: baseline_config()}, abbrs, scale=scale
    )
    for abbr in abbrs:
        result = results[BASELINE, abbr]
        table.rows.append(
            [
                abbr,
                get_spec(abbr).category,
                result.issued_fraction,
                result.stall_fraction,
            ]
        )
    table.notes.append("paper: ~90% of cycles stall for irregular workloads")
    return table


def fig12_ptw_mshr_scaling(
    abbrs: Sequence[str] | None = None,
    factors: Sequence[int] = (1, 2, 4, 8),
    scale: float | None = None,
    page_size: int | None = None,
) -> ExperimentTable:
    """Scaling PTWs vs MSHRs vs both (normalized to 32 PTW / 128 MSHR)."""
    abbrs = list(abbrs or SWEEP_ABBRS)
    large = page_size == PAGE_SIZE_2M

    def with_page(config: GPUConfig) -> GPUConfig:
        return config.with_page_size(page_size) if page_size else config

    table = ExperimentTable(
        name=f"fig12_ptw_mshr_scaling{'_2mb' if large else '_64kb'}",
        title=(
            "Figure 12: scaling PTWs and L2 TLB MSHRs "
            f"({'2MB' if large else '64KB'} pages, geomean over "
            f"{len(abbrs)} irregular workloads)"
        ),
        headers=["scaling factor", "PTWs only", "MSHRs only", "PTWs+MSHRs"],
    )
    configs: dict = {BASELINE: with_page(baseline_config())}
    for factor in factors:
        configs[factor, "PTWs only"] = with_page(
            baseline_config().with_ptw(
                num_walkers=32 * factor, pwb_entries=64 * factor
            )
        )
        configs[factor, "MSHRs only"] = with_page(scaled_mshr_config(128 * factor))
        configs[factor, "PTWs+MSHRs"] = with_page(scaled_ptw_config(32 * factor))
    results = default_runner().run_matrix(
        configs,
        abbrs,
        scale=scale,
        footprint_scale=LARGE_PAGE_FOOTPRINT_SCALE if large else 1.0,
    )
    for factor in factors:
        table.rows.append(
            [f"{factor}x"]
            + [
                _geomean_speedup(results, (factor, column), abbrs)
                for column in table.headers[1:]
            ]
        )
    table.notes.append(
        "paper: scaling either resource alone falls well short of scaling both"
    )
    return table


# ----------------------------------------------------------------------
# Main evaluation figures
# ----------------------------------------------------------------------
def fig16_overall_speedup(
    abbrs: Sequence[str] | None = None, scale: float | None = None
) -> ExperimentTable:
    """The headline comparison: all techniques over the baseline."""
    abbrs = list(abbrs or ALL_ABBRS)
    configs = figure16_configs()
    table = ExperimentTable(
        name="fig16_overall_speedup",
        title="Figure 16: speedup over the 32-PTW baseline",
        headers=["workload"] + list(configs),
    )
    results = default_runner().run_matrix(
        {BASELINE: baseline_config(), **configs}, abbrs, scale=scale
    )
    per_config: dict[str, list[float]] = {label: [] for label in configs}
    for abbr in abbrs:
        base = results[BASELINE, abbr]
        row: list = [abbr]
        for label in configs:
            speedup = results[label, abbr].speedup_over(base)
            row.append(speedup)
            per_config[label].append(speedup)
        table.rows.append(row)
    table.rows.append(["geomean"] + [geomean(per_config[l]) for l in configs])
    irregular = [i for i, a in enumerate(abbrs) if get_spec(a).is_irregular]
    if irregular:
        table.rows.append(
            ["geomean (irregular)"]
            + [geomean([per_config[l][i] for i in irregular]) for l in configs]
        )
    table.notes.append(
        "paper: SoftWalker 2.24x average (3.94x irregular); NHA 1.22x; FS-HPT 1.13x"
    )
    return table


def fig17_mshr_failures(
    abbrs: Sequence[str] | None = None, scale: float | None = None
) -> ExperimentTable:
    """L2 TLB MSHR-failure reduction from In-TLB MSHR."""
    abbrs = list(abbrs or IRREGULAR_ABBRS)
    table = ExperimentTable(
        name="fig17_mshr_failures",
        title="Figure 17: L2 TLB MSHR failure reduction with In-TLB MSHR",
        headers=["workload", "baseline failures", "SoftWalker failures", "reduction"],
    )
    results = default_runner().run_matrix(
        {BASELINE: baseline_config(), "SoftWalker": softwalker_config()},
        abbrs,
        scale=scale,
    )
    reductions = []
    for abbr in abbrs:
        before = results[BASELINE, abbr].mshr_failures
        after = results["SoftWalker", abbr].mshr_failures
        reduction = (before - after) / before if before else 0.0
        reductions.append(reduction)
        table.rows.append([abbr, before, after, reduction])
    table.rows.append(["mean", "", "", sum(reductions) / len(reductions)])
    table.notes.append("paper: 95.3% of failures eliminated on average; spmv ~65%")
    return table


def fig18_walk_latency(
    abbrs: Sequence[str] | None = None, scale: float | None = None
) -> ExperimentTable:
    """Normalized page-walk latency (queueing share in parentheses)."""
    abbrs = list(abbrs or ALL_ABBRS)
    configs = {
        "NHA": nha_config(),
        "FS-HPT": fshpt_config(),
        "SoftWalker": softwalker_config(),
    }
    table = ExperimentTable(
        name="fig18_walk_latency",
        title="Figure 18: page-walk latency normalized to baseline",
        headers=["workload", "baseline (cycles)", "baseline queue share"]
        + [f"{label} (norm.)" for label in configs],
    )
    results = default_runner().run_matrix(
        {BASELINE: baseline_config(), **configs}, abbrs, scale=scale
    )
    normalized: dict[str, list[float]] = {label: [] for label in configs}
    for abbr in abbrs:
        base = results[BASELINE, abbr]
        row: list = [abbr, base.walk_latency, base.queueing_fraction]
        for label in configs:
            result = results[label, abbr]
            norm = result.walk_latency / base.walk_latency if base.walk_latency else 0
            row.append(norm)
            normalized[label].append(norm)
        table.rows.append(row)
    table.rows.append(
        ["mean", "", ""]
        + [sum(normalized[l]) / len(normalized[l]) for l in configs]
    )
    table.notes.append(
        "paper: SoftWalker cuts walk latency 72.8%; NHA 20%; FS-HPT 16%"
    )
    return table


def fig19_stall_reduction(
    abbrs: Sequence[str] | None = None, scale: float | None = None
) -> ExperimentTable:
    """Warp-scheduler stall-cycle reduction under SoftWalker."""
    abbrs = list(abbrs or ALL_ABBRS)
    table = ExperimentTable(
        name="fig19_stall_reduction",
        title="Figure 19: stall-cycle reduction vs baseline",
        headers=["workload", "category", "baseline stalls", "SoftWalker stalls", "reduction"],
    )
    results = default_runner().run_matrix(
        {BASELINE: baseline_config(), "SoftWalker": softwalker_config()},
        abbrs,
        scale=scale,
    )
    irregular_reductions = []
    for abbr in abbrs:
        before = results[BASELINE, abbr].stall_cycles
        after = results["SoftWalker", abbr].stall_cycles
        reduction = (before - after) / before if before else 0.0
        if get_spec(abbr).is_irregular:
            irregular_reductions.append(reduction)
        table.rows.append([abbr, get_spec(abbr).category, before, after, reduction])
    table.rows.append(
        ["mean (irregular)", "", "", "",
         sum(irregular_reductions) / len(irregular_reductions)]
    )
    table.notes.append("paper: 71% stall reduction for irregular workloads")
    return table


def fig20_l2_miss_rate(
    abbrs: Sequence[str] | None = None, scale: float | None = None
) -> ExperimentTable:
    """L2 data-cache miss rate: baseline vs SoftWalker."""
    abbrs = list(abbrs or IRREGULAR_ABBRS)
    table = ExperimentTable(
        name="fig20_l2_miss_rate",
        title="Figure 20: L2 data cache miss rate",
        headers=["workload", "baseline", "SoftWalker", "delta"],
    )
    results = default_runner().run_matrix(
        {BASELINE: baseline_config(), "SoftWalker": softwalker_config()},
        abbrs,
        scale=scale,
    )
    for abbr in abbrs:
        base = results[BASELINE, abbr].l2_cache_miss_rate
        soft = results["SoftWalker", abbr].l2_cache_miss_rate
        table.rows.append([abbr, base, soft, soft - base])
    table.notes.append("paper: miss rate essentially unchanged by SoftWalker traffic")
    return table


# ----------------------------------------------------------------------
# Cost and sensitivity studies
# ----------------------------------------------------------------------
def fig15_area_tradeoff(
    abbrs: Sequence[str] | None = None,
    ptw_counts: Sequence[int] = (32, 64, 128, 192),
    port_counts: Sequence[int] = (1, 2, 8, 18),
    scale: float | None = None,
) -> ExperimentTable:
    """Speedup vs relative area for hardware scaling and SoftWalker."""
    abbrs = list(abbrs or SWEEP_ABBRS)
    model = PTWAreaModel()
    table = ExperimentTable(
        name="fig15_area_tradeoff",
        title="Figure 15: speedup vs area overhead (norm. to 32 PTWs / 1 port)",
        headers=["configuration", "PWB ports", "relative area", "speedup"],
    )
    configs: dict = {
        (n, ports): scaled_ptw_config(n, pwb_ports=ports)
        for n in ptw_counts
        for ports in port_counts
    }
    results = default_runner().run_matrix(
        {BASELINE: baseline_config(), "SoftWalker": softwalker_config(), **configs},
        abbrs,
        scale=scale,
    )
    for n, ports in configs:
        table.rows.append(
            [
                f"{n} PTWs",
                ports,
                model.relative_area(n, ports),
                _geomean_speedup(results, (n, ports), abbrs),
            ]
        )
    table.rows.append(
        [
            "SoftWalker",
            "-",
            softwalker_relative_area(softwalker_config(), model),
            _geomean_speedup(results, "SoftWalker", abbrs),
        ]
    )
    table.notes.append(
        "paper: within a relative-area budget of ~16-64, hardware scaling "
        "reaches 1.1-2.1x while SoftWalker exceeds 2.6x"
    )
    return table


def fig21_iso_area(
    abbrs: Sequence[str] | None = None, scale: float | None = None
) -> ExperimentTable:
    """SoftWalker vs an iso-area 128-PTW baseline, +/- In-TLB MSHR."""
    abbrs = list(abbrs or IRREGULAR_ABBRS)
    configs = {
        "32 PTWs + In-TLB": baseline_config().derive(hw_in_tlb_mshr=True),
        "128 PTWs": scaled_ptw_config(128),
        "128 PTWs + In-TLB": scaled_ptw_config(128).derive(hw_in_tlb_mshr=True),
        "SW w/o In-TLB": softwalker_config(in_tlb_mshr_entries=0),
        "SoftWalker": softwalker_config(),
    }
    table = ExperimentTable(
        name="fig21_iso_area",
        title="Figure 21: iso-area comparison (norm. to 32-PTW baseline)",
        headers=["workload"] + list(configs),
    )
    results = default_runner().run_matrix(
        {BASELINE: baseline_config(), **configs}, abbrs, scale=scale
    )
    per_config: dict[str, list[float]] = {label: [] for label in configs}
    for abbr in abbrs:
        base = results[BASELINE, abbr]
        row: list = [abbr]
        for label in configs:
            speedup = results[label, abbr].speedup_over(base)
            row.append(speedup)
            per_config[label].append(speedup)
        table.rows.append(row)
    table.rows.append(["geomean"] + [geomean(per_config[l]) for l in configs])
    table.notes.append(
        "paper: SoftWalker beats the iso-area 128-PTW design by ~18.5% on "
        "irregular workloads; In-TLB alone does not help few-walker designs"
    )
    return table


def fig22_l2tlb_latency(
    abbrs: Sequence[str] | None = None,
    latencies: Sequence[int] = (40, 80, 120, 160, 200),
    scale: float | None = None,
) -> ExperimentTable:
    """SoftWalker speedup sensitivity to L2 TLB access latency."""
    abbrs = list(abbrs or SWEEP_ABBRS)
    table = ExperimentTable(
        name="fig22_l2tlb_latency",
        title="Figure 22: SoftWalker speedup vs L2 TLB latency",
        headers=["L2 TLB latency (cycles)", "speedup over baseline"],
    )
    # The paper normalizes every point to the *default* baseline: the
    # sweep isolates SoftWalker's SM<->L2TLB communication cost, which
    # scales with this latency.
    results = default_runner().run_matrix(
        {
            BASELINE: baseline_config(),
            **{
                latency: softwalker_config().with_l2_tlb(latency=latency)
                for latency in latencies
            },
        },
        abbrs,
        scale=scale,
    )
    for latency in latencies:
        table.rows.append([latency, _geomean_speedup(results, latency, abbrs)])
    table.notes.append(
        "paper: 2.31x at 40 cycles, degrading gracefully to 2.07x at 200"
    )
    return table


def fig23_pt_latency(
    abbrs: Sequence[str] | None = None,
    latencies: Sequence[int] = (50, 100, 200, 300, 400),
    scale: float | None = None,
) -> ExperimentTable:
    """Sensitivity to per-level page-table access latency."""
    abbrs = list(abbrs or SWEEP_ABBRS)
    table = ExperimentTable(
        name="fig23_pt_latency",
        title="Figure 23: speedup and queueing reduction vs per-level PT latency",
        headers=[
            "per-level latency (cycles)",
            "speedup over baseline",
            "queueing delay reduction",
        ],
    )
    configs: dict = {}
    for latency in latencies:
        configs[BASELINE, latency] = baseline_config().derive(
            fixed_pt_level_latency=latency
        )
        configs["SoftWalker", latency] = softwalker_config().derive(
            fixed_pt_level_latency=latency
        )
    results = default_runner().run_matrix(configs, abbrs, scale=scale)
    for latency in latencies:
        base_label, soft_label = (BASELINE, latency), ("SoftWalker", latency)
        reductions = []
        for abbr in abbrs:
            before = results[base_label, abbr].walk_queueing
            after = results[soft_label, abbr].walk_queueing
            if before:
                reductions.append((before - after) / before)
        table.rows.append(
            [
                latency,
                _geomean_speedup(results, soft_label, abbrs, base_label),
                sum(reductions) / len(reductions),
            ]
        )
    table.notes.append("paper: speedup grows 1.6x -> 4.8x from 50 to 400 cycles")
    return table


def fig24_intlb_capacity(
    abbrs: Sequence[str] | None = None,
    capacities: Sequence[int] = (0, 128, 256, 512, 1024),
    scale: float | None = None,
) -> ExperimentTable:
    """Sensitivity to the In-TLB MSHR entry budget."""
    abbrs = list(abbrs or SWEEP_ABBRS)
    table = ExperimentTable(
        name="fig24_intlb_capacity",
        title="Figure 24: SoftWalker speedup vs max In-TLB MSHR entries",
        headers=["In-TLB MSHR entries", "speedup over baseline"],
    )
    results = default_runner().run_matrix(
        {
            BASELINE: baseline_config(),
            **{c: softwalker_config(in_tlb_mshr_entries=c) for c in capacities},
        },
        abbrs,
        scale=scale,
    )
    for capacity in capacities:
        table.rows.append([capacity, _geomean_speedup(results, capacity, abbrs)])
    table.notes.append("paper: 1.63x / 1.88x / 2.04x / 2.12x / 2.24x for 0..1024")
    return table


def fig25_large_pages(
    abbrs: Sequence[str] | None = None, scale: float | None = None
) -> ExperimentTable:
    """SoftWalker under 2MB pages (footprints scaled past TLB coverage)."""
    abbrs = list(abbrs or SCALABLE_ABBRS)
    table = ExperimentTable(
        name="fig25_large_pages",
        title="Figure 25: speedup over baseline with 2MB pages",
        headers=["workload", "SoftWalker speedup"],
    )
    results = default_runner().run_matrix(
        {
            BASELINE: baseline_config().with_page_size(PAGE_SIZE_2M),
            "SoftWalker": softwalker_config().with_page_size(PAGE_SIZE_2M),
        },
        abbrs,
        scale=scale,
        footprint_scale=LARGE_PAGE_FOOTPRINT_SCALE,
    )
    speedups = []
    for abbr in abbrs:
        speedup = results["SoftWalker", abbr].speedup_over(results[BASELINE, abbr])
        speedups.append(speedup)
        table.rows.append([abbr, speedup])
    table.rows.append(["geomean", geomean(speedups)])
    table.notes.append(
        "paper: seven of ten scalable workloads still speed up (xsb/spmv/gups 4.5-7x)"
    )
    return table


def fig26_distributor(
    abbrs: Sequence[str] | None = None, scale: float | None = None
) -> ExperimentTable:
    """Request Distributor policy comparison."""
    abbrs = list(abbrs or SWEEP_ABBRS)
    table = ExperimentTable(
        name="fig26_distributor",
        title="Figure 26: SoftWalker speedup by distributor policy",
        headers=["policy", "speedup over baseline"],
    )
    results = default_runner().run_matrix(
        {
            BASELINE: baseline_config(),
            **{
                policy: softwalker_config(distributor_policy=policy)
                for policy in DistributorPolicy.ALL
            },
        },
        abbrs,
        scale=scale,
    )
    for policy in DistributorPolicy.ALL:
        table.rows.append([policy, _geomean_speedup(results, policy, abbrs)])
    table.notes.append("paper: no significant difference; round-robin adopted")
    return table


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def table1_comparison() -> ExperimentTable:
    """Qualitative comparison of page-walk mitigation techniques."""
    config = softwalker_config()
    sw = config.softwalker
    throughput = f"{sw.pw_threads_per_sm}x(# SMs) = {sw.pw_threads_per_sm * config.num_sms}"
    table = ExperimentTable(
        name="table1_comparison",
        title="Table 1: prior techniques vs SoftWalker",
        headers=["technique", "purpose", "approach", "flexible", "needs HW PTW", "walk throughput"],
        rows=[
            ["NHA", "reduce # page walks", "coalescing", "no", "yes", "~16x"],
            ["PW scheduling", "reduce warp divergence", "scheduling", "no", "yes", "unchanged"],
            ["FS-HPT", "remove pointer chasing", "hashed page table", "no", "yes", "unchanged"],
            ["SoftWalker", "increase walk throughput", "software threads", "yes (SW)", "no", throughput],
        ],
    )
    return table


def table3_configuration() -> ExperimentTable:
    """The simulated configuration (defaults of :func:`baseline_config`)."""
    config = baseline_config()
    table = ExperimentTable(
        name="table3_configuration",
        title="Table 3: experimental setup",
        headers=["component", "parameter"],
        rows=[
            ["# of SMs", config.num_sms],
            ["max warps per SM", config.max_warps_per_sm],
            ["L1 TLB", f"{config.l1_tlb.entries} entries, {config.l1_tlb.latency} cyc, "
                        f"{config.l1_tlb.mshr_entries} MSHRs x {config.l1_tlb.mshr_merges} merges"],
            ["L2 TLB", f"{config.l2_tlb.entries} entries, {config.l2_tlb.associativity}-way, "
                        f"{config.l2_tlb.latency} cyc, {config.l2_tlb.mshr_entries} MSHRs "
                        f"x {config.l2_tlb.mshr_merges} merges"],
            ["L1D cache", f"{config.l1d.size_bytes // 1024}KB, {config.l1d.latency} cyc"],
            ["L2D cache", f"{config.l2d.size_bytes // (1024 * 1024)}MB, {config.l2d.latency} cyc, "
                           f"{config.l2d.line_bytes}B line ({config.l2d.sector_bytes}B sector)"],
            ["DRAM", f"{config.dram.channels} channels, {config.dram.latency} cyc"],
            ["page table", f"{config.page_table.levels}-level radix, "
                            f"{config.page_table.page_size // 1024}KB pages"],
            ["PWC", f"{config.ptw.pwc_entries} entries"],
            ["PTWs", config.ptw.num_walkers],
            ["SoftWalker", f"{config.softwalker.pw_threads_per_sm} PW threads/SM, "
                            f"{config.softwalker.softpwb_entries}-entry SoftPWB, "
                            f"up to {config.softwalker.in_tlb_mshr_entries} In-TLB MSHRs"],
        ],
    )
    return table


def table4_catalog(
    abbrs: Sequence[str] | None = None, scale: float | None = None
) -> ExperimentTable:
    """The benchmark catalog with measured vs paper MPKI."""
    abbrs = list(abbrs or ALL_ABBRS)
    table = ExperimentTable(
        name="table4_catalog",
        title="Table 4: benchmarks (measured on the baseline)",
        headers=[
            "workload",
            "category",
            "footprint (MB)",
            "measured MPKI",
            "paper MPKI",
            "paper required PTWs",
        ],
    )
    results = default_runner().run_matrix(
        {BASELINE: baseline_config()}, abbrs, scale=scale
    )
    for abbr in abbrs:
        spec = get_spec(abbr)
        table.rows.append(
            [
                abbr,
                spec.category,
                spec.footprint_mb,
                results[BASELINE, abbr].l2_tlb_mpki,
                spec.paper_mpki,
                spec.paper_required_ptws,
            ]
        )
    table.notes.append(
        "MPKI calibration targets the paper's ordering, not absolute values"
    )
    return table


# ----------------------------------------------------------------------
# Ablations (design choices DESIGN.md calls out)
# ----------------------------------------------------------------------
def ablation_pwb_scheduling(
    abbrs: Sequence[str] | None = None, scale: float | None = None
) -> ExperimentTable:
    """Warp-aware PWB scheduling (ref [85]) vs FCFS at 32 walkers.

    Table 1's point: scheduling reorders the queue but adds no
    throughput, so it cannot resolve contention the way SoftWalker does.
    """
    abbrs = list(abbrs or SWEEP_ABBRS)
    table = ExperimentTable(
        name="ablation_pwb_scheduling",
        title="Ablation: PWB scheduling policy (32 hardware walkers)",
        headers=["policy", "speedup over FCFS baseline"],
    )
    configs = {
        "fcfs": baseline_config(),
        "sm_batch (PW scheduling)": baseline_config().with_ptw(pwb_policy="sm_batch"),
        "SoftWalker (for reference)": softwalker_config(),
    }
    results = default_runner().run_matrix(configs, abbrs, scale=scale)
    for label in configs:
        table.rows.append([label, _geomean_speedup(results, label, abbrs, "fcfs")])
    table.notes.append(
        "scheduling reorders walks but adds no throughput: expect ~1x, "
        "far below SoftWalker"
    )
    return table


def ablation_simt_lockstep(
    abbrs: Sequence[str] | None = None, scale: float | None = None
) -> ExperimentTable:
    """PW-warp execution model: independent threads vs SIMT lockstep."""
    abbrs = list(abbrs or SWEEP_ABBRS)
    table = ExperimentTable(
        name="ablation_simt_lockstep",
        title="Ablation: PW-warp thread model",
        headers=["execution model", "speedup over baseline"],
    )
    configs = {
        "independent threads (paper)": softwalker_config(),
        "SIMT lockstep": softwalker_config().with_softwalker(simt_lockstep=True),
    }
    results = default_runner().run_matrix(
        {BASELINE: baseline_config(), **configs}, abbrs, scale=scale
    )
    for label in configs:
        table.rows.append([label, _geomean_speedup(results, label, abbrs)])
    table.notes.append(
        "memory divergence makes lockstep warps wait for their slowest "
        "lane every level; independent threads avoid the convoy effect"
    )
    return table


def ablation_pwc_depth(
    abbrs: Sequence[str] | None = None, scale: float | None = None
) -> ExperimentTable:
    """PWC caching depth: PDE-style (min level 2) vs leaf pointers (1)."""
    abbrs = list(abbrs or SWEEP_ABBRS)
    table = ExperimentTable(
        name="ablation_pwc_depth",
        title="Ablation: Page Walk Cache depth (baseline hardware walkers)",
        headers=["PWC caches down to", "speedup over default", "mean walk access (cycles)"],
    )
    default = "level 2 (PDE cache, default)"
    configs = {
        default: baseline_config(),
        "level 1 (leaf pointers)": baseline_config().with_ptw(pwc_min_level=1),
    }
    results = default_runner().run_matrix(configs, abbrs, scale=scale)
    for label in configs:
        access = sum(results[label, abbr].walk_access for abbr in abbrs)
        table.rows.append(
            [
                label,
                _geomean_speedup(results, label, abbrs, default),
                access / len(abbrs),
            ]
        )
    table.notes.append(
        "a deeper PWC shortens individual walks, but queueing — not walk "
        "length — dominates, so contention remains"
    )
    return table


def extension_baselines(
    abbrs: Sequence[str] | None = None, scale: float | None = None
) -> ExperimentTable:
    """Every Section 2.3 prior technique vs SoftWalker, side by side.

    Beyond Figure 16's comparison set, this adds the coalesced TLB
    (CoLT-style) and Avatar-style speculation so the whole related-work
    landscape is measurable from one command
    (``python -m repro figure ext-baselines``).
    """
    from repro.config import avatar_config

    abbrs = list(abbrs or SWEEP_ABBRS)
    configs = {
        "NHA": nha_config(),
        "FS-HPT": fshpt_config(),
        "CoLT (span 4)": baseline_config().derive(tlb_coalescing_span=4),
        "Avatar speculation": avatar_config(),
        "PW scheduling": baseline_config().with_ptw(pwb_policy="sm_batch"),
        "SoftWalker": softwalker_config(),
    }
    table = ExperimentTable(
        name="extension_baselines",
        title="Section 2.3 techniques vs SoftWalker (irregular subset)",
        headers=["technique", "speedup over baseline"],
    )
    results = default_runner().run_matrix(
        {BASELINE: baseline_config(), **configs}, abbrs, scale=scale
    )
    for label in configs:
        table.rows.append([label, _geomean_speedup(results, label, abbrs)])
    table.notes.append(
        "irregular access + scattered frames defeat reach/speculation "
        "techniques; only added walk throughput moves the needle"
    )
    return table


def sec52_hardware_overhead() -> ExperimentTable:
    """Section 5.2 storage/area overhead arithmetic."""
    summary = hardware_overhead_summary(softwalker_config())
    table = ExperimentTable(
        name="sec52_hw_overhead",
        title="Section 5.2: SoftWalker hardware overhead",
        headers=["quantity", "value"],
        rows=[[k, v] for k, v in summary.items()],
    )
    table.notes.append(
        "paper: 1470 bits/SM of PW-warp context, 64-bit controller bitmap, "
        "1024 In-TLB pending bits, 0.0061 mm^2 control logic"
    )
    return table
