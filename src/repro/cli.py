"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the Table 4 benchmark catalog.
* ``configs`` — the named-configuration registry with descriptions.
* ``run`` — simulate one benchmark under one configuration, the only
  single-simulation command.  It always drives ``run_supervised``, and
  any of four instruments ride the same run: ``--trace`` (request
  lifecycle as Chrome trace JSON), ``--metrics`` (sampled time-series
  gauges), ``--profile`` (host self time under ``cProfile``) and
  ``--chaos`` (a seeded fault plan with invariant auditing).
* ``compare`` — baseline vs a set of techniques on one benchmark.
* ``figure`` — regenerate one of the paper's figures/tables by name.
* ``sweep`` — run a config x benchmark matrix, optionally in parallel
  (``--sample N`` runs a seeded random subset of the matrix).
* ``explore`` — successive-halving design-space exploration over a
  serialized SearchSpace: cheap truncated/reduced-scale rungs first,
  full fidelity for finalists, Pareto front of cycles vs the area
  model, crash-safe resume from a state file.
* ``report`` — statistical experiment report over a result store:
  per-cell medians with bootstrap CIs, geomean speedup vs a baseline,
  BH-corrected significance, markdown + HTML output, and an
  ``--against OLD`` snapshot diff that exits 1 on regressions.
* ``serve`` — run the simulation-as-a-service daemon on a unix socket
  (and, with ``--tcp``, a fleet transport for remote workers/clients).
* ``worker`` — run fleet worker host(s) pulling leased jobs from a
  scheduler (``--count N`` or ``REPRO_WORKERS`` for a local pool).
* ``submit`` — submit one job to a running daemon (optionally waiting).
* ``jobs`` — list a running daemon's jobs, or its stats with ``--stats``.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import os
import pstats
import sys
from pathlib import Path
from typing import Callable, Sequence

from repro.analysis import (
    AnalysisError,
    ResultSet,
    analyze,
    diff_resultsets,
    format_table,
    render_html,
    render_markdown,
)
from repro.analysis.experiment import DEFAULT_DIFF_TOLERANCE
from repro.analysis.resultset import DEFAULT_METRIC_NAMES
from repro.analysis.stat_tests import DEFAULT_ALPHA
from repro.config import DEFAULT_CONFIGS, GPUConfig, baseline_config
from repro.gpu.gpu import GPUSimulator
from repro.harness import experiments
from repro.harness.pool import SweepPoint, matrix_points
from repro.harness.runner import Runner, build_workload, default_runner
from repro.harness.store import fingerprint_digest
from repro.harness.supervised import SupervisionPolicy, run_supervised
from repro.obs import (
    DEFAULT_SAMPLE_INTERVAL,
    NULL_METRICS,
    NULL_TRACE,
    WALK_COMPONENTS,
    MetricsRegistry,
    Observability,
    TraceRecorder,
    validate_chrome_trace,
)
from repro.obs.profile import REPRO_ROOT, package_of, package_self_times
from repro.workloads.catalog import ALL_ABBRS, CATALOG, get_spec

#: Named configurations selectable from the command line — the shared
#: :class:`~repro.config.ConfigRegistry`, so anything registered there
#: (including from user scripts) is selectable here too.
CONFIGS = DEFAULT_CONFIGS

#: Figure/table experiments runnable by name.
EXPERIMENTS: dict[str, Callable[..., experiments.ExperimentTable]] = {
    "fig3": experiments.fig03_access_patterns,
    "fig4": experiments.fig04_microbench,
    "fig5": experiments.fig05_ptw_scaling,
    "fig6": experiments.fig06_prior_techniques,
    "fig7": experiments.fig07_latency_breakdown,
    "fig8": experiments.fig08_stall_breakdown,
    "fig12": experiments.fig12_ptw_mshr_scaling,
    "fig15": experiments.fig15_area_tradeoff,
    "fig16": experiments.fig16_overall_speedup,
    "fig17": experiments.fig17_mshr_failures,
    "fig18": experiments.fig18_walk_latency,
    "fig19": experiments.fig19_stall_reduction,
    "fig20": experiments.fig20_l2_miss_rate,
    "fig21": experiments.fig21_iso_area,
    "fig22": experiments.fig22_l2tlb_latency,
    "fig23": experiments.fig23_pt_latency,
    "fig24": experiments.fig24_intlb_capacity,
    "fig25": experiments.fig25_large_pages,
    "fig26": experiments.fig26_distributor,
    "ext-baselines": experiments.extension_baselines,
    "ablation-scheduling": experiments.ablation_pwb_scheduling,
    "ablation-lockstep": experiments.ablation_simt_lockstep,
    "ablation-pwc": experiments.ablation_pwc_depth,
    "table1": experiments.table1_comparison,
    "table3": experiments.table3_configuration,
    "table4": experiments.table4_catalog,
    "sec5.2": experiments.sec52_hardware_overhead,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SoftWalker (MICRO 2025) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark catalog")

    sub.add_parser("configs", help="list the named-configuration registry")

    run_parser = sub.add_parser(
        "run", help="simulate one benchmark, optionally instrumented"
    )
    run_parser.add_argument("benchmark", choices=ALL_ABBRS)
    run_parser.add_argument(
        "--config",
        default="baseline",
        help=(
            "configuration name (see `repro configs`) or @file.json "
            "with an inline config dict"
        ),
    )
    run_parser.add_argument(
        "--scale", type=float, help="trace scale (default: REPRO_SCALE or 1.0)"
    )
    run_parser.add_argument(
        "--seed", type=int, help="workload seed (default: the catalog seed)"
    )
    run_parser.add_argument(
        "--trace", metavar="OUT", help="record the run as Chrome trace JSON"
    )
    run_parser.add_argument(
        "--jsonl", metavar="PATH", help="with --trace: also write JSON lines"
    )
    run_parser.add_argument(
        "--metrics", metavar="OUT", help="sample time-series gauges into JSON"
    )
    run_parser.add_argument(
        "--interval", type=int, default=DEFAULT_SAMPLE_INTERVAL,
        help="with --metrics: sample interval in cycles",
    )
    run_parser.add_argument(
        "--profile", metavar="OUT", help="run under cProfile, dump pstats here"
    )
    run_parser.add_argument(
        "--top", type=int, default=15, help="with --profile: functions to print"
    )
    run_parser.add_argument(
        "--chaos", nargs="?", const="0", metavar="SEED|@plan.json",
        help="inject the default fault plan under SEED (bare: 0) or a JSON plan",
    )
    run_parser.add_argument(
        "--audit-every", type=int, default=2000,
        help="with --chaos: events between invariant audits",
    )

    compare_parser = sub.add_parser("compare", help="compare techniques")
    compare_parser.add_argument("benchmark", choices=ALL_ABBRS)
    compare_parser.add_argument("--scale", type=float, default=0.5)

    figure_parser = sub.add_parser("figure", help="regenerate a paper figure")
    figure_parser.add_argument("name", choices=sorted(EXPERIMENTS))
    figure_parser.add_argument("--scale", type=float, default=None)
    figure_parser.add_argument(
        "--save", metavar="DIR", help="also write the table under DIR"
    )
    figure_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="sweep worker processes (default: REPRO_JOBS or 1)",
    )

    sweep_parser = sub.add_parser(
        "sweep", help="run a config x benchmark matrix, optionally in parallel"
    )
    sweep_parser.add_argument(
        "--configs",
        default="baseline,softwalker",
        help=(
            "comma-separated configuration names (see `repro configs`); "
            "a @file.json token loads an inline config dict"
        ),
    )
    sweep_parser.add_argument(
        "--benchmarks",
        default=",".join(ALL_ABBRS),
        help="comma-separated benchmark abbreviations (default: all)",
    )
    sweep_parser.add_argument("--scale", type=float, default=None)
    sweep_parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="workload seed (also seeds --sample selection)",
    )
    sweep_parser.add_argument(
        "--sample",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run only a seeded random subset of N matrix points "
            "(deterministic in --seed; same sampler as `repro explore`)"
        ),
    )
    sweep_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="sweep worker processes (default: REPRO_JOBS or 1)",
    )
    sweep_parser.add_argument(
        "--store",
        metavar="DIR",
        help="persistent result store directory (default: REPRO_STORE)",
    )

    explore_parser = sub.add_parser(
        "explore",
        help=(
            "successive-halving design-space exploration over a "
            "SearchSpace, emitting a Pareto front vs the area model"
        ),
    )
    explore_parser.add_argument(
        "--space",
        required=True,
        metavar="@FILE",
        help="search-space JSON (see docs/explore.md for the format)",
    )
    explore_parser.add_argument(
        "--benchmarks",
        default="dc",
        help="comma-separated benchmark abbreviations (default: dc)",
    )
    explore_parser.add_argument(
        "--seeds",
        default="0",
        help="comma-separated workload seed replicates (default: 0)",
    )
    explore_parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="full-fidelity trace scale; rungs run fractions of it",
    )
    explore_parser.add_argument(
        "--rungs",
        default="0.25:0.34,0.5:0.5,1",
        help=(
            "halving ladder as scale[:keep[:max_events]],... — the last "
            "rung must be full fidelity (scale 1)"
        ),
    )
    explore_parser.add_argument(
        "--sample",
        type=int,
        default=None,
        metavar="N",
        help="search only a seeded subset of N candidates",
    )
    explore_parser.add_argument(
        "--search-seed",
        type=int,
        default=0,
        help="seed for --sample subset selection",
    )
    explore_parser.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        help="near-tie promotion tolerance (relative, e.g. 0.02)",
    )
    explore_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="sweep worker processes (default: REPRO_JOBS or 1)",
    )
    explore_parser.add_argument(
        "--store",
        metavar="DIR",
        help="persistent result store directory (default: REPRO_STORE)",
    )
    explore_parser.add_argument(
        "--out",
        default="explore.json",
        help="artifact JSON output path (default: explore.json)",
    )
    explore_parser.add_argument(
        "--report",
        metavar="PATH",
        help="write the markdown report here (an .html twin rides along)",
    )
    explore_parser.add_argument(
        "--html", metavar="PATH", help="write the HTML report here"
    )
    explore_parser.add_argument(
        "--state",
        metavar="PATH",
        help="explore-state file for crash-safe resume (default: OUT.state.json)",
    )
    explore_parser.add_argument(
        "--fresh",
        action="store_true",
        help="ignore any existing state file and restart the search",
    )

    report_parser = sub.add_parser(
        "report",
        help="statistical experiment report over a result store",
    )
    report_parser.add_argument(
        "--store",
        metavar="DIR",
        help="result store directory to report on (default: REPRO_STORE)",
    )
    report_parser.add_argument(
        "--files",
        metavar="PATH",
        nargs="+",
        help="load these result/store-entry JSON files instead of a store",
    )
    report_parser.add_argument(
        "--baseline",
        metavar="CONFIG",
        help='baseline config label (default: "baseline" when present)',
    )
    report_parser.add_argument(
        "--metrics",
        metavar="CSV",
        help=(
            "comma-separated metric names "
            f"(default: {','.join(DEFAULT_METRIC_NAMES)})"
        ),
    )
    report_parser.add_argument(
        "--alpha",
        type=float,
        default=DEFAULT_ALPHA,
        help="significance level after BH correction",
    )
    report_parser.add_argument(
        "--out",
        metavar="PATH",
        help="write the markdown report here (an .html twin rides along)",
    )
    report_parser.add_argument(
        "--html", metavar="PATH", help="write the HTML report here"
    )
    report_parser.add_argument(
        "--against",
        metavar="OLD",
        help=(
            "diff this store against OLD store snapshot; "
            "exits 1 on significant regressions or missing cells"
        ),
    )
    report_parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_DIFF_TOLERANCE,
        help="relative movement tolerated before a significant cell regresses",
    )

    serve_parser = sub.add_parser(
        "serve", help="run the simulation service daemon on a unix socket"
    )
    serve_parser.add_argument(
        "--socket", metavar="PATH", help="unix socket path (default: REPRO_SOCKET)"
    )
    serve_parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="local worker hosts to fork (0 = pure scheduler for remote workers)",
    )
    serve_parser.add_argument(
        "--max-depth", type=int, default=None, help="queued-job admission bound"
    )
    serve_parser.add_argument(
        "--max-client-depth",
        type=int,
        default=None,
        help="per-client queued-job admission bound",
    )
    serve_parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="per-job wall-clock limit in seconds; an overrun job ends "
        "once, with its partial result (default: none)",
    )
    serve_parser.add_argument(
        "--drain-grace",
        type=float,
        default=None,
        help="seconds in-flight jobs get to finish on SIGTERM",
    )
    serve_parser.add_argument(
        "--store",
        metavar="DIR",
        help="persistent result store directory (default: REPRO_STORE)",
    )
    serve_parser.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        help="also listen on TCP for fleet workers and remote clients",
    )
    serve_parser.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        help="seconds a dispatch lease lives without a heartbeat",
    )
    serve_parser.add_argument(
        "--attempt-budget",
        type=int,
        default=None,
        help="crashed dispatches before a job is dead-lettered",
    )
    serve_parser.add_argument(
        "--store-budget",
        type=int,
        default=None,
        help="result-store size budget in bytes (oldest entries evicted)",
    )
    serve_parser.add_argument(
        "--client-rate",
        type=float,
        default=None,
        help="per-client submissions/second admission rate limit",
    )

    worker_parser = sub.add_parser(
        "worker", help="run fleet worker host(s) pulling jobs from a scheduler"
    )
    worker_parser.add_argument(
        "--connect",
        metavar="ADDR",
        help=(
            "scheduler address: unix socket path or host:port "
            "(default: REPRO_SOCKET)"
        ),
    )
    worker_parser.add_argument(
        "--id", dest="worker_id", help="worker id (default: generated, embeds pid)"
    )
    worker_parser.add_argument(
        "--count",
        type=int,
        default=None,
        help="worker host processes to run (default: REPRO_WORKERS or 1)",
    )
    worker_parser.add_argument(
        "--poll-interval",
        type=float,
        default=None,
        help="seconds between idle polls (default: the scheduler's knob)",
    )
    worker_parser.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="exit after processing this many dispatches",
    )

    submit_parser = sub.add_parser(
        "submit", help="submit one job to a running service daemon"
    )
    submit_parser.add_argument("benchmark", choices=ALL_ABBRS)
    submit_parser.add_argument(
        "--config",
        default="baseline",
        help=(
            "configuration name (see `repro configs`) or @file.json "
            "with an inline config dict (sent by value, deduped by "
            "fingerprint against named submissions)"
        ),
    )
    submit_parser.add_argument("--scale", type=float, default=1.0)
    submit_parser.add_argument("--footprint-scale", type=float, default=1.0)
    submit_parser.add_argument("--seed", type=int, default=None)
    submit_parser.add_argument(
        "--priority", choices=("high", "normal", "low"), default="normal"
    )
    submit_parser.add_argument(
        "--socket", metavar="PATH", help="unix socket path (default: REPRO_SOCKET)"
    )
    submit_parser.add_argument(
        "--wait", action="store_true", help="block until the job settles"
    )
    submit_parser.add_argument(
        "--stream",
        action="store_true",
        help="with --wait: also print each progress heartbeat",
    )
    submit_parser.add_argument(
        "--retries",
        type=int,
        default=None,
        help=(
            "retry transient refusals (429/503, connection errors) up to "
            "N extra times with jittered exponential backoff"
        ),
    )

    jobs_parser = sub.add_parser(
        "jobs", help="list a running daemon's jobs (or --stats)"
    )
    jobs_parser.add_argument(
        "--socket", metavar="PATH", help="unix socket path (default: REPRO_SOCKET)"
    )
    jobs_parser.add_argument(
        "--stats", action="store_true", help="print service stats instead"
    )
    return parser


def resolve_config_arg(token: str) -> GPUConfig:
    """Resolve one ``--config`` token into a concrete configuration.

    ``@path.json`` loads an inline config dict (any subset of
    ``GPUConfig.to_dict()`` keys); anything else is a registry name.
    Raises KeyError / OSError / ValueError with a printable message.
    """
    if token.startswith("@"):
        import json

        with open(token[1:]) as handle:
            return GPUConfig.from_dict(json.load(handle))
    return CONFIGS.get(token)


def _usage_error(failure: BaseException) -> int:
    """Print ``failure`` (without KeyError's repr-quoting); exit code 2."""
    if isinstance(failure, KeyError) and failure.args:
        failure = failure.args[0]
    print(f"error: {failure}", file=sys.stderr)
    return 2


def cmd_list() -> int:
    rows = [
        [spec.abbr, spec.category, spec.footprint_mb, spec.pattern, spec.paper_mpki]
        for spec in CATALOG.values()
    ]
    print(
        format_table(
            ["abbr", "category", "footprint (MB)", "pattern", "paper MPKI"],
            rows,
            title="Benchmark catalog (Table 4)",
        )
    )
    return 0


def cmd_configs() -> int:
    rows = [
        [variant.name, variant.description]
        for variant in CONFIGS.variants()
    ]
    print(
        format_table(
            ["name", "description"],
            rows,
            title="Configuration registry",
        )
    )
    return 0


def _resolve_chaos_arg(token: str):
    """``@plan.json`` loads a ``FaultPlan``; any other token seeds the
    default chaos plan.  Raises with a printable message."""
    from repro.resilience import FaultPlan, default_chaos_plan

    if token.startswith("@"):
        with open(token[1:], encoding="utf-8") as handle:
            return FaultPlan.from_json(handle.read())
    return default_chaos_plan(seed=int(token))


def cmd_run(
    benchmark: str,
    config: str,
    scale: float | None,
    seed: int | None,
    trace: str | None,
    jsonl: str | None,
    metrics: str | None,
    interval: int,
    profile: str | None,
    top: int,
    chaos: str | None,
    audit_every: int,
) -> int:
    """One supervised simulation with the requested instruments on it."""
    from repro.resilience import InvariantViolation

    for flag, value in (
        ("--interval", interval), ("--audit-every", audit_every), ("--top", top)
    ):
        if value < 1:
            print(f"error: {flag} must be >= 1, got {value}", file=sys.stderr)
            return 2
    if jsonl and not trace:
        print("error: --jsonl needs --trace", file=sys.stderr)
        return 2
    try:
        gpu_config = resolve_config_arg(config)
        plan = _resolve_chaos_arg(chaos) if chaos is not None else None
    except (AttributeError, KeyError, OSError, TypeError, ValueError) as failure:
        return _usage_error(failure)
    obs = Observability(
        trace=TraceRecorder() if trace else NULL_TRACE,
        metrics=MetricsRegistry() if metrics else NULL_METRICS,
        sample_interval=interval,
    )

    def make_sim() -> GPUSimulator:
        workload = build_workload(benchmark, gpu_config, scale=scale, seed=seed)
        return GPUSimulator(gpu_config, workload, obs=obs)

    policy = SupervisionPolicy(audit_every=audit_every if plan is not None else 0)
    profiler = cProfile.Profile() if profile else contextlib.nullcontext()
    try:
        with profiler:
            report = run_supervised(make_sim, policy=policy, plan=plan)
    except InvariantViolation as violation:
        print(f"INVARIANT VIOLATION\n{violation}", file=sys.stderr)
        return 1
    result = report.result
    spec = get_spec(benchmark)
    rows = [
        ["cycles", result.cycles],
        ["instructions", result.instructions],
        ["walks completed", result.walks_completed],
        ["L2 TLB MPKI", result.l2_tlb_mpki],
        ["mean walk latency", result.walk_latency],
        ["  queueing", result.walk_queueing],
        ["  access", result.walk_access],
        ["  SW overhead", result.walk_overhead],
        ["MSHR failures", result.mshr_failures],
        ["stall fraction", result.stall_fraction],
        ["L2D miss rate", result.l2_cache_miss_rate],
    ]
    title = f"{spec.name} ({spec.category}) under {config}"
    tables = [format_table(["metric", "value"], rows, title=title)]
    wrote = []
    if trace:
        validate_chrome_trace(obs.trace.chrome_trace())
        path = obs.trace.write_chrome(trace)
        wrote.append(f"{path} — open in chrome://tracing or https://ui.perfetto.dev")
        if jsonl:
            wrote.append(obs.trace.write_jsonl(jsonl))
        tables.append(_trace_table(obs.trace, result))
    if metrics:
        wrote.append(obs.metrics.write_json(metrics))
        tables.append(_metrics_table(obs.metrics, interval))
    if plan is not None:
        tables.append(_chaos_table(report, plan.seed, audit_every))
    if profile:
        profiler.dump_stats(profile)
        wrote.append(f"{profile} (load it with pstats.Stats)")
        tables.extend(_profile_tables(pstats.Stats(profiler), result, top))
    print("\n\n".join(tables))
    if wrote:
        print("\n" + "\n".join(f"wrote {line}" for line in wrote))
    return 0


def _trace_table(recorder: TraceRecorder, result) -> str:
    """The trace-derived walk breakdown beside the LatencyTracker
    aggregates (the Figure 7 components): the two columns must match."""
    spans = recorder.span_durations("walk.")
    shares = result.stats.latency("walk").component_shares()
    total = sum(spans.values()) or 1
    rows = []
    for part in WALK_COMPONENTS:
        from_trace = spans.get(f"walk.{part}", 0) / total
        rows.append([part, f"{from_trace:.1%}", f"{shares.get(part, 0.0):.1%}"])
    return format_table(
        ["walk component", "share (trace)", "share (aggregate)"],
        rows,
        title=f"trace: {recorder.num_events} events",
    )


def _metrics_table(registry: MetricsRegistry, interval: int) -> str:
    rows = [
        [name, f"{registry.mean(name):.2f}", f"{registry.peak(name):.2f}"]
        for name in registry.gauge_names()
    ]
    title = f"metrics: {registry.samples_taken} samples every {interval} cycles"
    return format_table(["gauge", "mean", "peak"], rows, title=title)


def _chaos_table(report, plan_seed: int, audit_every: int) -> str:
    result = report.result
    counters = result.stats.counters.as_dict()
    rows = [
        ["replay seed", result.seed],
        ["complete", result.complete],
        ["faults injected", report.faults_injected],
        ["invariant audits", report.audits],
        ["invariant violations", 0],
        ["far faults recorded", counters.get("faults.recorded", 0)],
        ["delayed completions", counters.get("chaos.delayed_completions", 0)],
    ]
    rows.extend(
        [f"  {name.removeprefix('chaos.injected.')}", count]
        for name, count in sorted(counters.items())
        if name.startswith("chaos.injected.")
    )
    title = f"chaos: plan seed {plan_seed}, audit every {audit_every} events"
    return format_table(["chaos", "value"], rows, title=title)


def _profile_tables(stats: pstats.Stats, result, top: int) -> list[str]:
    """Self time per ``repro`` package, then the ``top`` hottest functions."""
    by_package = package_self_times(stats)
    total = sum(by_package.values()) or 1.0
    packages = [
        [package, f"{seconds:.3f}", f"{seconds / total:.1%}"]
        for package, seconds in by_package.items()
    ]
    hottest = sorted(stats.stats.items(), key=lambda item: item[1][2], reverse=True)
    functions = []
    for (filename, line, name), (_prim, calls, tottime, cumtime, _) in hottest[:top]:
        if package_of(filename) == "other":
            site = pstats.func_std_string((filename, line, name))
        else:
            where = os.path.relpath(os.path.realpath(filename), REPRO_ROOT)
            site = f"{where}:{line}({name})"
        functions.append([site, f"{calls:,}", f"{tottime:.3f}", f"{cumtime:.3f}"])
    title = (
        f"profile: {result.perf['events']:,} events, {result.cycles:,} cycles, "
        f"{total:.2f}s self time under cProfile"
    )
    return [
        format_table(["package", "self s", "share"], packages, title=title),
        format_table(
            ["function", "calls", "self s", "cumulative s"],
            functions,
            title=f"top {top} functions by self time",
        ),
    ]


def cmd_compare(benchmark: str, scale: float) -> int:
    runner = default_runner()
    base = runner.run_cached(baseline_config(), benchmark, scale=scale)
    rows = [["baseline", base.cycles, "1.00x", f"{base.queueing_fraction:.0%}"]]
    for name in ("nha", "fshpt", "softwalker", "hybrid", "ideal"):
        result = runner.run_cached(CONFIGS[name](), benchmark, scale=scale)
        rows.append(
            [
                name,
                result.cycles,
                f"{result.speedup_over(base):.2f}x",
                f"{result.queueing_fraction:.0%}",
            ]
        )
    print(
        format_table(
            ["configuration", "cycles", "speedup", "walk queueing share"],
            rows,
            title=f"Technique comparison on {benchmark}",
        )
    )
    return 0


def cmd_figure(
    name: str, scale: float | None, save: str | None, jobs: int | None = None
) -> int:
    experiment = EXPERIMENTS[name]
    if jobs is not None:
        default_runner().jobs = jobs
    kwargs = {}
    if scale is not None and "scale" in experiment.__code__.co_varnames:
        kwargs["scale"] = scale
    table = experiment(**kwargs)
    print(table.render())
    if save:
        path = table.save(save)
        print(f"\nsaved to {path}")
    return 0


def cmd_sweep(
    configs: str,
    benchmarks: str,
    scale: float | None,
    seed: int | None,
    jobs: int | None,
    store: str | None,
    sample: int | None = None,
) -> int:
    config_names = [name.strip() for name in configs.split(",") if name.strip()]
    benchmark_names = [
        name.strip() for name in benchmarks.split(",") if name.strip()
    ]
    resolved: dict[str, GPUConfig] = {}
    for token in config_names:
        try:
            resolved[token] = resolve_config_arg(token)
        except (KeyError, OSError, ValueError) as failure:
            return _usage_error(failure)
    unknown = [name for name in benchmark_names if name not in ALL_ABBRS]
    if unknown:
        print(
            f"error: unknown benchmark(s) {', '.join(unknown)} — "
            "see `repro list`",
            file=sys.stderr,
        )
        return 2

    runner = Runner(store=store) if store else default_runner()
    if jobs is not None:
        runner.jobs = jobs
    points = matrix_points(
        resolved.values(), benchmark_names, scale=scale, seed=seed
    )
    selected = list(range(len(points)))
    if sample is not None:
        from repro.explore import seeded_sample

        try:
            selected = seeded_sample(
                selected, sample, seed if seed is not None else 0,
                salt="sweep.sample",
            )
        except ValueError as failure:
            print(f"error: {failure}", file=sys.stderr)
            return 2
    # First label wins for points shared between equal configurations.
    names: dict[SweepPoint, str] = {}
    for index, point in enumerate(points):
        names.setdefault(point, config_names[index % len(config_names)])

    def progress(point: SweepPoint, status: str, done: int, total: int) -> None:
        print(f"[{done}/{total}] {names[point]}/{point.label()} — {status}")

    by_point = runner.sweep([points[i] for i in selected], progress=progress)

    rows = []
    for index in selected:
        point = points[index]
        label = config_names[index % len(config_names)]
        result = by_point[point]
        # The baseline cell may not be in a sampled subset.
        base = by_point.get(points[(index // len(config_names)) * len(config_names)])
        rows.append(
            [
                label,
                point.benchmark,
                result.cycles,
                f"{result.speedup_over(base):.2f}x" if base is not None else "-",
                fingerprint_digest(result)[:12],
            ]
        )
    title = (
        f"sweep: {len(config_names)} configs x "
        f"{len(benchmark_names)} benchmarks, jobs={runner.jobs}"
    )
    if sample is not None:
        title += f" (sampled {len(selected)}/{len(points)} points)"
    print(
        format_table(
            ["configuration", "benchmark", "cycles", "speedup", "fingerprint"],
            rows,
            title=title,
        )
    )
    info = runner.cache_info()
    line = (
        f"\ncache: {info['simulations']} simulations, "
        f"{info['hits']} memory hits, {info['disk_hits']} disk hits"
    )
    if info["store_path"]:
        line += (
            f", store={info['store_path']} "
            f"({info['disk_entries']} entries, {info['disk_bytes']} bytes"
            + (
                f", {info['disk_evictions']} corrupt entries evicted"
                if info["disk_evictions"]
                else ""
            )
            + ")"
        )
    print(line)
    return 0


def cmd_explore(
    space: str,
    benchmarks: str,
    seeds: str,
    scale: float,
    rungs: str,
    sample: int | None,
    search_seed: int,
    tolerance: float,
    jobs: int | None,
    store: str | None,
    out: str,
    report: str | None,
    html: str | None,
    state: str | None,
    fresh: bool,
) -> int:
    from repro.explore import (
        ExploreError,
        ExploreOptions,
        artifact_json,
        explore_html,
        explore_markdown,
        load_space,
        parse_rungs,
        run_explore,
    )

    benchmark_names = [b.strip() for b in benchmarks.split(",") if b.strip()]
    unknown = [name for name in benchmark_names if name not in ALL_ABBRS]
    if unknown:
        print(
            f"error: unknown benchmark(s) {', '.join(unknown)} — "
            "see `repro list`",
            file=sys.stderr,
        )
        return 2
    try:
        replicates = tuple(
            None if token.lower() == "none" else int(token)
            for token in (t.strip() for t in seeds.split(","))
            if token
        )
        search_space = load_space(space)
        options = ExploreOptions(
            benchmarks=tuple(benchmark_names),
            seeds=replicates,
            scale=scale,
            rungs=parse_rungs(rungs),
            sample=sample,
            search_seed=search_seed,
            tolerance=tolerance,
        )
    except (ExploreError, KeyError, OSError, ValueError) as failure:
        return _usage_error(failure)

    runner = Runner(store=store) if store else default_runner()
    if jobs is not None:
        runner.jobs = jobs
    state_path = state if state is not None else f"{out}.state.json"

    def progress(point: SweepPoint, status: str, done: int, total: int) -> None:
        print(f"  [{done}/{total}] {point.label()} — {status}")

    try:
        artifact = run_explore(
            search_space,
            options,
            runner=runner,
            jobs=jobs,
            state_path=state_path,
            fresh=fresh,
            log=print,
            progress=progress,
        )
    except (ExploreError, KeyError, ValueError) as failure:
        return _usage_error(failure)

    Path(out).write_text(artifact_json(artifact), encoding="utf-8")

    knee = artifact.get("knee") or {}
    knee_id = knee.get("candidate")
    rows = [
        [
            point["candidate"],
            ", ".join(
                f"{path}={value}"
                for path, value in sorted(point["assignment"].items())
            )
            or "(base)",
            f"{point['performance']:.6g}",
            f"{point['cost']:.4g}",
            "knee" if point["candidate"] == knee_id else "",
        ]
        for point in artifact["pareto_front"]
    ]
    print(
        format_table(
            ["candidate", "assignment", "performance", "relative area", ""],
            rows,
            title=(
                f"Pareto front: {len(artifact['candidates'])} candidates "
                f"searched over {len(artifact['rungs'])} rungs"
            ),
        )
    )
    budget = artifact["budget"]
    print(
        f"\nsimulated {budget['spent_cycles']} cycles "
        f"(exhaustive grid estimate {budget['exhaustive_estimate_cycles']:.6g}, "
        f"{budget['savings_fraction']:.0%} saved)"
    )
    print(f"wrote {out}")

    markdown_path = report
    html_path = html
    if markdown_path and not html_path:
        html_path = str(Path(markdown_path).with_suffix(".html"))
    if markdown_path:
        Path(markdown_path).write_text(
            explore_markdown(artifact), encoding="utf-8"
        )
        print(f"wrote {markdown_path}")
    if html_path:
        Path(html_path).write_text(explore_html(artifact), encoding="utf-8")
        print(f"wrote {html_path}")
    return 0


def _load_resultset(
    store: str | None, files: Sequence[str] | None, *, what: str
) -> ResultSet:
    """Resolve a ``--store DIR`` / ``--files ...`` pair into a ResultSet."""
    if files:
        return ResultSet.from_files(files, source=f"{len(files)} file(s)")
    if store is None:
        from repro.harness.store import default_store_path

        store = default_store_path()
    if store is None:
        raise AnalysisError(
            f"no {what} given: pass --store DIR, --files PATH..., "
            "or set REPRO_STORE"
        )
    resultset = ResultSet.from_store(store)
    if not resultset:
        raise AnalysisError(f"{what} store {store!r} holds no healthy entries")
    return resultset


def cmd_report(
    store: str | None,
    files: Sequence[str] | None,
    baseline: str | None,
    metrics: str | None,
    alpha: float,
    out: str | None,
    html: str | None,
    against: str | None,
    threshold: float,
) -> int:
    metric_names = (
        [name.strip() for name in metrics.split(",") if name.strip()]
        if metrics
        else None
    )
    try:
        resultset = _load_resultset(store, files, what="report")
        analysis = analyze(
            resultset, baseline=baseline, metrics=metric_names, alpha=alpha
        )
        diff = None
        if against:
            old_set = _load_resultset(against, None, what="--against")
            diff = diff_resultsets(
                old_set,
                resultset,
                metrics=metric_names,
                alpha=alpha,
                tolerance=threshold,
            )
    except (AnalysisError, KeyError, OSError, ValueError) as failure:
        return _usage_error(failure)

    print(resultset.describe())
    print(
        f"baseline={analysis.baseline}, alpha={alpha:g}, "
        f"metrics={','.join(m.name for m in analysis.metrics)}"
    )
    if analysis.rankings:
        rows = [
            [position + 1, r.config, f"{r.geomean_speedup:.3f}x", r.benchmarks]
            for position, r in enumerate(analysis.rankings)
        ]
        print(
            format_table(
                ["rank", "config", "geomean speedup", "benchmarks"],
                rows,
                title=f"design ranking vs {analysis.baseline}",
            )
        )
    if analysis.comparisons:
        rows = [
            [
                c.key.config,
                c.key.benchmark,
                c.metric,
                f"{c.ratio:.3f}" if c.ratio is not None else "-",
                f"{c.q_value:.3g}" if c.q_value is not None else "-",
                c.verdict,
            ]
            for c in analysis.comparisons
        ]
        print(
            format_table(
                ["config", "benchmark", "metric", "ratio", "q (BH)", "verdict"],
                rows,
                title="significance vs baseline (Mann-Whitney U, BH-corrected)",
            )
        )

    markdown_path = out
    html_path = html
    if markdown_path and not html_path:
        html_path = str(Path(markdown_path).with_suffix(".html"))
    if markdown_path:
        Path(markdown_path).write_text(
            render_markdown(analysis, diff=diff), encoding="utf-8"
        )
        print(f"\nwrote {markdown_path}")
    if html_path:
        Path(html_path).write_text(
            render_html(analysis, diff=diff), encoding="utf-8"
        )
        print(f"wrote {html_path}")

    if diff is None:
        return 0
    rows = [
        [
            str(cell.key),
            cell.metric,
            cell.old_median if cell.old_median is not None else "-",
            cell.new_median if cell.new_median is not None else "-",
            f"{cell.ratio:.3f}" if cell.ratio is not None else "-",
            f"{cell.q_value:.3g}" if cell.q_value is not None else "-",
            cell.verdict,
            cell.note,
        ]
        for cell in diff.cells
    ]
    print(
        format_table(
            ["cell", "metric", "old", "new", "ratio", "q (BH)", "verdict", "note"],
            rows,
            title=f"snapshot diff vs {against}",
        )
    )
    print(f"\n{diff.summary()}")
    if not diff.passed:
        failed = sorted(
            {f"{cell.key} ({cell.metric})" for cell in diff.cells if cell.failed}
        )
        print("regressed/missing cells: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def cmd_serve(
    socket: str | None,
    max_inflight: int | None,
    max_depth: int | None,
    max_client_depth: int | None,
    job_timeout: float | None,
    drain_grace: float | None,
    store: str | None,
    tcp: str | None = None,
    lease_ttl: float | None = None,
    attempt_budget: int | None = None,
    store_budget: int | None = None,
    client_rate: float | None = None,
) -> int:
    import asyncio
    import logging

    from repro.config import ServiceConfig
    from repro.service.server import run_server

    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(levelname)s %(name)s: %(message)s"
    )
    overrides: dict = {}
    if socket is not None:
        overrides["socket_path"] = socket
    if max_inflight is not None:
        overrides["max_inflight"] = max_inflight
    if max_depth is not None:
        overrides["max_depth"] = max_depth
    if max_client_depth is not None:
        overrides["max_client_depth"] = max_client_depth
    if job_timeout is not None:
        overrides["job_timeout"] = job_timeout
    if drain_grace is not None:
        overrides["drain_grace"] = drain_grace
    if tcp is not None:
        overrides["tcp"] = tcp
    if lease_ttl is not None:
        overrides["lease_ttl"] = lease_ttl
    if attempt_budget is not None:
        overrides["attempt_budget"] = attempt_budget
    if store_budget is not None:
        overrides["store_budget"] = store_budget
    if client_rate is not None:
        overrides["client_rate"] = client_rate
    config = ServiceConfig.from_env(**overrides)
    try:
        return asyncio.run(run_server(config, store=store))
    except KeyboardInterrupt:  # pragma: no cover - interactive ^C
        return 0


def _worker_entry(
    address: str, poll_interval: float | None, max_jobs: int | None
) -> None:
    """Entry point of one forked worker host (``repro worker --count N``)."""
    import logging

    from repro.service.worker import run_worker

    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(levelname)s %(name)s: %(message)s"
    )
    raise SystemExit(
        run_worker(address, poll_interval=poll_interval, max_jobs=max_jobs)
    )


def cmd_worker(
    connect: str | None,
    worker_id: str | None,
    count: int | None,
    poll_interval: float | None,
    max_jobs: int | None,
) -> int:
    import logging

    from repro.config import default_socket_path, default_worker_count
    from repro.service.worker import run_worker

    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(levelname)s %(name)s: %(message)s"
    )
    address = connect or default_socket_path()
    try:
        hosts = count if count is not None else default_worker_count()
    except ValueError as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 2
    if hosts < 1:
        print(f"error: --count must be >= 1, got {hosts}", file=sys.stderr)
        return 2
    if hosts == 1:
        return run_worker(
            address,
            worker_id=worker_id,
            poll_interval=poll_interval,
            max_jobs=max_jobs,
        )
    if worker_id is not None:
        print("error: --id only makes sense with --count 1", file=sys.stderr)
        return 2
    import signal as signal_module

    from repro.harness.pool import pool_context

    ctx = pool_context()
    procs = [
        ctx.Process(
            target=_worker_entry, args=(address, poll_interval, max_jobs)
        )
        for _ in range(hosts)
    ]
    for proc in procs:
        proc.start()

    def forward(_sig, _frame) -> None:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()  # SIGTERM: each host finishes its job first

    for sig in (signal_module.SIGTERM, signal_module.SIGINT):
        signal_module.signal(sig, forward)
    code = 0
    for proc in procs:
        proc.join()
        code = max(code, proc.exitcode or 0)
    return code


def cmd_submit(
    benchmark: str,
    config: str,
    scale: float,
    footprint_scale: float,
    seed: int | None,
    priority: str,
    socket: str | None,
    wait: bool,
    stream: bool,
    retries: int | None = None,
) -> int:
    from repro.service import (
        Backpressure,
        JobSpec,
        RetryPolicy,
        ServiceClient,
        ServiceError,
    )

    job_config: str | GPUConfig = config
    if config.startswith("@"):
        # Inline configs travel by value; named ones stay a small
        # registry-name string for the server to resolve.
        try:
            job_config = resolve_config_arg(config)
        except (OSError, ValueError) as failure:
            return _usage_error(failure)
    spec = JobSpec(
        benchmark=benchmark,
        config=job_config,
        scale=scale,
        footprint_scale=footprint_scale,
        seed=seed,
        priority=priority,
    )
    retry = None
    if retries is not None and retries > 0:
        retry = RetryPolicy(attempts=retries + 1)
    client = ServiceClient(socket, retry=retry)

    def on_event(event: dict) -> None:
        kind = event.get("event")
        if kind == "progress":
            gauges = event.get("gauges") or {}
            extras = "".join(
                f", {name.rsplit('.', 1)[-1]}={value:g}"
                for name, value in sorted(gauges.items())
            )
            print(
                f"  cycle {event.get('cycle')}: {event.get('events')} events, "
                f"{event.get('warps_remaining')} warps remaining{extras}"
            )
        elif kind:
            print(f"  [{kind}]")

    try:
        if wait:
            frame = client.submit(
                spec, wait=True, on_event=on_event if stream else None
            )
        else:
            frame = client.submit(spec)
    except Backpressure as refusal:
        print(
            f"refused [{refusal.code}]: {refusal.error} "
            f"(retry after ~{refusal.retry_after:g}s)",
            file=sys.stderr,
        )
        return 75  # EX_TEMPFAIL: come back later
    except (ServiceError, OSError) as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1

    if not wait:
        marker = (
            " (deduped)" if frame.get("deduped")
            else " (cached)" if frame.get("cached")
            else ""
        )
        print(f"{frame['job']} {frame['state']}{marker}")
        return 0
    if frame.get("state") != "done":
        print(
            f"{frame.get('job')} {frame.get('state')}: "
            f"{frame.get('error', 'unknown failure')}",
            file=sys.stderr,
        )
        return 1
    result = frame.get("result") or {}
    rows = [
        ["job", frame.get("job")],
        ["state", frame.get("state")],
        ["cached", "yes" if frame.get("cached") else "no"],
        ["cycles", result.get("cycles")],
        ["instructions", result.get("instructions")],
        ["complete", result.get("complete")],
        ["fingerprint", str(frame.get("digest", ""))[:16]],
    ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=f"{spec.label()} via service",
        )
    )
    return 0


def cmd_jobs(socket: str | None, stats: bool) -> int:
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(socket)
    try:
        if stats:
            frame = client.stats()
            queue = frame.get("queue") or {}
            store = frame.get("store") or {}
            rows = [
                ["uptime (s)", frame.get("uptime")],
                ["draining", frame.get("draining")],
                ["simulations run", frame.get("simulations")],
                ["jobs by state", frame.get("jobs")],
                ["queue depth", f"{queue.get('depth')}/{queue.get('max_depth')}"],
                [
                    "inflight",
                    f"{queue.get('inflight')}/{queue.get('max_inflight')}",
                ],
                ["admitted / refused", f"{queue.get('admitted')} / {queue.get('refused')}"],
                ["store entries", store.get("entries", 0)],
                ["store bytes", store.get("size_bytes", 0)],
                ["store evictions", store.get("evictions", 0)],
            ]
            fleet = frame.get("fleet") or {}
            if fleet:
                workers = fleet.get("workers") or {}
                rows.extend(
                    [
                        [
                            "fleet workers",
                            f"{sum(1 for w in workers.values() if w.get('connected'))}"
                            f"/{len(workers)} connected",
                        ],
                        ["active leases", len(fleet.get("leases") or [])],
                        ["crash requeues", fleet.get("crash_requeues", 0)],
                        ["dead letters", fleet.get("dead_letters", 0)],
                    ]
                )
            print(format_table(["stat", "value"], rows, title="service stats"))
            return 0
        jobs = client.jobs()
    except (ServiceError, OSError) as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    if not jobs:
        print("no jobs")
        return 0
    def spec_label(spec: dict) -> str:
        config = spec.get("config", "baseline")
        if isinstance(config, dict):
            config = "inline"
        return f"{config}/{spec['benchmark']}"

    rows = [
        [
            job["job"],
            job["state"],
            spec_label(job["spec"]),
            job["priority"],
            job["client"],
            "yes" if job.get("cached") else "",
            job.get("attached", 0),
            job.get("attempts", 0) or "",
            job.get("worker", "") or "",
        ]
        for job in jobs
    ]
    print(
        format_table(
            [
                "job",
                "state",
                "spec",
                "priority",
                "client",
                "cached",
                "attached",
                "crashes",
                "worker",
            ],
            rows,
            title=f"{len(jobs)} job(s)",
        )
    )
    return 0


#: Each subcommand's handler; its parameters are the subparser's options.
COMMANDS: dict[str, Callable[..., int]] = {
    "list": cmd_list,
    "configs": cmd_configs,
    "run": cmd_run,
    "compare": cmd_compare,
    "figure": cmd_figure,
    "sweep": cmd_sweep,
    "explore": cmd_explore,
    "report": cmd_report,
    "serve": cmd_serve,
    "worker": cmd_worker,
    "submit": cmd_submit,
    "jobs": cmd_jobs,
}


def main(argv: Sequence[str] | None = None) -> int:
    options = vars(build_parser().parse_args(argv))
    return COMMANDS[options.pop("command")](**options)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
