#!/usr/bin/env python3
"""Bench smoke check (the CI gate for the performance regression guard).

Enforces four invariants of the benchmarking layer:

1. The committed ``BENCH_baseline.json`` is structurally sound: schema
   version matches, the matrix covers at least 3 configs x 3
   benchmarks, and every cell carries at least 3 timed repeats.
2. Two fresh quick benches of the same matrix compare clean (no
   regression verdicts on an unchanged tree) and record bit-identical
   result fingerprints cell for cell.
3. An artificially slowed run — the ``molasses`` plugin backend, which
   sleeps on every walk without touching simulated time — is flagged as
   a regression by ``compare_reports`` while its fingerprint stays
   identical to the plain run's: the guard catches host slowdowns and
   only host slowdowns.
4. A fully instrumented run (engine profiling + metrics sampling)
   produces the exact committed golden fingerprint — instrumentation
   never changes simulation results.

Usage:
    python tools/bench_smoke.py [--scale S]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

REPO = Path(__file__).resolve().parent.parent

from repro.config import DEFAULT_CONFIGS, softwalker_config  # noqa: E402
from repro.gpu.gpu import GPUSimulator  # noqa: E402
from repro.harness.runner import build_workload  # noqa: E402
from repro.harness.store import fingerprint_digest  # noqa: E402
from repro.obs import MetricsRegistry, Observability  # noqa: E402
from repro.obs.bench import (  # noqa: E402
    BENCH_SCHEMA_VERSION,
    BenchHarness,
    BenchReport,
    compare_reports,
)


def check_committed_report(name: str) -> BenchReport:
    """Invariant 1: a committed trajectory file is structurally sound."""
    path = REPO / name
    report = BenchReport.load(path)
    if report.schema != BENCH_SCHEMA_VERSION:
        raise SystemExit(f"FAIL: {path.name} schema {report.schema}")
    configs = {cell.config for cell in report.cells}
    benchmarks = {cell.benchmark for cell in report.cells}
    if len(configs) < 3 or len(benchmarks) < 3:
        raise SystemExit(
            f"FAIL: {path.name} matrix too small "
            f"({len(configs)} configs x {len(benchmarks)} benchmarks; need 3x3)"
        )
    thin = [
        f"{c.config}/{c.benchmark}"
        for c in report.cells
        if len(c.wall_seconds) < 3
    ]
    if thin:
        raise SystemExit(f"FAIL: cells with <3 repeats: {', '.join(thin)}")
    print(
        f"ok: {path.name} — {len(configs)} configs x {len(benchmarks)} "
        f"benchmarks, {len(report.cells)} cells, all >=3 repeats"
    )
    return report


def check_reproducible_compare(scale: float) -> BenchReport:
    """Invariant 2: same tree, same machine -> compare passes, same sims."""
    def fresh() -> BenchReport:
        return BenchHarness(
            {"baseline": "baseline", "softwalker": "softwalker"},
            ["gups"],
            scale=scale,
            repeats=2,
            warmup=0,
        ).run()

    first, second = fresh(), fresh()
    comparison = compare_reports(first, second)
    if not comparison.passed:
        raise SystemExit(f"FAIL: clean re-run regressed\n{comparison.render()}")
    for cell in first.cells:
        twin = second.cell(cell.config, cell.benchmark)
        if twin is None or twin.fingerprint != cell.fingerprint:
            raise SystemExit(
                f"FAIL: {cell.config}/{cell.benchmark} fingerprint drifted "
                f"between back-to-back benches"
            )
    print(f"ok: back-to-back benches compare clean ({comparison.summary()})")
    return first


def check_slowdown_flagged(scale: float, plain: BenchReport) -> None:
    """Invariant 3: a real host slowdown is caught; the sim is untouched."""
    os.environ.setdefault(
        "REPRO_PLUGINS", str(REPO / "examples" / "plugins" / "slow_backend.py")
    )
    # Half a millisecond per walk is a >2x host slowdown at this scale
    # while keeping the smoke run fast (read at plugin import time).
    os.environ.setdefault("REPRO_MOLASSES_DELAY", "0.0005")
    slow_config = DEFAULT_CONFIGS.get("baseline").derive(walk_backend="molasses")
    slow = BenchHarness(
        {"baseline": slow_config}, ["gups"], scale=scale, repeats=2, warmup=0
    ).run()
    # Compare only the baseline/gups cell against its molasses twin.
    plain_cell = plain.cell("baseline", "gups")
    slow_cell = slow.cell("baseline", "gups")
    comparison = compare_reports(
        BenchReport(meta=plain.meta, cells=[plain_cell]),
        BenchReport(meta=slow.meta, cells=[slow_cell]),
    )
    if not comparison.regressions:
        raise SystemExit(
            f"FAIL: molasses slowdown not flagged\n{comparison.render()}"
        )
    if slow_cell.fingerprint != plain_cell.fingerprint:
        raise SystemExit(
            "FAIL: molasses changed the simulation fingerprint — the plugin "
            "must only burn host time"
        )
    ratio = slow_cell.median_wall / plain_cell.median_wall
    print(
        f"ok: molasses run flagged as regression ({ratio:.1f}x slower, "
        f"fingerprint identical)"
    )


def check_instrumented_fingerprint() -> None:
    """Invariant 4: profiling + sampling leave the golden result untouched."""
    golden = json.loads(
        (REPO / "tests" / "golden" / "softwalker_dc.json").read_text()
    )
    config = softwalker_config()
    obs = Observability(
        metrics=MetricsRegistry(), sample_interval=1000, profile_engine=True
    )
    workload = build_workload("dc", config, scale=0.05, seed=7)
    sim = GPUSimulator(config, workload, obs=obs)
    result = sim.run()
    actual = json.loads(json.dumps(result.fingerprint()))
    if actual != golden:
        raise SystemExit(
            "FAIL: instrumented softwalker/dc run drifted from its golden "
            "fingerprint — profiling/sampling perturbed the simulation"
        )
    if not sim.engine.profile_report():
        raise SystemExit("FAIL: profiling was on but recorded no sites")
    print(
        f"ok: profiled+sampled run matches golden fingerprint "
        f"({len(sim.engine.profile_report())} sites profiled, "
        f"{obs.metrics.samples_taken} samples)"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.02)
    args = parser.parse_args()

    check_committed_report("BENCH_baseline.json")
    plain = check_reproducible_compare(args.scale)
    check_slowdown_flagged(args.scale, plain)
    check_instrumented_fingerprint()
    print("bench smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
