"""ResultSet loading, experiment analysis, rendering, and the report CLI.

Everything here runs on *synthetic* SimulationResults (no simulations),
so the statistical layer is tested against exactly-known numbers and
the golden markdown snapshot is byte-stable.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    METRICS,
    AnalysisError,
    CellKey,
    ResultSet,
    analyze,
    config_label,
    diff_resultsets,
    render_html,
    render_markdown,
    resolve_metrics,
    result_digest,
)
from repro.config import baseline_config, softwalker_config
from repro.gpu.gpu import SimulationResult
from repro.harness.store import ResultStore
from repro.sim.stats import StatsRegistry

GOLDEN_DIR = Path(__file__).parent / "golden"


def make_result(
    cycles,
    *,
    workload="gups",
    seed=0,
    instructions=10_000,
    misses=100,
    wall=None,
):
    """Deterministic synthetic result whose metrics derive from cycles."""
    stats = StatsRegistry()
    stats.counters.add("l2tlb.demand_misses", misses)
    stats.latency("walk").record({"queueing": cycles // 10, "access": cycles // 20})
    result = SimulationResult(
        workload=workload,
        cycles=cycles,
        instructions=instructions,
        pw_instructions=0,
        stats=stats,
        num_sms=4,
        stall_cycles=cycles // 2,
        memory_wait_cycles=0,
        seed=seed,
    )
    if wall is not None:
        result.perf = {"wall_seconds": wall, "events_per_sec": 1000.0 / wall}
    return result


def store_key(config, benchmark, seed, *, scale=0.1):
    return {
        "config": config.to_dict(),
        "benchmark": benchmark,
        "scale": scale,
        "footprint_scale": 1.0,
        "seed": seed,
    }


def synthetic_resultset(*, wall_factor=1.0, source="synthetic"):
    """2 configs x 2 benchmarks x 3 seeds of exactly-known numbers."""
    base, soft = baseline_config(), softwalker_config()
    cycles = {
        ("baseline", "gups"): [1000, 1010, 990],
        ("baseline", "spmv"): [2000, 2020, 1980],
        ("softwalker", "gups"): [500, 505, 495],
        ("softwalker", "spmv"): [800, 808, 792],
    }
    pairs = []
    for (label, benchmark), values in cycles.items():
        config = base if label == "baseline" else soft
        for seed, value in enumerate(values, start=1):
            wall = (1.0 + 0.01 * seed + 0.1 * value / 1000) * wall_factor
            pairs.append(
                (
                    store_key(config, benchmark, seed),
                    make_result(
                        value, workload=benchmark, seed=seed, wall=wall
                    ),
                )
            )
    return ResultSet.from_results(pairs, source=source)


class TestMetricsAndLabels:
    def test_resolve_metrics_unknown_name(self):
        with pytest.raises(KeyError, match="unknown metric"):
            resolve_metrics(["cycles", "nope"])

    def test_registered_config_gets_its_name(self):
        assert config_label(baseline_config()) == "baseline"
        assert config_label(softwalker_config().to_dict()) == "softwalker"

    def test_walk_backend_override_keeps_parent_name(self):
        # Same path a plugin backend ("molasses") takes; "hybrid" is
        # always registered so the test needs no plugin loading.
        overridden = baseline_config().derive(walk_backend="hybrid")
        assert config_label(overridden) == "baseline[hybrid]"

    def test_unknown_config_falls_back_to_digest(self):
        label = config_label({"mystery": True})
        assert label.startswith("cfg-") and len(label) == 12

    def test_wall_seconds_metric_reads_perf(self):
        metric = METRICS["wall_seconds"]
        assert metric.values([make_result(100)]) == []
        assert metric.values([make_result(100, wall=2.5)]) == [2.5]


class TestResultSetConstruction:
    def test_from_results_groups_replicates_into_cells(self):
        resultset = synthetic_resultset()
        assert len(resultset) == 4
        assert resultset.configs() == ["baseline", "softwalker"]
        assert resultset.benchmarks() == ["gups", "spmv"]
        assert resultset.total_results() == 12
        cell = resultset.cell(
            CellKey("baseline", "gups", scale=0.1, footprint_scale=1.0)
        )
        assert cell.n == 3 and cell.seeds() == [1, 2, 3]
        assert cell.median(METRICS["cycles"]) == 1000

    def test_from_results_accepts_sweep_points(self):
        from repro.harness.pool import SweepPoint

        point = SweepPoint(baseline_config(), "gups", 0.1, seed=5)
        resultset = ResultSet.from_results({point: make_result(123, seed=5)})
        (cell,) = resultset.cells()
        assert cell.key.config == "baseline" and cell.replicates[5].cycles == 123

    def test_budgeted_point_is_its_own_cell_as_in_the_store(self, tmp_path):
        import dataclasses

        from repro.harness.pool import SweepPoint

        full = SweepPoint(baseline_config(), "gups", 0.1, seed=5)
        budgeted = dataclasses.replace(full, max_events=4000)
        results = {full: make_result(123, seed=5), budgeted: make_result(40, seed=5)}
        in_memory = ResultSet.from_results(results)
        store = ResultStore(tmp_path / "store")
        for point, result in results.items():
            store.store(point.store_key(), result)
        from_disk = ResultSet.from_store(store)

        keys = [cell.key for cell in in_memory.cells()]
        assert len(keys) == 2
        assert keys == [cell.key for cell in from_disk.cells()]
        assert {key.config for key in keys} == {"baseline", "baseline[max_events=4000]"}

    def test_from_results_accepts_run_matrix_mapping(self):
        resultset = ResultSet.from_results(
            {("base", "gups"): make_result(10), ("soft", "gups"): make_result(5)}
        )
        assert resultset.configs() == ["base", "soft"]

    def test_from_results_rejects_garbage_keys(self):
        with pytest.raises(TypeError, match="cannot interpret"):
            ResultSet.from_results([(42, make_result(1))])

    def test_store_roundtrip_and_from_files(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = store_key(baseline_config(), "gups", 1)
        store.store(key, make_result(777, seed=1))
        loaded = ResultSet.from_store(store)
        (cell,) = loaded.cells()
        assert cell.replicates[1].cycles == 777

        entry = next((tmp_path / "store").glob("*.json"))
        from_files = ResultSet.from_files([entry])
        assert from_files.cells()[0].replicates[1].cycles == 777

    def test_from_store_skips_corrupt_entries(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.store(store_key(baseline_config(), "gups", 1), make_result(1))
        store.store(store_key(baseline_config(), "gups", 2), make_result(2))
        victim = sorted((tmp_path / "store").glob("*.json"))[0]
        victim.write_text("not json")
        resultset = ResultSet.from_store(store)
        assert resultset.total_results() == 1
        assert victim.with_suffix(".corrupt").exists()

    def test_from_files_bare_result_dict(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(make_result(55, workload="spmv").to_dict()))
        resultset = ResultSet.from_files([path])
        (cell,) = resultset.cells()
        assert cell.key.config == "unknown" and cell.key.benchmark == "spmv"

    def test_filter(self):
        resultset = synthetic_resultset()
        subset = resultset.filter(configs=["softwalker"], benchmarks=["gups"])
        assert len(subset) == 1

    def test_store_snapshot_is_diffable(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.store(store_key(baseline_config(), "gups", 1), make_result(9))
        snap = store.snapshot(tmp_path / "snap")
        assert len(snap) == 1
        with pytest.raises(ValueError, match="must differ"):
            store.snapshot(tmp_path / "store")


class TestAnalyze:
    def test_ranking_and_speedups(self):
        analysis = analyze(synthetic_resultset(), metrics=["cycles"])
        assert analysis.baseline == "baseline"
        assert analysis.rankings[0].config == "softwalker"
        assert analysis.rankings[0].geomean_speedup == pytest.approx(
            (2.0 * 2.5) ** 0.5
        )
        assert analysis.speedups[("softwalker", "gups")] == pytest.approx(2.0)

    def test_summaries_have_cis_bracketing_the_median(self):
        analysis = analyze(synthetic_resultset(), metrics=["cycles"])
        for summary in analysis.summaries:
            assert summary.ci_low <= summary.median <= summary.ci_high
            assert summary.n == 3

    def test_separated_replicates_are_bh_significant(self):
        analysis = analyze(synthetic_resultset(), metrics=["cycles"], alpha=0.05)
        verdicts = {
            (c.key.benchmark, c.verdict) for c in analysis.comparisons
        }
        assert verdicts == {("gups", "significant"), ("spmv", "significant")}
        for comparison in analysis.comparisons:
            assert comparison.q_value == pytest.approx(0.0495, abs=0.001)

    def test_single_replicate_is_insufficient_not_a_crash(self):
        pairs = [
            (store_key(baseline_config(), "gups", 1), make_result(100, seed=1)),
            (store_key(softwalker_config(), "gups", 1), make_result(50, seed=1)),
        ]
        analysis = analyze(ResultSet.from_results(pairs), metrics=["cycles"])
        (comparison,) = analysis.comparisons
        assert comparison.verdict == "insufficient-replicates"
        assert comparison.q_value is None

    def test_identical_cells_are_identical_verdict(self):
        pairs = []
        for seed in (1, 2, 3):
            pairs.append(
                (store_key(baseline_config(), "gups", seed), make_result(100, seed=seed))
            )
            pairs.append(
                (store_key(softwalker_config(), "gups", seed), make_result(100, seed=seed))
            )
        analysis = analyze(ResultSet.from_results(pairs), metrics=["cycles"])
        (comparison,) = analysis.comparisons
        assert comparison.verdict == "identical"

    def test_missing_baseline_raises(self):
        with pytest.raises(AnalysisError, match="not present"):
            analyze(synthetic_resultset(), baseline="warp-drive")

    def test_empty_resultset_raises(self):
        with pytest.raises(AnalysisError, match="empty"):
            analyze(ResultSet())


class TestDiff:
    def test_identical_snapshots_pass(self):
        report = diff_resultsets(
            synthetic_resultset(), synthetic_resultset(), metrics=["cycles"]
        )
        assert report.passed
        assert {cell.verdict for cell in report.cells} <= {"ok", "identical"}
        assert report.fingerprint_drift == []

    def test_inflated_wall_time_regresses_with_identical_fingerprints(self):
        old = synthetic_resultset()
        new = synthetic_resultset(wall_factor=100.0)
        report = diff_resultsets(
            old, new, metrics=["wall_seconds"], alpha=0.1
        )
        assert not report.passed
        assert len(report.regressions) == 4
        assert report.fingerprint_drift == []  # same simulation, slower host

    def test_threshold_gates_small_significant_moves(self):
        old = synthetic_resultset()
        new = synthetic_resultset(wall_factor=1.02)
        report = diff_resultsets(
            old, new, metrics=["wall_seconds"], alpha=0.1, tolerance=0.05
        )
        assert report.passed  # significant but within tolerance -> ok

    def test_missing_cell_fails_and_new_cell_does_not(self):
        old = synthetic_resultset()
        new = synthetic_resultset().filter(benchmarks=["gups"])
        report = diff_resultsets(old, new, metrics=["cycles"])
        assert not report.passed and len(report.missing) == 2
        grown = diff_resultsets(new, old, metrics=["cycles"])
        assert grown.passed
        assert any(cell.verdict == "new" for cell in grown.cells)

    def test_higher_is_better_polarity_flips(self):
        old = synthetic_resultset()
        new = synthetic_resultset(wall_factor=100.0)
        # Throughput *dropped* 100x in the new snapshot; for a
        # higher-is-better metric that must read as a regression even
        # though the raw new/old ratio is far below 1.
        report = diff_resultsets(old, new, metrics=["events_per_sec"], alpha=0.1)
        assert not report.passed
        assert {cell.verdict for cell in report.cells} == {"regression"}
        shrinking_wall = diff_resultsets(
            new, old, metrics=["wall_seconds"], alpha=0.1
        )
        assert shrinking_wall.passed
        assert {c.verdict for c in shrinking_wall.cells} == {"improvement"}

    def test_single_replicate_diff_is_insufficient(self):
        pairs = [(store_key(baseline_config(), "gups", 1), make_result(100, seed=1))]
        old = ResultSet.from_results(pairs)
        new = ResultSet.from_results(pairs)
        report = diff_resultsets(old, new, metrics=["cycles"])
        (cell,) = report.cells
        assert cell.verdict == "insufficient-replicates" and report.passed


class TestRendering:
    def test_golden_markdown_snapshot(self):
        analysis = analyze(
            synthetic_resultset(source="golden"),
            metrics=["cycles", "walk_latency"],
        )
        rendered = render_markdown(analysis, title="Golden report")
        golden = (GOLDEN_DIR / "report_synthetic.md").read_text(encoding="utf-8")
        assert rendered == golden

    def test_html_mirrors_markdown_numbers(self):
        analysis = analyze(synthetic_resultset(), metrics=["cycles"])
        html = render_html(analysis)
        assert html.startswith("<!DOCTYPE html>")
        assert "softwalker" in html and "Design ranking" in html
        assert "1,000.00" in html  # baseline/gups median

    def test_result_digest_tracks_fingerprint(self):
        a, b = make_result(100, seed=1), make_result(100, seed=1)
        assert result_digest(a) == result_digest(b)
        assert result_digest(a) != result_digest(make_result(101, seed=1))


class TestReportCLI:
    @pytest.fixture()
    def stores(self, tmp_path):
        """old (healthy) and new (wall-inflated) stores + their paths."""
        old_store = ResultStore(tmp_path / "old")
        new_store = ResultStore(tmp_path / "new")
        base, soft = baseline_config(), softwalker_config()
        for label, config in (("baseline", base), ("softwalker", soft)):
            for benchmark in ("gups", "spmv"):
                for seed in (1, 2, 3):
                    cycles = (1000 if label == "baseline" else 500) + seed
                    key = store_key(config, benchmark, seed)
                    wall = 1.0 + 0.01 * seed
                    old_store.store(
                        key,
                        make_result(
                            cycles, workload=benchmark, seed=seed, wall=wall
                        ),
                    )
                    new_store.store(
                        key,
                        make_result(
                            cycles, workload=benchmark, seed=seed, wall=wall * 100
                        ),
                    )
        return tmp_path / "old", tmp_path / "new"

    def test_report_writes_markdown_and_html(self, stores, tmp_path, capsys):
        from repro.cli import main

        old, _new = stores
        out = tmp_path / "report.md"
        assert main(["report", "--store", str(old), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "design ranking" in text and "significant" in text
        assert out.exists() and out.with_suffix(".html").exists()
        assert "geomean speedup" in out.read_text(encoding="utf-8")

    def test_against_identical_snapshot_passes(self, stores, capsys):
        from repro.cli import main

        old, _new = stores
        code = main(
            ["report", "--store", str(old), "--against", str(old)]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_against_perturbed_snapshot_exits_nonzero(self, stores, capsys):
        from repro.cli import main

        old, new = stores
        code = main(
            [
                "report",
                "--store", str(new),
                "--against", str(old),
                "--metrics", "wall_seconds",
                # 3 replicates floor the asymptotic Mann-Whitney p at
                # ~0.0495; alpha must sit above it once BH corrects
                # across the 4-cell family.
                "--alpha", "0.1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "regression" in captured.out
        assert "baseline/gups" in captured.err  # regressed cells are named

    def test_unknown_metric_errors(self, stores):
        from repro.cli import main

        old, _new = stores
        assert main(["report", "--store", str(old), "--metrics", "bogus"]) == 2

    def test_empty_store_errors(self, tmp_path):
        from repro.cli import main

        assert main(["report", "--store", str(tmp_path / "void")]) == 2


class TestCompletenessSurfacing:
    """Truncated (complete=False) replicates must never pollute statistics."""

    def mixed_cell_set(self):
        resultset = synthetic_resultset()
        cell = resultset.cells()[0]
        cell.replicates[1].complete = False
        return resultset, cell

    def test_values_and_median_exclude_incomplete(self):
        resultset, cell = self.mixed_cell_set()
        metric = METRICS["cycles"]
        assert len(cell.values(metric)) == cell.n - 1
        assert cell.median(metric) == 1000  # median of the 2 complete runs

    def test_incomplete_counters_and_describe(self):
        resultset, cell = self.mixed_cell_set()
        assert cell.incomplete_n == 1
        assert resultset.total_incomplete() == 1
        assert "1 incomplete, excluded from statistics" in resultset.describe()
        assert "incomplete" not in synthetic_resultset().describe()

    def test_fingerprints_exclude_incomplete(self):
        _resultset, cell = self.mixed_cell_set()
        partial = cell.replicates[1]
        assert result_digest(partial) not in cell.fingerprints()

    def test_report_intro_carries_exclusion_note(self):
        resultset, _cell = self.mixed_cell_set()
        analysis = analyze(resultset)
        assert "excluded from every statistic" in render_markdown(analysis)
        assert "excluded" not in render_markdown(analyze(synthetic_resultset()))

    def test_extra_store_key_fields_get_their_own_cell(self):
        config = baseline_config()
        full = store_key(config, "gups", 0)
        truncated = {**store_key(config, "gups", 0), "max_events": 5000}
        resultset = ResultSet.from_results(
            [
                (full, make_result(1000, seed=0)),
                (truncated, make_result(400, seed=0)),
            ]
        )
        labels = sorted(c.key.config for c in resultset.cells())
        assert labels == ["baseline", "baseline[max_events=5000]"]
        # The full-fidelity cell's median is untouched by the truncated run.
        full_cell = next(
            c for c in resultset.cells() if c.key.config == "baseline"
        )
        assert full_cell.median(METRICS["cycles"]) == 1000
