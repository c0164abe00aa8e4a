"""Tests for the runner and experiment harness (tiny scales)."""

import pytest

from repro.config import baseline_config, softwalker_config
from repro.harness import experiments
from repro.harness.runner import (
    Runner,
    build_workload,
    clear_cache,
    default_runner,
    default_scale,
    speedups,
)

TINY = 0.125


def run_cached(config, benchmark, **kwargs):
    """Local helper: the retired module shim, via the default runner."""
    return default_runner().run_cached(config, benchmark, **kwargs)


class TestRunner:
    def test_default_scale_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert default_scale() == 1.0
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert default_scale() == 0.5
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ValueError):
            default_scale()

    def test_run_by_abbr(self):
        result = Runner().run(baseline_config(), "gemm", scale=TINY)
        assert result.cycles > 0
        assert result.workload == "gemm"

    def test_run_matrix_and_speedups(self):
        configs = {"base": baseline_config(), "soft": softwalker_config()}
        results = default_runner().run_matrix(configs, ["gups"], scale=TINY)
        assert set(results) == {("base", "gups"), ("soft", "gups")}
        ratio = speedups(results, baseline_label="base")
        assert ratio[("base", "gups")] == pytest.approx(1.0)
        assert ratio[("soft", "gups")] > 1.0

    def test_run_cached_memoises(self):
        clear_cache()
        a = run_cached(baseline_config(), "gemm", scale=TINY)
        b = run_cached(baseline_config(), "gemm", scale=TINY)
        assert a is b
        c = run_cached(baseline_config(), "gemm", scale=TINY, footprint_scale=2.0)
        assert c is not a

    def test_sweep_resultset_groups_seed_replicates(self):
        resultset = experiments.sweep_resultset(
            [baseline_config()], ["gups"], scale=TINY, seeds=(1, 2)
        )
        from repro.analysis import METRICS

        (cell,) = resultset.cells()
        assert cell.key.config == "baseline"
        assert cell.seeds() == [1, 2]
        assert cell.median(METRICS["cycles"]) > 0

    def test_workload_respects_page_size(self):
        from repro.config import PAGE_SIZE_2M

        config = baseline_config().with_page_size(PAGE_SIZE_2M)
        workload = build_workload("gups", config, scale=TINY)
        assert workload.page_size == PAGE_SIZE_2M


class TestExperimentTable:
    def test_render_save_and_accessors(self, tmp_path):
        table = experiments.ExperimentTable(
            name="demo",
            title="Demo",
            headers=["k", "v"],
            rows=[["a", 1.0], ["b", 2.0]],
            notes=["hello"],
        )
        text = table.render()
        assert "Demo" in text and "note: hello" in text
        out = table.save(tmp_path)
        assert out.read_text().startswith("Demo")
        assert table.column("v") == [1.0, 2.0]
        assert table.row_for("b") == ["b", 2.0]
        with pytest.raises(KeyError):
            table.row_for("zzz")


class TestExperimentsSmoke:
    """Each experiment runs end-to-end on a tiny subset."""

    def test_fig16_structure(self):
        table = experiments.fig16_overall_speedup(abbrs=["gups", "gemm"], scale=TINY)
        assert table.headers[0] == "workload"
        assert "SoftWalker" in table.headers
        sw = dict(zip(table.headers[1:], table.row_for("geomean (irregular)")[1:]))
        assert sw["SoftWalker"] > 1.0

    def test_fig17_reduction(self):
        table = experiments.fig17_mshr_failures(abbrs=["gups"], scale=TINY)
        assert table.row_for("mean")[-1] > 0

    def test_fig22_sweep_points(self):
        table = experiments.fig22_l2tlb_latency(
            abbrs=["gups"], latencies=(40, 200), scale=TINY
        )
        assert len(table.rows) == 2

    def test_fig24_capacity_points(self):
        table = experiments.fig24_intlb_capacity(
            abbrs=["gups"], capacities=(0, 1024), scale=TINY
        )
        assert table.rows[1][1] >= table.rows[0][1] * 0.8

    def test_scaled_ptw_config_scales_support_structures(self):
        config = experiments.scaled_ptw_config(128)
        assert config.ptw.num_walkers == 128
        assert config.ptw.pwb_entries == 64 * 4
        assert config.l2_tlb.mshr_entries == 128 * 4

    def test_table_experiments(self):
        assert experiments.table1_comparison().rows
        assert experiments.table3_configuration().rows
        assert experiments.sec52_hardware_overhead().rows

    def test_extension_baselines_structure(self):
        table = experiments.extension_baselines(abbrs=["gups"], scale=TINY)
        techniques = table.column("technique")
        assert "CoLT (span 4)" in techniques
        assert "Avatar speculation" in techniques
        by_technique = dict(table.rows)
        assert by_technique["SoftWalker"] == max(by_technique.values())


class TestRunnerCache:
    def test_cache_info_counts_hits_misses(self):
        from repro.harness import runner

        clear_cache()
        before = runner.cache_info()
        run_cached(baseline_config(), "gups", scale=TINY)
        run_cached(baseline_config(), "gups", scale=TINY)
        after = runner.cache_info()
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 1
        assert after["entries"] == 1

    def test_cache_evicts_least_recent_beyond_capacity(self, monkeypatch):
        from repro.harness import runner

        clear_cache()
        monkeypatch.setenv("REPRO_CACHE_ENTRIES", "2")
        before = runner.cache_info()["evictions"]
        run_cached(baseline_config(), "gups", scale=TINY)
        run_cached(softwalker_config(), "gups", scale=TINY)
        run_cached(baseline_config(), "gemm", scale=TINY)  # evicts first entry
        info = runner.cache_info()
        assert info["entries"] == 2
        assert info["evictions"] - before == 1
        # The first run was evicted, so repeating it misses again.
        misses = info["misses"]
        run_cached(baseline_config(), "gups", scale=TINY)
        assert runner.cache_info()["misses"] == misses + 1
        clear_cache()

    def test_cache_capacity_env_must_be_positive(self, monkeypatch):
        from repro.harness import runner

        clear_cache()
        monkeypatch.setenv("REPRO_CACHE_ENTRIES", "0")
        with pytest.raises(ValueError):
            run_cached(baseline_config(), "gups", scale=TINY)

    def test_clear_cache_empties_entries(self):
        from repro.harness import runner

        run_cached(baseline_config(), "gups", scale=TINY)
        clear_cache()
        assert runner.cache_info()["entries"] == 0


class TestEnvTraceExport:
    def test_repro_trace_env_writes_trace_and_metrics(self, monkeypatch, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        monkeypatch.setenv("REPRO_TRACE", str(tmp_path))
        Runner().run(baseline_config(), "gups", scale=TINY)
        trace_path = tmp_path / "gups-0.trace.json"
        metrics_path = tmp_path / "gups-0.metrics.json"
        assert trace_path.exists() and metrics_path.exists()
        validate_chrome_trace(json.loads(trace_path.read_text()))
        loaded = json.loads(metrics_path.read_text())
        assert loaded["samples_taken"] > 0

    def test_explicit_obs_wins_over_env(self, monkeypatch, tmp_path):
        from repro.obs import Observability

        monkeypatch.setenv("REPRO_TRACE", str(tmp_path))
        obs = Observability.tracing()
        Runner().run(baseline_config(), "gups", scale=TINY, obs=obs)
        assert obs.trace.num_events > 0
        assert list(tmp_path.iterdir()) == []  # no files: caller owns export
