"""Tests for the parallel sweep engine (repro.harness.pool)."""

import json

import pytest

from repro.config import baseline_config, nha_config, softwalker_config
from repro.harness.pool import (
    SweepPoint,
    dedupe_points,
    default_jobs,
    make_point,
    matrix_points,
    run_sweep,
)
from repro.harness.runner import Runner
from repro.harness.store import fingerprint_digest
from repro.workloads.catalog import get_spec

TINY = 0.05


class TestPointConstruction:
    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert default_jobs() == 4
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError):
            default_jobs()

    def test_make_point_normalises_spec_and_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        config = baseline_config()
        from_spec = make_point(config, get_spec("gups"))
        from_abbr = make_point(config, "gups", scale=0.25)
        assert from_spec == from_abbr
        assert from_spec.benchmark == "gups"
        assert from_spec.scale == 0.25

    def test_matrix_is_benchmark_major(self):
        configs = [baseline_config(), softwalker_config()]
        points = matrix_points(configs, ["gups", "bfs"], scale=TINY)
        assert len(points) == 4
        assert [p.benchmark for p in points] == ["gups", "gups", "bfs", "bfs"]
        assert points[0].config == points[2].config == configs[0]

    def test_dedupe_keeps_first_seen_order(self):
        a = make_point(baseline_config(), "gups", scale=TINY)
        b = make_point(softwalker_config(), "gups", scale=TINY)
        assert dedupe_points([a, b, a, b, a]) == [a, b]

    def test_store_key_is_json_safe_and_input_sensitive(self):
        base = make_point(baseline_config(), "gups", scale=TINY)
        variants = [
            make_point(baseline_config(), "gups", scale=2 * TINY),
            make_point(baseline_config(), "gups", scale=TINY, seed=7),
            make_point(baseline_config(), "gups", scale=TINY, footprint_scale=2.0),
            make_point(baseline_config(), "bfs", scale=TINY),
            make_point(softwalker_config(), "gups", scale=TINY),
        ]
        keys = [json.dumps(p.store_key(), sort_keys=True) for p in [base] + variants]
        assert len(set(keys)) == len(keys)


class TestRunSweep:
    def test_rejects_invalid_jobs(self):
        with pytest.raises(ValueError):
            run_sweep([], jobs=0)

    def test_parallel_matches_serial_fingerprints(self):
        configs = [baseline_config(), softwalker_config(), nha_config()]
        points = matrix_points(configs, ["gups", "gemm", "bfs"], scale=TINY)
        serial = Runner().sweep(points, jobs=1)
        parallel = Runner().sweep(points, jobs=2)
        assert list(serial) == list(parallel) == dedupe_points(points)
        for point in points:
            assert fingerprint_digest(serial[point]) == fingerprint_digest(
                parallel[point]
            ), point.label()

    def test_dedupes_before_dispatch(self):
        point = make_point(baseline_config(), "gups", scale=TINY)
        runner = Runner()
        results = runner.sweep([point] * 5, jobs=2)
        assert list(results) == [point]
        assert runner.cache_info()["simulations"] == 1

    def test_progress_reports_cached_and_ran(self):
        runner = Runner()
        point = make_point(baseline_config(), "gups", scale=TINY)
        other = make_point(softwalker_config(), "gups", scale=TINY)
        runner.sweep([point])
        seen = []
        runner.sweep(
            [point, other],
            progress=lambda p, status, done, total: seen.append(
                (p, status, done, total)
            ),
        )
        assert seen == [(point, "cached", 1, 2), (other, "ran", 2, 2)]

    def test_warm_start_from_shared_disk_store(self, tmp_path):
        points = matrix_points(
            [baseline_config(), softwalker_config()], ["gups"], scale=TINY
        )
        first = Runner(store=tmp_path / "store")
        cold = first.sweep(points, jobs=2)
        assert first.cache_info()["simulations"] == len(points)
        assert first.cache_info()["disk_stores"] == len(points)

        second = Runner(store=tmp_path / "store")
        warm = second.sweep(points, jobs=2)
        info = second.cache_info()
        assert info["simulations"] == 0
        assert info["disk_hits"] == len(points)
        for point in points:
            assert fingerprint_digest(cold[point]) == fingerprint_digest(warm[point])


class TestRunnerFacade:
    def test_sweep_memoises_identity(self):
        runner = Runner()
        point = make_point(baseline_config(), "gups", scale=TINY)
        a = runner.sweep([point])[point]
        b = runner.sweep([point])[point]
        assert a is b
        assert runner.cache_info()["hits"] == 1
        assert runner.cache_info()["simulations"] == 1

    def test_sweep_key_includes_seed(self):
        plain = make_point(baseline_config(), "gups", scale=TINY)
        seeded = make_point(baseline_config(), "gups", scale=TINY, seed=3)
        results = Runner().sweep([plain, seeded])
        assert results[plain] is not results[seeded]

    def test_run_matrix_handles_duplicate_configs(self):
        config = baseline_config()
        results = Runner().run_matrix(
            {"a": config, "b": config}, ["gups"], scale=TINY
        )
        assert set(results) == {("a", "gups"), ("b", "gups")}
        assert results[("a", "gups")] is results[("b", "gups")]


class TestTraceExportUnderSweep:
    def test_trace_export_skips_claimed_slots(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path))
        (tmp_path / "gups-0.trace.json").write_text("claimed by another worker")
        Runner().run(baseline_config(), "gups", scale=TINY)
        # The pre-claimed slot is untouched; the run landed in the next.
        assert (
            tmp_path / "gups-0.trace.json"
        ).read_text() == "claimed by another worker"
        assert (tmp_path / "gups-1.trace.json").exists()
        assert (tmp_path / "gups-1.metrics.json").exists()

    def test_parallel_sweep_traces_every_point(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path))
        points = matrix_points(
            [baseline_config(), softwalker_config()], ["gups"], scale=TINY
        )
        Runner().sweep(points, jobs=2)
        traces = sorted(p.name for p in tmp_path.glob("gups-*.trace.json"))
        assert traces == ["gups-0.trace.json", "gups-1.trace.json"]


class TestFromDictStrictness:
    def test_roundtrip(self):
        point = make_point(baseline_config(), "gups", scale=TINY, seed=3)
        assert SweepPoint.from_dict(point.to_dict()) == point

    def test_unknown_field_rejected_with_did_you_mean(self):
        payload = make_point(baseline_config(), "gups", scale=TINY).to_dict()
        payload["benchmrak"] = payload.pop("benchmark")
        with pytest.raises(ValueError, match="did you mean 'benchmark'"):
            SweepPoint.from_dict(payload)

    def test_unrelated_unknown_field_rejected_without_hint(self):
        payload = make_point(baseline_config(), "gups", scale=TINY).to_dict()
        payload["zzz"] = 1
        with pytest.raises(ValueError, match="unknown SweepPoint field"):
            SweepPoint.from_dict(payload)

    def test_config_from_dict_rejects_typo_with_hint(self):
        from repro.config import GPUConfig

        payload = baseline_config().to_dict()
        payload["num_smms"] = payload.pop("num_sms")
        with pytest.raises((TypeError, ValueError), match="num_sms"):
            GPUConfig.from_dict(payload)
