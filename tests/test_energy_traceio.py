"""Tests for the energy model and trace serialisation."""

from pathlib import Path

import pytest

from repro.analysis.energy import (
    EnergyModel,
    EnergyReport,
    energy_report,
    translation_energy_per_walk,
)
from repro.config import baseline_config, softwalker_config
from repro.harness.runner import Runner, build_workload
from repro.workloads.base import WorkloadSpec
from repro.workloads.trace_io import load_trace, save_trace
from repro.gpu.gpu import GPUSimulator


def tiny_spec():
    return WorkloadSpec(
        name="energy_test",
        abbr="et",
        category="irregular",
        footprint_mb=32,
        pattern="uniform_random",
        compute_per_mem=8,
        warps_per_sm=2,
        mem_insts_per_warp=3,
    )


class TestEnergyModel:
    def test_cam_search_scales_with_entries(self):
        model = EnergyModel()
        assert model.mshr_search(1024) == 8 * model.mshr_search(128)

    def test_fully_associative_tlb_costs_more(self):
        model = EnergyModel()
        assert model.tlb_lookup(32, 0) > model.tlb_lookup(32, 4)

    def test_report_components_and_total(self):
        config = baseline_config().derive(num_sms=4)
        result = Runner().run(config, tiny_spec(), scale=1.0)
        report = energy_report(result, config)
        assert report.total_nj > 0
        for name in ("l1_tlb", "l2_tlb", "l2_tlb_mshr", "pwb", "pte_memory"):
            assert report.components[name] >= 0
        assert abs(sum(report.fraction(n) for n in report.components) - 1.0) < 1e-9

    def test_scaled_mshrs_burn_more_search_energy(self):
        spec = tiny_spec()
        small = baseline_config().derive(num_sms=4)
        big = small.with_l2_tlb(mshr_entries=1024).with_ptw(
            num_walkers=256, pwb_entries=512
        )
        r_small = Runner().run(small, spec, scale=1.0)
        r_big = Runner().run(big, spec, scale=1.0)
        e_small = energy_report(r_small, small)
        e_big = energy_report(r_big, big)
        per_walk_small = e_small.components["l2_tlb_mshr"] / max(1, r_small.walks_completed)
        per_walk_big = e_big.components["l2_tlb_mshr"] / max(1, r_big.walks_completed)
        assert per_walk_big > 4 * per_walk_small

    def test_softwalker_spends_pipeline_not_cam_energy(self):
        spec = tiny_spec()
        base_cfg = baseline_config().derive(num_sms=4)
        soft_cfg = base_cfg.with_ptw(num_walkers=0).with_softwalker(enabled=True)
        base = energy_report(Runner().run(base_cfg, spec, scale=1.0), base_cfg)
        soft = energy_report(Runner().run(soft_cfg, spec, scale=1.0), soft_cfg)
        assert soft.components["pw_warp_pipeline"] > 0
        assert base.components["pw_warp_pipeline"] == 0
        assert soft.components["pwb"] == 0  # no hardware PWB searches

    def test_per_walk_helper(self):
        report = EnergyReport(components={"x": 10.0})
        assert translation_energy_per_walk(report, 5) == pytest.approx(2.0)
        assert translation_energy_per_walk(report, 0) == 0.0


class TestTraceIO:
    def test_round_trip_preserves_traces(self, tmp_path):
        config = baseline_config().derive(num_sms=4)
        original = build_workload(tiny_spec(), config, scale=1.0)
        path = save_trace(original, tmp_path / "trace.json")
        replayed = load_trace(path, config)
        assert replayed.traces == original.traces
        assert replayed.spec == original.spec
        assert replayed.touched_pages == original.touched_pages

    def test_replay_simulates_identically(self, tmp_path):
        config = baseline_config().derive(num_sms=4)
        original = build_workload(tiny_spec(), config, scale=1.0)
        a = GPUSimulator(config, original).run()
        path = save_trace(original, tmp_path / "trace.json")
        b = GPUSimulator(config, load_trace(path, config)).run()
        assert a.cycles == b.cycles
        assert a.walks_completed == b.walks_completed

    def test_replay_reproduces_the_fingerprint(self, tmp_path):
        config = softwalker_config().derive(num_sms=4)
        original = build_workload(tiny_spec(), config, scale=1.0)
        expected = GPUSimulator(config, original).run().fingerprint()
        path = save_trace(original, tmp_path / "trace.json")
        replayed = GPUSimulator(config, load_trace(path, config)).run()
        assert replayed.fingerprint() == expected

    def test_trace_saved_before_compiled_programs_still_replays(self, tmp_path):
        # Saved by the simulator before warps ran compiled programs; the
        # on-disk format (version 1) is unchanged.
        fixture = Path(__file__).parent / "fixtures" / "trace_v1_energy_test.json"
        config = baseline_config().derive(num_sms=4)
        original = build_workload(tiny_spec(), config, scale=1.0)
        resaved = save_trace(original, tmp_path / "trace.json")
        assert resaved.read_text() == fixture.read_text()
        replayed = GPUSimulator(config, load_trace(fixture, config)).run()
        expected = GPUSimulator(config, original).run()
        assert replayed.fingerprint() == expected.fingerprint()

    def test_sm_count_mismatch_rejected(self, tmp_path):
        config = baseline_config().derive(num_sms=4)
        path = save_trace(build_workload(tiny_spec(), config, scale=1.0),
                          tmp_path / "trace.json")
        other = baseline_config().derive(num_sms=8)
        with pytest.raises(ValueError):
            load_trace(path, other)

    def test_version_checked(self, tmp_path):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(ValueError):
            load_trace(path, baseline_config())

    def test_replay_under_different_page_size(self, tmp_path):
        from repro.config import PAGE_SIZE_2M

        config = baseline_config().derive(num_sms=4)
        path = save_trace(build_workload(tiny_spec(), config, scale=1.0),
                          tmp_path / "trace.json")
        large = config.with_page_size(PAGE_SIZE_2M)
        replayed = load_trace(path, large)
        assert replayed.page_size == PAGE_SIZE_2M
        result = GPUSimulator(large, replayed).run()
        assert result.cycles > 0
