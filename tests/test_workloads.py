"""Unit + property tests for workload specs, patterns, and traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PAGE_SIZE_2M, baseline_config, softwalker_config
from repro.gpu.warp import compile_trace
from repro.workloads.base import IRREGULAR, REGULAR, TraceWorkload, WorkloadSpec
from repro.workloads.catalog import (
    ALL_ABBRS,
    CATALOG,
    IRREGULAR_ABBRS,
    REGULAR_ABBRS,
    SCALABLE_ABBRS,
    get_spec,
)
from repro.workloads.microbench import MicrobenchWorkload
from repro.workloads.patterns import PATTERNS, get_pattern


class TestCatalog:
    def test_twenty_benchmarks(self):
        assert len(ALL_ABBRS) == 20
        assert len(IRREGULAR_ABBRS) == 12
        assert len(REGULAR_ABBRS) == 8

    def test_table4_footprints(self):
        assert CATALOG["bc"].footprint_mb == 1194
        assert CATALOG["spmv"].footprint_mb == 288
        assert CATALOG["cc"].footprint_mb == 2306

    def test_paper_mpki_carried(self):
        assert CATALOG["spmv"].paper_mpki == pytest.approx(2517.196)
        assert CATALOG["gemm"].paper_mpki == pytest.approx(0.0614)

    def test_scalable_subset_is_irregular(self):
        for abbr in SCALABLE_ABBRS:
            assert get_spec(abbr).is_irregular

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            get_spec("nope")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="x", abbr="x", category="weird",
                         footprint_mb=1, pattern="streaming")
        with pytest.raises(ValueError):
            WorkloadSpec(name="x", abbr="x", category=REGULAR,
                         footprint_mb=0, pattern="streaming")


class TestPatterns:
    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_patterns_emit_valid_line_indices(self, name):
        rng = np.random.default_rng(7)
        footprint = 100_000
        lanes = get_pattern(name)(rng, 3, 16, 20, footprint)
        assert lanes.shape[0] == 20
        assert lanes.min() >= 0
        assert lanes.max() < footprint

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            get_pattern("fractal")

    def test_streaming_is_page_local(self):
        rng = np.random.default_rng(7)
        lanes = get_pattern("streaming")(rng, 0, 16, 50, 1 << 20)
        pages_per_inst = [len({v // 512 for v in row}) for row in lanes]
        assert max(pages_per_inst) <= 2

    def test_uniform_random_is_page_divergent(self):
        rng = np.random.default_rng(7)
        lanes = get_pattern("uniform_random")(rng, 0, 16, 50, 1 << 22)
        pages_per_inst = [len({int(v) // 512 for v in row}) for row in lanes]
        assert sum(pages_per_inst) / len(pages_per_inst) > 25

    def test_power_law_reuses_hot_pages(self):
        rng = np.random.default_rng(7)
        lanes = get_pattern("power_law")(
            rng, 0, 16, 200, 1 << 22, alpha=1.4, sequential_fraction=0.0
        )
        values, counts = np.unique(lanes, return_counts=True)
        assert counts.max() > 5  # hot vertices exist

    @given(slot=st.integers(min_value=0, max_value=63),
           footprint=st.integers(min_value=1024, max_value=1 << 22))
    @settings(max_examples=20)
    def test_strided_stays_in_footprint_property(self, slot, footprint):
        rng = np.random.default_rng(0)
        lanes = get_pattern("strided")(rng, slot, 64, 10, footprint)
        assert lanes.min() >= 0 and lanes.max() < footprint


class TestTraceWorkload:
    def spec(self):
        return WorkloadSpec(
            name="trace_test", abbr="tt", category=IRREGULAR,
            footprint_mb=32, pattern="uniform_random",
            compute_per_mem=7, warps_per_sm=2, mem_insts_per_warp=3,
        )

    def test_trace_shape(self):
        config = baseline_config().derive(num_sms=4)
        workload = TraceWorkload(self.spec(), config)
        assert len(workload.traces) == 4
        assert all(len(sm) == 2 for sm in workload.traces)
        mem_insts = [
            inst for sm in workload.traces for w in sm for inst in w if inst[0] == "m"
        ]
        assert len(mem_insts) == 4 * 2 * 3

    def test_compute_blocks_interleaved(self):
        config = baseline_config().derive(num_sms=1)
        workload = TraceWorkload(self.spec(), config)
        trace = workload.traces[0][0]
        kinds = [inst[0] for inst in trace]
        assert kinds == ["c", "m"] * 3

    def test_determinism_per_name(self):
        config = baseline_config().derive(num_sms=2)
        a = TraceWorkload(self.spec(), config)
        b = TraceWorkload(self.spec(), config)
        assert a.traces == b.traces

    def test_scale_shrinks_trace(self):
        config = baseline_config().derive(num_sms=2)
        small = TraceWorkload(self.spec(), config, scale=1 / 3)
        assert small.mem_insts_per_warp == 1

    def test_every_touched_page_is_mapped(self):
        config = baseline_config().derive(num_sms=2)
        workload = TraceWorkload(self.spec(), config)
        assert workload.space.mapped_pages == workload.touched_pages
        lines_per_page = workload.page_size // 128
        for sm in workload.traces:
            for warp in sm:
                for inst in warp:
                    if inst[0] == "m":
                        for line in inst[1]:
                            workload.space.translate(line // lines_per_page)

    def test_2mb_pages_reuse_same_line_space(self):
        spec = self.spec()
        small = TraceWorkload(spec, baseline_config().derive(num_sms=2))
        large = TraceWorkload(
            spec, baseline_config().derive(num_sms=2).with_page_size(PAGE_SIZE_2M)
        )
        assert small.traces == large.traces  # page-size independent
        assert large.touched_pages < small.touched_pages

    def test_footprint_scale_expands_reach(self):
        config = baseline_config().derive(num_sms=2)
        base = TraceWorkload(self.spec(), config)
        wide = TraceWorkload(self.spec(), config, footprint_scale=4.0)
        assert wide.footprint_lines == 4 * base.footprint_lines


class TestCompiledPrograms:
    @pytest.mark.parametrize("page_size", [64 * 1024, PAGE_SIZE_2M])
    @pytest.mark.parametrize("abbr", ALL_ABBRS)
    def test_programs_compile_the_trace_view(self, abbr, page_size):
        config = baseline_config().derive(num_sms=3).with_page_size(page_size)
        workload = TraceWorkload(get_spec(abbr), config, scale=0.25)
        lines_per_page = page_size // 128
        traces = workload.traces
        assert [
            [compile_trace(trace, lines_per_page) for trace in sm] for sm in traces
        ] == workload.programs
        touched = {
            line // lines_per_page
            for sm in traces
            for warp in sm
            for kind, payload in warp
            if kind == "m"
            for line in payload
        }
        assert workload.touched_page_set() == touched

    @pytest.mark.parametrize("num_sms,warps_per_sm", [(2, 0), (0, 2)])
    def test_workload_without_warps(self, num_sms, warps_per_sm):
        spec = WorkloadSpec(
            name="empty", abbr="e", category=IRREGULAR, footprint_mb=8,
            pattern="uniform_random", warps_per_sm=warps_per_sm,
        )
        workload = TraceWorkload(spec, baseline_config().derive(num_sms=num_sms))
        assert workload.programs == workload.traces == [[]] * num_sms
        assert workload.touched_pages == 0

    def test_every_pattern_is_covered(self):
        assert {get_spec(abbr).pattern for abbr in ALL_ABBRS} == set(PATTERNS)

    def test_trace_view_rows_are_sorted_and_unique(self):
        workload = TraceWorkload(get_spec("gups"), baseline_config().derive(num_sms=2))
        for sm in workload.traces:
            for warp in sm:
                for kind, payload in warp:
                    if kind == "m":
                        assert list(payload) == sorted(set(payload))


class TestSharedCompile:
    """Consecutive workloads with equal compile inputs share one compile."""

    def test_configs_of_one_sweep_share_programs(self):
        spec = get_spec("gemm")
        base = TraceWorkload(spec, baseline_config(), scale=0.05)
        soft = TraceWorkload(spec, softwalker_config(), scale=0.05)
        assert soft.programs is base.programs
        # The address space is mutable (faults unmap pages): never shared.
        assert soft.space is not base.space
        assert soft.touched_pages == base.touched_pages

    def test_shared_programs_equal_a_fresh_compile(self):
        spec = get_spec("cc")
        first = TraceWorkload(spec, baseline_config(), scale=0.05)
        shared = TraceWorkload(spec, softwalker_config(), scale=0.05)
        assert shared.programs is first.programs
        fresh, touched = shared._compile()
        assert fresh == shared.programs
        assert touched == shared._touched_vpns

    @pytest.mark.parametrize(
        "change",
        [
            {"config": baseline_config().with_page_size(PAGE_SIZE_2M)},
            {"config": baseline_config().derive(num_sms=3)},
            {"config": baseline_config().derive(max_warps_per_sm=2)},
            {"seed": 7},
            {"footprint_scale": 2.0},
            {"scale": 0.5},
        ],
        ids=["page_size", "num_sms", "warps_per_sm", "seed", "footprint", "scale"],
    )
    def test_a_changed_input_compiles_afresh(self, change):
        spec = get_spec("gemm")
        base = TraceWorkload(spec, baseline_config(), scale=0.05)
        kwargs = {"scale": 0.05, **change}
        other = TraceWorkload(spec, kwargs.pop("config", baseline_config()), **kwargs)
        assert other.programs is not base.programs
        fresh, _touched = other._compile()
        assert other.programs == fresh

    def test_scales_with_one_effective_length_share(self):
        # Below the scale floor every irregular benchmark runs one memory
        # instruction per warp, so both scales compile the same trace.
        spec = get_spec("gups")
        low = TraceWorkload(spec, baseline_config(), scale=0.05)
        high = TraceWorkload(spec, baseline_config(), scale=0.1)
        assert low.mem_insts_per_warp == high.mem_insts_per_warp == 1
        assert high.programs is low.programs

    def test_one_trace_is_held(self):
        config = baseline_config().derive(num_sms=2)
        gups = TraceWorkload(get_spec("gups"), config)
        TraceWorkload(get_spec("gemm"), config)
        again = TraceWorkload(get_spec("gups"), config)
        assert again.programs is not gups.programs
        assert again.programs == gups.programs

    def test_generate_subclasses_are_never_shared(self):
        config = baseline_config()
        first = MicrobenchWorkload(config, 8)
        second = MicrobenchWorkload(config, 8)
        assert second.programs is not first.programs
        assert second.programs == first.programs


class TestMicrobench:
    def test_exact_warp_count(self):
        config = baseline_config()
        for concurrency in (1, 46, 100):
            workload = MicrobenchWorkload(config, concurrency)
            assert sum(map(len, workload.programs)) == concurrency

    def test_single_lane_accesses(self):
        workload = MicrobenchWorkload(baseline_config(), 4)
        for sm in workload.traces:
            for warp in sm:
                for inst in warp:
                    if inst[0] == "m":
                        assert len(inst[1]) == 1

    def test_each_access_new_page(self):
        workload = MicrobenchWorkload(baseline_config(), 2)
        lines_per_page = workload.page_size // 128
        for sm in workload.traces:
            for warp in sm:
                pages = [
                    inst[1][0] // lines_per_page for inst in warp if inst[0] == "m"
                ]
                assert len(set(pages)) == len(pages)

    def test_rejects_zero_concurrency(self):
        with pytest.raises(ValueError):
            MicrobenchWorkload(baseline_config(), 0)
