"""Unit tests for the area model and report formatting."""

import pytest

from repro.analysis.area import (
    GA102_DIE_AREA_MM2,
    PW_WARP_CONTEXT_BITS,
    PTWAreaModel,
    cam_area,
    hardware_overhead_summary,
    softwalker_relative_area,
    softwalker_storage_bits,
)
from repro.analysis.report import format_table, geomean
from repro.config import softwalker_config


class TestCamArea:
    def test_linear_in_entries_and_width(self):
        assert cam_area(64, 96) == 2 * cam_area(32, 96)
        assert cam_area(32, 192) == 2 * cam_area(32, 96)

    def test_superlinear_in_ports(self):
        one = cam_area(32, 96, ports=1)
        two = cam_area(32, 96, ports=2)
        four = cam_area(32, 96, ports=4)
        assert two > 2 * one
        assert four / two > two / one  # growth accelerates

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            cam_area(-1, 96)
        with pytest.raises(ValueError):
            cam_area(32, 96, ports=0)


class TestPTWAreaModel:
    def test_baseline_normalizes_to_one(self):
        model = PTWAreaModel()
        assert model.relative_area(32, 1) == pytest.approx(1.0)

    def test_walker_scaling_grows_area(self):
        model = PTWAreaModel()
        assert model.relative_area(64) > 1.9
        assert model.relative_area(128) > model.relative_area(64)

    def test_port_scaling_explodes(self):
        model = PTWAreaModel()
        # Prior work: 192 walkers with 18 ports ~ expensive CAM scaling.
        assert model.relative_area(192, 18) > 20 * model.relative_area(192, 1)


class TestSoftWalkerOverhead:
    def test_pw_warp_context_matches_paper(self):
        # 64-bit instruction buffer + 126-bit scoreboard + 8x160-bit stack.
        assert PW_WARP_CONTEXT_BITS == 1470

    def test_storage_bits(self):
        bits = softwalker_storage_bits(softwalker_config())
        assert bits["controller_bits_per_sm"] == 64
        assert bits["in_tlb_pending_bits"] == 1024
        assert bits["per_sm_total_bits"] == 1470 + 64

    def test_softwalker_area_is_below_baseline_subsystem(self):
        assert softwalker_relative_area(softwalker_config()) < 1.0

    def test_overhead_summary(self):
        summary = hardware_overhead_summary(softwalker_config())
        assert summary["die_area_mm2"] == GA102_DIE_AREA_MM2
        assert 0 < summary["control_fraction_of_die"] < 1e-4


class TestGeomean:
    def test_geomean_basics(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([3.0]) == pytest.approx(3.0)
        assert geomean([]) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xyz", 0.001]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "0.0010" in text  # small floats keep precision
        assert "xyz" in text
