"""Unit + property tests for address arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import PAGE_SIZE_2M, PAGE_SIZE_64K, PageTableConfig
from repro.pagetable.address import RADIX_BITS_PER_LEVEL, AddressLayout


def layout_64k() -> AddressLayout:
    return AddressLayout.from_config(PageTableConfig())


def layout_2m() -> AddressLayout:
    return AddressLayout.from_config(
        PageTableConfig(page_size=PAGE_SIZE_2M, levels=3)
    )


class TestGeometry:
    def test_64k_layout(self):
        layout = layout_64k()
        assert layout.offset_bits == 16
        assert layout.vpn_bits == 33
        assert layout.pfn_bits == 31
        assert layout.levels == 4

    def test_2m_layout(self):
        layout = layout_2m()
        assert layout.offset_bits == 21
        assert layout.vpn_bits == 28
        assert layout.pfn_bits == 26

    def test_level_bits_sum_to_vpn_bits(self):
        for layout in (layout_64k(), layout_2m()):
            total = sum(layout.level_bits(lvl) for lvl in range(1, layout.levels + 1))
            assert total == layout.vpn_bits

    def test_non_root_levels_use_nine_bits(self):
        layout = layout_64k()
        for lvl in range(1, layout.levels):
            assert layout.level_bits(lvl) == RADIX_BITS_PER_LEVEL

    def test_level_bounds_checked(self):
        layout = layout_64k()
        with pytest.raises(ValueError):
            layout.level_index(0, 0)
        with pytest.raises(ValueError):
            layout.level_index(0, layout.levels + 1)


class TestSplitting:
    def test_va_round_trip(self):
        layout = layout_64k()
        va = layout.virtual_address(0x1234, 0xBEEF)
        assert layout.vpn(va) == 0x1234
        assert layout.offset(va) == 0xBEEF

    def test_offset_must_fit_page(self):
        layout = layout_64k()
        with pytest.raises(ValueError):
            layout.virtual_address(1, PAGE_SIZE_64K)
        with pytest.raises(ValueError):
            layout.physical_address(1, PAGE_SIZE_64K)

    @given(vpn=st.integers(min_value=0, max_value=(1 << 33) - 1),
           offset=st.integers(min_value=0, max_value=PAGE_SIZE_64K - 1))
    def test_round_trip_property(self, vpn, offset):
        layout = layout_64k()
        va = layout.virtual_address(vpn, offset)
        assert layout.vpn(va) == vpn
        assert layout.offset(va) == offset


class TestRadixIndexing:
    @given(vpn=st.integers(min_value=0, max_value=(1 << 33) - 1))
    def test_level_indices_reassemble_vpn(self, vpn):
        layout = layout_64k()
        rebuilt = 0
        shift = 0
        for level in range(1, layout.levels + 1):
            rebuilt |= layout.level_index(vpn, level) << shift
            shift += layout.level_bits(level)
        assert rebuilt == vpn

    def test_neighbours_share_leaf_table(self):
        layout = layout_64k()

        def path_to_leaf(vpn):
            return [layout.level_index(vpn, level) for level in range(2, layout.levels + 1)]

        # VPNs differing only in the low 9 bits live in the same leaf node.
        assert path_to_leaf(0x1200) == path_to_leaf(0x13FF)
        assert path_to_leaf(0x1200) != path_to_leaf(0x1400)
