"""Unit + property tests for the hashed page table (FS-HPT)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PageTableConfig
from repro.pagetable.address import AddressLayout
from repro.pagetable.allocator import FrameAllocator
from repro.pagetable.hashed import SLOT_BYTES, HashedPageTable
from repro.pagetable.radix import PageFault


def make_hpt(num_slots=1 << 10) -> HashedPageTable:
    layout = AddressLayout.from_config(PageTableConfig())
    return HashedPageTable(layout, FrameAllocator(0, 1 << 12), num_slots=num_slots)


class TestBasics:
    def test_map_lookup_round_trip(self):
        hpt = make_hpt()
        hpt.map(0x123, 0x456)
        assert hpt.lookup(0x123).pfn == 0x456

    def test_unmapped_raises(self):
        hpt = make_hpt()
        with pytest.raises(PageFault):
            hpt.lookup(0x42)

    def test_probe_returns_addresses_even_on_fault(self):
        hpt = make_hpt()
        pfn, probes = hpt.probe(0x42)
        assert pfn is None
        assert len(probes) >= 1  # the fault still costs a memory read

    def test_remap_updates(self):
        hpt = make_hpt()
        hpt.map(7, 1)
        hpt.map(7, 2)
        assert hpt.lookup(7).pfn == 2
        assert hpt.mapped_pages == 1

    def test_slot_count_must_be_power_of_two(self):
        layout = AddressLayout.from_config(PageTableConfig())
        with pytest.raises(ValueError):
            HashedPageTable(layout, FrameAllocator(0, 64), num_slots=1000)


class TestProbeBehaviour:
    def test_low_load_lookups_take_one_access(self):
        hpt = make_hpt(num_slots=1 << 12)
        for vpn in range(0, 64):
            hpt.map(vpn, vpn)
        accesses = [hpt.lookup(vpn).accesses for vpn in range(64)]
        # The GPU-HPT insight: collisions are rare at low load factor.
        assert sum(accesses) / len(accesses) < 1.3

    def test_probe_addresses_are_slot_aligned_and_in_table(self):
        hpt = make_hpt()
        hpt.map(99, 1)
        lookup = hpt.lookup(99)
        for address in lookup.probe_addresses:
            assert (address - hpt._base) % SLOT_BYTES == 0
            assert 0 <= (address - hpt._base) // SLOT_BYTES < hpt.num_slots

    def test_collision_chain_resolves(self):
        hpt = make_hpt(num_slots=1 << 3)
        # Fill most of a tiny table to force linear probing.
        for vpn in range(6):
            hpt.map(vpn * 1000, vpn)
        for vpn in range(6):
            assert hpt.lookup(vpn * 1000).pfn == vpn

    @given(mapping=st.dictionaries(
        st.integers(min_value=0, max_value=(1 << 33) - 1),
        st.integers(min_value=0, max_value=(1 << 31) - 1),
        min_size=1, max_size=50,
    ))
    @settings(max_examples=25)
    def test_lookup_matches_mapping_property(self, mapping):
        hpt = make_hpt(num_slots=1 << 8)
        for vpn, pfn in mapping.items():
            hpt.map(vpn, pfn)
        for vpn, pfn in mapping.items():
            assert hpt.lookup(vpn).pfn == pfn

    def test_table_full(self):
        hpt = make_hpt(num_slots=4)
        for vpn in range(4):
            hpt.map(vpn * 17, vpn)
        with pytest.raises(RuntimeError):
            hpt.map(999, 1)
