"""Unit + property tests for the radix page table, allocator, and space."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PageTableConfig
from repro.pagetable.address import AddressLayout
from repro.pagetable.allocator import FrameAllocator, OutOfMemoryError, PhysicalMemoryMap
from repro.pagetable.radix import NODE_BYTES, PTE_BYTES, PageFault, RadixPageTable
from repro.pagetable.space import AddressSpace


def make_table() -> RadixPageTable:
    layout = AddressLayout.from_config(PageTableConfig())
    return RadixPageTable(layout, FrameAllocator(0, 1 << 14))


class TestFrameAllocator:
    def test_sequential_allocation(self):
        alloc = FrameAllocator(100, 4)
        assert [alloc.allocate() for _ in range(4)] == [100, 101, 102, 103]

    def test_exhaustion(self):
        alloc = FrameAllocator(0, 2)
        alloc.allocate()
        alloc.allocate()
        with pytest.raises(OutOfMemoryError):
            alloc.allocate()

    def test_scattered_allocation_is_a_bijection(self):
        n = 257
        alloc = FrameAllocator(0, n, shuffle_seed=7)
        frames = [alloc.allocate() for _ in range(n)]
        assert sorted(frames) == list(range(n))
        # Scattering actually scatters: not the identity order.
        assert frames != list(range(n))

    @given(seed=st.integers(min_value=0, max_value=10_000),
           n=st.integers(min_value=2, max_value=512))
    @settings(max_examples=30)
    def test_scatter_bijection_property(self, seed, n):
        alloc = FrameAllocator(10, n, shuffle_seed=seed)
        frames = sorted(alloc.allocate() for _ in range(n))
        assert frames == list(range(10, 10 + n))

    def test_remaining_tracks_allocations(self):
        alloc = FrameAllocator(0, 5)
        alloc.allocate()
        assert alloc.remaining == 4 and alloc.capacity == 5


class TestPhysicalMemoryMap:
    def test_regions_do_not_overlap(self):
        mmap = PhysicalMemoryMap(20, pt_frames=16)
        pt = mmap.page_table_region.allocate()
        data = mmap.data_region.allocate()
        assert pt < 16 <= data

    def test_pt_region_must_fit(self):
        with pytest.raises(ValueError):
            PhysicalMemoryMap(4, pt_frames=100)


class TestRadixPageTable:
    def test_map_translate_round_trip(self):
        table = make_table()
        table.map(0x1234, 0x777)
        assert table.translate(0x1234) == 0x777

    def test_unmapped_raises_page_fault(self):
        table = make_table()
        with pytest.raises(PageFault) as exc:
            table.translate(0x99)
        assert exc.value.vpn == 0x99

    def test_remap_updates_pfn(self):
        table = make_table()
        table.map(5, 10)
        table.map(5, 11)
        assert table.translate(5) == 11
        assert table.mapped_pages == 1

    def test_walk_path_depth_equals_levels(self):
        table = make_table()
        table.map(0xABCDE, 42)
        steps = table.walk_path(0xABCDE)
        assert len(steps) == table.layout.levels
        assert steps[-1].is_leaf and steps[-1].value == 42
        assert all(step.valid for step in steps)

    def test_walk_path_levels_descend(self):
        table = make_table()
        table.map(7, 9)
        steps = table.walk_path(7)
        assert [s.level for s in steps] == [4, 3, 2, 1]

    def test_walk_path_from_pwc_hit_level(self):
        table = make_table()
        table.map(0xF00, 3)
        steps = table.walk_path(0xF00, start_level=2)
        assert [s.level for s in steps] == [2, 1]
        assert steps[-1].value == 3

    def test_walk_path_reports_fault_level(self):
        table = make_table()
        table.map(0x200000000 - 1, 1)  # populate some structure
        steps = table.walk_path(0)  # untouched subtree
        assert not steps[-1].valid
        assert steps[-1].level >= 1

    def test_pte_addresses_are_distinct_and_aligned(self):
        table = make_table()
        table.map(0x1000, 1)
        table.map(0x1001, 2)
        leaf_a = table.walk_path(0x1000)[-1]
        leaf_b = table.walk_path(0x1001)[-1]
        assert leaf_b.pte_address - leaf_a.pte_address == PTE_BYTES
        assert leaf_a.pte_address % PTE_BYTES == 0

    def test_shared_intermediate_nodes(self):
        table = make_table()
        table.map(0x1000, 1)
        table.map(0x1001, 2)  # same leaf table
        for level in range(1, table.layout.levels + 1):
            assert table.node_base(0x1001, level) == table.node_base(0x1000, level)

    def test_node_base_matches_walk(self):
        table = make_table()
        table.map(0x4321, 5)
        steps = table.walk_path(0x4321)
        # The value read at level k is the base of the level-(k-1) node.
        for step in steps[:-1]:
            assert table.node_base(0x4321, step.level - 1) == step.value

    def test_nodes_fit_in_page_table_region(self):
        table = make_table()
        vpns = range(0, 1 << 12, 7)
        for vpn in vpns:
            table.map(vpn, vpn + 1)
        nodes = {
            table.node_base(vpn, level)
            for vpn in vpns
            for level in range(1, table.layout.levels + 1)
        }
        allocator = table._allocator
        frames = allocator.capacity - allocator.remaining
        # Nodes are 4KB and sub-allocated inside 64KB frames.
        assert len(nodes) * NODE_BYTES <= frames * 64 * 1024

    @given(pairs=st.dictionaries(
        st.integers(min_value=0, max_value=(1 << 33) - 1),
        st.integers(min_value=0, max_value=(1 << 31) - 1),
        min_size=1, max_size=60,
    ))
    @settings(max_examples=25)
    def test_translate_matches_mappings_property(self, pairs):
        table = make_table()
        for vpn, pfn in pairs.items():
            table.map(vpn, pfn)
        for vpn, pfn in pairs.items():
            assert table.translate(vpn) == pfn
            steps = table.walk_path(vpn)
            assert steps[-1].value == pfn


class TestAddressSpace:
    def test_ensure_mapped_is_idempotent(self):
        space = AddressSpace(PageTableConfig())
        pfn1 = space.ensure_mapped(0x42)
        pfn2 = space.ensure_mapped(0x42)
        assert pfn1 == pfn2
        assert space.mapped_pages == 1

    def test_distinct_pages_get_distinct_frames(self):
        space = AddressSpace(PageTableConfig())
        frames = {space.ensure_mapped(vpn) for vpn in range(64)}
        assert len(frames) == 64

    def test_hashed_mirror_stays_consistent(self):
        space = AddressSpace(PageTableConfig(), with_hashed_table=True)
        for vpn in range(20):
            space.ensure_mapped(vpn)
        assert space.hashed is not None
        for vpn in range(20):
            assert space.hashed.lookup(vpn).pfn == space.translate(vpn)

    def test_non_fault_error_propagates_before_allocating(self):
        space = AddressSpace(PageTableConfig(), with_hashed_table=True)
        with pytest.raises(TypeError):
            space.ensure_mapped("7")  # type: ignore[arg-type]
        region = space.memory.data_region
        assert region.remaining == region.capacity
        assert space.mapped_pages == 0

    def test_map_fresh_matches_ensure_mapped(self):
        vpns = [3, 70_000, 5, 1 << 20]
        fresh = AddressSpace(PageTableConfig(), with_hashed_table=True)
        fresh.map_fresh(vpns)
        probed = AddressSpace(PageTableConfig(), with_hashed_table=True)
        for vpn in vpns:
            probed.ensure_mapped(vpn)
        assert fresh.mapped_pages == probed.mapped_pages == len(vpns)
        for vpn in vpns:
            assert fresh.translate(vpn) == probed.translate(vpn)
            assert fresh.hashed.lookup(vpn).pfn == fresh.translate(vpn)
