"""Tests for the CoLT-style coalesced TLB (Section 2.3 baseline)."""

import pytest

from repro.config import TLBConfig, baseline_config
from repro.gpu.gpu import GPUSimulator
from repro.sim.stats import StatsRegistry
from repro.tlb.coalesced import CoalescedTLB
from repro.workloads.base import TraceWorkload, WorkloadSpec


def make_tlb(span=4, mapping=None, entries=8, associativity=4):
    mapping = mapping if mapping is not None else {}
    config = TLBConfig(
        entries=entries,
        associativity=associativity,
        latency=80,
        mshr_entries=4,
        mshr_merges=4,
    )
    return CoalescedTLB(
        config,
        StatsRegistry(),
        name="l2tlb",
        span=span,
        translate=mapping.get,
    )


class TestCoalescing:
    def test_contiguous_block_coalesces_into_one_entry(self):
        mapping = {vpn: 100 + vpn for vpn in range(4)}  # fully contiguous
        tlb = make_tlb(mapping=mapping)
        tlb.fill(0, mapping[0])
        for vpn in range(4):
            assert tlb.lookup(vpn) == 100 + vpn
        assert tlb.occupancy() == 1

    def test_refill_with_another_base_drops_the_stale_pages(self):
        # 238 and 239 share a block but are not contiguous: each fill
        # implies a different base PFN, so only the latest page stays.
        mapping = {238: 0, 239: 0}
        tlb = make_tlb(mapping=mapping)
        tlb.fill(238, 0)
        tlb.fill(239, 0)
        assert tlb.lookup(238) is None
        assert tlb.lookup(239) == 0

    def test_non_contiguous_neighbours_excluded(self):
        mapping = {0: 100, 1: 777, 2: 102, 3: 888}
        tlb = make_tlb(mapping=mapping)
        tlb.fill(0, 100)
        assert tlb.lookup(0) == 100
        assert tlb.lookup(2) == 102  # contiguous with base
        assert tlb.lookup(1) is None  # scattered frame: not covered
        assert tlb.lookup(3) is None

    def test_unmapped_neighbours_tolerated(self):
        tlb = make_tlb(mapping={1: 101})
        tlb.fill(1, 101)
        assert tlb.lookup(1) == 101
        assert tlb.lookup(0) is None

    def test_probe_errors_propagate(self):
        # The probe contract is "None when unmapped"; anything it raises
        # is a bug in the probe and must not read as an unmapped page.
        def broken(vpn):
            raise KeyError(vpn)

        tlb = make_tlb()
        tlb._translate = broken
        with pytest.raises(KeyError):
            tlb.fill(0, 100)

    def test_blocks_are_aligned(self):
        mapping = {vpn: 200 + vpn for vpn in range(8)}
        tlb = make_tlb(mapping=mapping)
        tlb.fill(5, 205)  # block 4..7
        assert tlb.lookup(4) == 204
        assert tlb.lookup(3) is None  # other block

    def test_mask_grows_on_refill(self):
        mapping = {0: 100, 1: 101}
        tlb = make_tlb(mapping=dict(mapping))
        tlb.fill(0, 100)
        mapping_all = {0: 100, 1: 101, 2: 102}
        tlb._translate = mapping_all.get
        tlb.fill(2, 102)
        assert tlb.lookup(2) == 102
        assert tlb.lookup(0) == 100
        assert tlb.occupancy() == 1

    def test_span_validated(self):
        # GPUConfig owns the span and its rule: 1 disables coalescing,
        # any other span must be a power of two.
        assert baseline_config().derive(tlb_coalescing_span=1).tlb_coalescing_span == 1
        for span in (0, 3):
            with pytest.raises(ValueError, match="coalescing span"):
                baseline_config().derive(tlb_coalescing_span=span)


class TestInvalidation:
    def test_shootdown_clears_single_page(self):
        mapping = {vpn: 100 + vpn for vpn in range(4)}
        tlb = make_tlb(mapping=mapping)
        tlb.fill(0, 100)
        assert tlb.invalidate(1) is True
        assert tlb.lookup(1) is None
        assert tlb.lookup(0) == 100  # rest of the block survives

    def test_empty_entry_evicted(self):
        tlb = make_tlb(mapping={0: 100})
        tlb.fill(0, 100)
        tlb.invalidate(0)
        assert tlb.occupancy() == 0

    def test_invalidate_uncovered_page(self):
        tlb = make_tlb(mapping={0: 100})
        tlb.fill(0, 100)
        assert tlb.invalidate(2) is False


class TestPendingInterplay:
    def test_pending_slot_resolution_installs_block(self):
        mapping = {vpn: 100 + vpn for vpn in range(4)}
        tlb = make_tlb(mapping=mapping)
        assert tlb.allocate_pending(2, waiter="w")
        waiters = tlb.fill(2, 102)
        assert waiters == ["w"]
        assert tlb.pending_entries == 0
        assert tlb.lookup(3) == 103  # coalesced on resolution


class _TwoPhaseWorkload(TraceWorkload):
    """Phase 1 touches one page per block; phase 2 touches its neighbour.

    With coalescing and contiguous frames, phase 2 hits the block
    entries phase 1 installed; without coalescing every phase-2 page
    misses again.  Phases are separated by compute so the second access
    happens after the first fill (coalescing cannot help concurrent
    misses).
    """

    BLOCKS = 48

    def _generate(self):
        lines_per_page = 512
        trace = []
        for phase_offset in (0, 1):
            for block in range(self.BLOCKS):
                vpn = block * 4 + phase_offset
                trace.append(("m", (vpn * lines_per_page,)))
                trace.append(("c", 2000))  # drain in-flight walks
        return [[trace]] + [[] for _ in range(self.config.num_sms - 1)]


class TestCoalescedCorrectnessProperty:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        mapping=st.dictionaries(
            st.integers(min_value=0, max_value=255),
            st.integers(min_value=0, max_value=1 << 20),
            min_size=1,
            max_size=64,
        ),
        fills=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=40),
    )
    @settings(max_examples=40)
    def test_lookup_never_returns_a_wrong_pfn(self, mapping, fills):
        """Safety: whatever gets coalesced, hits must match the mapping."""
        tlb = make_tlb(mapping=mapping, entries=16, associativity=4)
        for vpn in fills:
            if vpn in mapping:
                tlb.fill(vpn, mapping[vpn])
        for vpn in range(256):
            pfn = tlb.lookup(vpn)
            if pfn is not None:
                assert mapping.get(vpn) == pfn


class TestEndToEndCoalescing:
    def spec(self):
        return WorkloadSpec(
            name="colt_two_phase",
            abbr="colt",
            category="irregular",
            footprint_mb=128,
            pattern="streaming",
            warps_per_sm=1,
            mem_insts_per_warp=1,
        )

    def run(self, span, contiguous):
        config = baseline_config().derive(num_sms=4, tlb_coalescing_span=span)
        workload = _TwoPhaseWorkload(
            self.spec(), config, contiguous_frames=contiguous
        )
        return GPUSimulator(config, workload).run()

    def test_coalescing_with_contiguity_saves_walks(self):
        plain = self.run(span=1, contiguous=True)
        colt = self.run(span=4, contiguous=True)
        # Phase 2 hits the coalesced entries: roughly half the walks.
        assert colt.walks_completed < 0.7 * plain.walks_completed
        assert colt.stats.counters.get("l2tlb.coalesced_fills") > 0
        assert colt.cycles < plain.cycles

    def test_scattered_frames_defeat_coalescing(self):
        colt = self.run(span=4, contiguous=False)
        plain = self.run(span=1, contiguous=False)
        # With a scattering allocator virtually-adjacent pages almost
        # never land in adjacent frames: the paper's 2.3 argument.
        assert colt.stats.counters.get("l2tlb.coalesced_fills") < 0.1 * max(
            1, colt.walks_completed
        )
        assert colt.walks_completed == plain.walks_completed
