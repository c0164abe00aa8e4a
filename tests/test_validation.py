"""Methodology validation checks (Section 6.1).

The paper validates its simulated page-table access latency (250-450
cycles) against a real A2000 (300-400 cycles).  These tests pin our
model to the same plausibility window and cross-check the ISA program
model against the radix walker.
"""

from repro.config import baseline_config
from repro.core.isa import Opcode, PageWalkProgram
from repro.harness.runner import Runner
from repro.pagetable.address import AddressLayout
from repro.pagetable.allocator import FrameAllocator
from repro.pagetable.radix import RadixPageTable
from repro.config import PageTableConfig


class TestWalkLatencyWindow:
    def test_hardware_walk_access_latency_plausible(self):
        """Mean per-walk page-table access time sits in the 150-800
        cycle window around the paper's validated 250-450 range (our L2
        cache behaviour differs from the A2000's, hence the slack)."""
        result = Runner().run(baseline_config().derive(num_sms=8), "dc", scale=0.5)
        assert result.walks_completed > 50
        assert 150 <= result.walk_access <= 800

    def test_queueing_dominates_at_baseline(self):
        # An 8-SM GPU generates ~1/6 of the full machine's pressure, so
        # the queueing share lands below the 46-SM figure (~0.95, which
        # the Figure 7 bench asserts); it must still dominate.
        result = Runner().run(baseline_config().derive(num_sms=8), "dc", scale=0.5)
        assert result.queueing_fraction > 0.6


class TestProgramModelConsistency:
    def test_ldpt_count_matches_walk_depth(self):
        layout = AddressLayout.from_config(PageTableConfig())
        table = RadixPageTable(layout, FrameAllocator(0, 1 << 12))
        table.map(0xBEEF, 7)
        for start_level in range(1, layout.levels + 1):
            steps = table.walk_path(0xBEEF, start_level)
            program = PageWalkProgram.for_walk(start_level)
            ldpts = sum(1 for i in program if i.opcode is Opcode.LDPT)
            assert ldpts == len(steps)

    def test_fpwc_count_matches_intermediate_levels(self):
        for start_level in (2, 3, 4):
            program = PageWalkProgram.for_walk(start_level)
            fpwcs = sum(1 for i in program if i.opcode is Opcode.FPWC)
            assert fpwcs == start_level - 1
