"""Unit tests for the ISA extension model and the SoftPWB."""

from collections import Counter

import pytest

from repro.core.isa import (
    EXTENSION_OPCODES,
    ISA_DESCRIPTIONS,
    PW_WARP_REGISTERS,
    Opcode,
    PageWalkProgram,
)
from repro.core.softpwb import ENTRY_BITS, SlotState, SoftPWB
from repro.ptw.request import WalkRequest


def make_request(vpn=1) -> WalkRequest:
    return WalkRequest(vpn=vpn, enqueue_time=0, start_level=4, node_base=0)


class TestISA:
    def test_table2_opcodes_present(self):
        names = {op.name for op in EXTENSION_OPCODES}
        assert names == {"LDPT", "FL2T", "FPWC", "FFB"}
        for op in EXTENSION_OPCODES:
            assert op in ISA_DESCRIPTIONS

    def test_pw_warp_register_budget(self):
        assert PW_WARP_REGISTERS == 16

    def test_full_walk_ends_with_fl2t(self):
        trace = PageWalkProgram.for_walk(start_level=4)
        assert trace[-1].opcode is Opcode.FL2T
        ldpts = [i for i in trace if i.opcode is Opcode.LDPT]
        assert len(ldpts) == 4  # one page-table read per level
        assert [i.level for i in ldpts] == [4, 3, 2, 1]

    def test_intermediate_levels_fill_pwc(self):
        trace = PageWalkProgram.for_walk(start_level=3)
        fpwcs = [i for i in trace if i.opcode is Opcode.FPWC]
        assert [i.level for i in fpwcs] == [3, 2]  # never the leaf

    def test_pwc_hit_walk_is_shorter(self):
        full = PageWalkProgram.for_walk(start_level=4)
        short = PageWalkProgram.for_walk(start_level=1)
        assert len(short) < len(full)
        assert short[-1].opcode is Opcode.FL2T

    def test_faulting_walk_ends_with_ffb(self):
        trace = PageWalkProgram.for_walk(start_level=4, fault_level=2)
        assert trace[-1].opcode is Opcode.FFB
        assert trace[-1].level == 2
        # No FL2T: the translation never completed.
        assert all(i.opcode is not Opcode.FL2T for i in trace)

    def test_instruction_counts(self):
        counts = Counter(i.opcode for i in PageWalkProgram.for_walk(start_level=2))
        assert counts[Opcode.LDPT] == 2
        assert counts[Opcode.FL2T] == 1
        assert counts[Opcode.FPWC] == 1
        assert counts[Opcode.LDS] == 1

    def test_invalid_start_level(self):
        with pytest.raises(ValueError):
            PageWalkProgram.for_walk(start_level=0)


class TestSoftPWB:
    def test_entry_is_96_bits(self):
        assert ENTRY_BITS == 33 + 31 + 2

    def test_insert_take_complete_cycle(self):
        pwb = SoftPWB(2)
        index = pwb.insert(make_request())
        assert index == 0
        assert pwb.state(0) is SlotState.VALID
        taken = pwb.take_valid()
        assert taken is not None and taken[0] == 0
        assert pwb.state(0) is SlotState.PROCESSING
        pwb.complete(0)
        assert pwb.state(0) is SlotState.INVALID

    def test_insert_fails_when_full(self):
        pwb = SoftPWB(1)
        assert pwb.insert(make_request()) == 0
        assert pwb.insert(make_request()) is None

    def test_take_valid_skips_processing(self):
        pwb = SoftPWB(2)
        pwb.insert(make_request(1))
        pwb.insert(make_request(2))
        first = pwb.take_valid()
        second = pwb.take_valid()
        assert first[1].vpn == 1 and second[1].vpn == 2
        assert pwb.take_valid() is None

    def test_complete_requires_processing_state(self):
        pwb = SoftPWB(1)
        pwb.insert(make_request())
        with pytest.raises(ValueError):
            pwb.complete(0)

    def test_counts_and_bitmap(self):
        pwb = SoftPWB(4)
        pwb.insert(make_request())
        pwb.insert(make_request())
        pwb.take_valid()
        assert pwb.count(SlotState.VALID) == 1
        assert pwb.count(SlotState.PROCESSING) == 1
        assert pwb.occupied == 2

    def test_needs_at_least_one_entry(self):
        with pytest.raises(ValueError):
            SoftPWB(0)
