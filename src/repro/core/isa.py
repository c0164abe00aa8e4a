"""SoftWalker ISA extension (Table 2) and the PW-warp code block (Figure 14).

Four instructions let a GPU thread complete an entire page walk without
hardware walkers:

* ``LDPT``  — load a PTE by physical address, bypassing the TLBs.
* ``FL2T``  — fill the L2 TLB with the final translation (also
  decrements the Request Distributor's per-core counter).
* ``FPWC``  — fill a Page Walk Cache entry with a discovered node.
* ``FFB``   — log an invalid PTE into the Fault Buffer for UVM handling.

:class:`PageWalkProgram` renders the Figure 14 loop into a concrete
instruction sequence for a walk of a given depth.  The timing model
charges its prologue length; tests check the loop's structure against
the radix walker.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Opcode(enum.Enum):
    """Ordinary and extended opcodes appearing in the PW-warp routine."""

    #: Integer ALU work: request decode, offset computation, loop control.
    IALU = "ialu"
    #: Load from the SoftPWB in shared memory.
    LDS = "lds"
    #: Extended: load page table entry, bypassing the TLB (Table 2).
    LDPT = "ldpt"
    #: Extended: fill L2 TLB entry with the PTE (Table 2).
    FL2T = "fl2t"
    #: Extended: fill Page Walk Cache entry (Table 2).
    FPWC = "fpwc"
    #: Extended: fill Fault Buffer with invalid PTE (Table 2).
    FFB = "ffb"


#: The extended opcodes SoftWalker adds to the GPU ISA.
EXTENSION_OPCODES = (Opcode.LDPT, Opcode.FL2T, Opcode.FPWC, Opcode.FFB)

ISA_DESCRIPTIONS = {
    Opcode.LDPT: (
        "Load page table entry from the page table. "
        "This instruction bypasses accessing TLB."
    ),
    Opcode.FL2T: "Fill L2 TLB entry with the PTE.",
    Opcode.FPWC: "Fill Page Walk Cache entry.",
    Opcode.FFB: "Fill Fault Buffer with invalid PTE.",
}

#: Architectural registers one PW-warp thread needs (Section 4.2: "a PW
#: Warp requires only 16 registers").
PW_WARP_REGISTERS = 16


@dataclass(frozen=True)
class Instruction:
    """One instruction of the PW-warp routine."""

    opcode: Opcode
    #: Page-table level the instruction operates on (0 = outside loop).
    level: int = 0


class PageWalkProgram:
    """The software page-walk routine of Figure 14, as data.

    The driver preloads this code into device memory before kernel
    launch; each PW-warp thread executes it once per assigned request.
    """

    #: Instructions before the loop: load the request from the SoftPWB
    #: and decode base address, VPN, and starting level (Fig. 14 l.1-6).
    PROLOGUE = (
        Instruction(Opcode.IALU),
        Instruction(Opcode.LDS),
        Instruction(Opcode.IALU),
        Instruction(Opcode.IALU),
        Instruction(Opcode.IALU),
    )

    @staticmethod
    def level_body(level: int, *, is_leaf: bool, faulted: bool = False) -> tuple[Instruction, ...]:
        """One loop iteration: offset compute, LDPT, then FPWC or FFB/FL2T."""
        body = [
            Instruction(Opcode.IALU, level),  # offset computation (l.10)
            Instruction(Opcode.IALU, level),  # base + offset address math
            Instruction(Opcode.LDPT, level),  # page table access (l.13)
        ]
        if faulted:
            body.append(Instruction(Opcode.FFB, level))  # fault logging (l.17)
        elif is_leaf:
            body.append(Instruction(Opcode.FL2T, level))  # TLB fill (l.26)
        else:
            body.append(Instruction(Opcode.FPWC, level))  # PWC update (l.21)
        return tuple(body)

    @classmethod
    def for_walk(
        cls, start_level: int, *, fault_level: int | None = None
    ) -> tuple[Instruction, ...]:
        """The full dynamic instruction trace of one walk.

        Args:
            start_level: level of the first table consulted (PWC hit level).
            fault_level: if set, the walk finds an invalid PTE there and
                terminates with FFB instead of reaching FL2T.
        """
        if start_level < 1:
            raise ValueError("walk must start at level >= 1")
        trace: list[Instruction] = list(cls.PROLOGUE)
        for level in range(start_level, 0, -1):
            faulted = fault_level is not None and level == fault_level
            trace.extend(cls.level_body(level, is_leaf=level == 1, faulted=faulted))
            if faulted:
                break
        return tuple(trace)
