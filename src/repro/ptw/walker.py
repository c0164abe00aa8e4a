"""The page-table traversal itself, shared by hardware and software walkers.

A walk is a dependent chain of PTE reads — one per remaining radix level
— each priced by the memory system (L2 data cache, then DRAM), unless a
fixed per-level latency override is active (Figure 23's sensitivity
knob).  Intermediate node pointers are pushed into the Page Walk Cache
as they are discovered, which is what lets subsequent walks start below
the root.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.pagetable.radix import RadixPageTable
from repro.tlb.pwc import PageWalkCache


class WalkOutcome(NamedTuple):
    """Result of traversing the radix table for one VPN."""

    pfn: int | None
    finish_time: int
    #: Cycles spent on PTE memory accesses (the paper's "page table
    #: access latency" component).
    access_cycles: int
    levels_accessed: int
    faulted: bool
    fault_level: int
    #: Physical address of the final-level PTE (None if the walk
    #: faulted above the leaf).  NHA coalescing keys on this.
    leaf_pte_address: int | None


class PteMemoryPort:
    """Where walkers read PTEs from: L2 cache/DRAM or a fixed latency."""

    def __init__(self, memory, fixed_level_latency: int | None = None) -> None:
        self._memory = memory
        self._fixed = fixed_level_latency

    def read(self, address: int, now: int) -> int:
        """Issue one PTE read at ``now``; returns its completion cycle."""
        if self._fixed is not None:
            return now + self._fixed
        return self._memory.pte_access(address, now)


def execute_walk(
    page_table: RadixPageTable,
    pte_port: PteMemoryPort,
    pwc: PageWalkCache | None,
    vpn: int,
    start_level: int,
    start_time: int,
) -> WalkOutcome:
    """Traverse the page table for ``vpn`` starting at ``start_level``.

    Timestamp-style execution: each level's read begins when the previous
    one finished (the radix walk is a pointer chase and cannot be
    pipelined within one request).
    """
    steps = page_table.walk_path(vpn, start_level)
    t = start_time
    access_cycles = 0
    leaf_pte_address: int | None = None
    for step in steps:
        completion = pte_port.read(step.pte_address, t)
        access_cycles += completion - t
        t = completion
        if step.is_leaf:
            leaf_pte_address = step.pte_address
        if not step.valid:
            return WalkOutcome(
                pfn=None,
                finish_time=t,
                access_cycles=access_cycles,
                levels_accessed=len(steps),
                faulted=True,
                fault_level=step.level,
                leaf_pte_address=leaf_pte_address,
            )
        if not step.is_leaf and pwc is not None:
            # FPWC: cache the freshly discovered next-level node pointer.
            pwc.fill(vpn, step.level - 1, step.value)
    final = steps[-1]
    return WalkOutcome(
        pfn=final.value,
        finish_time=t,
        access_cycles=access_cycles,
        levels_accessed=len(steps),
        faulted=False,
        fault_level=0,
        leaf_pte_address=leaf_pte_address,
    )
