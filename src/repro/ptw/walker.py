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

#: Builds a NamedTuple from one positional tuple, skipping the
#: generated keyword ``__new__``: one C call per walk record.
_tuple_new = tuple.__new__


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
    """Where walkers read PTEs from: the L2 cache (then DRAM) or a fixed
    latency.  ``l2`` is anything with ``access(address, now)`` returning
    the completion cycle."""

    def __init__(self, l2, fixed_level_latency: int | None = None) -> None:
        self._fixed = fixed_level_latency
        if fixed_level_latency is None:
            # Priced by the memory system: ``read`` is the L2 access
            # itself, with no frame of the port's own per PTE.
            self.read = l2.access

    def read(self, address: int, now: int) -> int:
        """Issue one PTE read at ``now``; returns its completion cycle."""
        return now + self._fixed


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
    read = pte_port.read
    t = start_time
    leaf_pte_address: int | None = None
    for level, pte_address, value, is_leaf, valid in steps:
        t = read(pte_address, t)
        if is_leaf:
            leaf_pte_address = pte_address
        if not valid:
            # Fields in WalkOutcome order: pfn, finish_time,
            # access_cycles, levels_accessed, faulted, fault_level,
            # leaf_pte_address.
            return _tuple_new(
                WalkOutcome,
                (None, t, t - start_time, len(steps), True, level, leaf_pte_address),
            )
        if not is_leaf and pwc is not None:
            # FPWC: cache the freshly discovered next-level node pointer.
            pwc.fill(vpn, level - 1, value)
    return _tuple_new(
        WalkOutcome,
        (value, t, t - start_time, len(steps), False, 0, leaf_pte_address),
    )
