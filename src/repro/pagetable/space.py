"""Process address space: allocator + page table(s) behind one facade.

The GPU driver in a real system populates page tables before (or during,
with demand paging) kernel execution.  :class:`AddressSpace` plays that
role for the simulator: workloads touch virtual pages, and the space
lazily allocates physical frames and installs translations into the
radix page table (and, when FS-HPT is modelled, the hashed mirror).
"""

from __future__ import annotations

from typing import Iterable

from repro.config import PageTableConfig
from repro.pagetable.address import AddressLayout
from repro.pagetable.allocator import PhysicalMemoryMap
from repro.pagetable.hashed import HashedPageTable
from repro.pagetable.radix import PageFault, RadixPageTable


class AddressSpace:
    """One process's virtual address space on the simulated GPU."""

    def __init__(
        self,
        config: PageTableConfig,
        *,
        with_hashed_table: bool = False,
        hashed_slots: int = 1 << 20,
        shuffle_seed: int | None = 1234,
    ) -> None:
        self.config = config
        self.layout = AddressLayout.from_config(config)
        self.memory = PhysicalMemoryMap(config.pfn_bits, shuffle_seed=shuffle_seed)
        self.radix = RadixPageTable(self.layout, self.memory.page_table_region)
        self.hashed: HashedPageTable | None = None
        if with_hashed_table:
            self.hashed = HashedPageTable(
                self.layout, self.memory.page_table_region, num_slots=hashed_slots
            )

    def ensure_mapped(self, vpn: int) -> int:
        """Map ``vpn`` if needed; returns its PFN."""
        try:
            return self.radix.translate(vpn)
        except PageFault:
            return self._map_new(vpn)

    def map_fresh(self, vpns: Iterable[int]) -> None:
        """Map pages known to be unmapped, in order (driver-style prefill).

        Unlike :meth:`ensure_mapped` there is no translate probe: a page
        listed twice, or already mapped, gets a second frame.
        """
        for vpn in vpns:
            self._map_new(vpn)

    def _map_new(self, vpn: int) -> int:
        pfn = self.memory.data_region.allocate()
        self.radix.map(vpn, pfn)
        if self.hashed is not None:
            self.hashed.map(vpn, pfn)
        return pfn

    def unmap(self, vpn: int) -> bool:
        """Invalidate ``vpn`` everywhere (radix + hashed mirror).

        The next walk of ``vpn`` hits an invalid PTE and takes the
        far-fault path; :meth:`ensure_mapped` then installs a fresh
        frame.  Returns False when the page was not mapped.
        """
        removed = self.radix.unmap(vpn)
        if removed and self.hashed is not None:
            self.hashed.unmap(vpn)
        return removed

    def translate(self, vpn: int) -> int:
        return self.radix.translate(vpn)

    def is_mapped(self, vpn: int) -> bool:
        return self.radix.is_mapped(vpn)

    @property
    def mapped_pages(self) -> int:
        return self.radix.mapped_pages
