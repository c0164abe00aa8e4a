"""Fixed-size hashed page table (the FS-HPT baseline, ref [32]).

FS-HPT replaces the radix walk's level-by-level pointer chase with a
single hash-indexed lookup.  We model an open-addressing table with
linear probing: a lookup reads slots starting at ``hash(vpn)`` until the
matching tag is found, so the number of memory accesses per walk is
``1 + probe distance`` — usually exactly one, matching the paper's
observation that GPU HPTs have low collision rates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pagetable.address import AddressLayout
from repro.pagetable.allocator import FrameAllocator
from repro.pagetable.radix import PageFault

#: Each hashed PTE holds tag + PFN + metadata.
SLOT_BYTES = 16

#: Deleted-slot marker: keeps linear-probe chains intact across unmaps
#: (probes continue past it; maps may reuse it).
_TOMBSTONE: tuple[int, int] = (-1, -1)

#: Knuth multiplicative hashing constant (64-bit golden ratio).
_HASH_MULTIPLIER = 0x9E3779B97F4A7C15
_HASH_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class HashedLookup:
    """Result of a hashed page-table lookup."""

    pfn: int
    #: Physical addresses of every slot probed, in order.
    probe_addresses: tuple[int, ...]

    @property
    def accesses(self) -> int:
        return len(self.probe_addresses)


class HashedPageTable:
    """Open-addressing hashed page table living in physical memory."""

    def __init__(
        self,
        layout: AddressLayout,
        pt_allocator: FrameAllocator,
        *,
        num_slots: int = 1 << 20,
    ) -> None:
        if num_slots & (num_slots - 1):
            raise ValueError("slot count must be a power of two")
        self.layout = layout
        self.num_slots = num_slots
        self._slots: dict[int, tuple[int, int]] = {}
        self._mapped = 0
        table_bytes = num_slots * SLOT_BYTES
        frames = -(-table_bytes // layout.page_size)
        first = pt_allocator.allocate()
        for _ in range(frames - 1):
            pt_allocator.allocate()
        self._base = layout.physical_address(first)

    def _hash(self, vpn: int) -> int:
        return ((vpn * _HASH_MULTIPLIER) & _HASH_MASK) >> (64 - self.num_slots.bit_length() + 1)

    def _slot_address(self, slot: int) -> int:
        return self._base + slot * SLOT_BYTES

    def map(self, vpn: int, pfn: int) -> None:
        """Insert vpn -> pfn, linear-probing past occupied slots.

        Tombstoned slots are remembered and reused once the probe chain
        confirms ``vpn`` is not already present further along.
        """
        slot = self._hash(vpn)
        reusable: int | None = None
        for probe in range(self.num_slots):
            index = (slot + probe) & (self.num_slots - 1)
            occupant = self._slots.get(index)
            if occupant == _TOMBSTONE:
                if reusable is None:
                    reusable = index
                continue
            if occupant is None or occupant[0] == vpn:
                if occupant is None:
                    if reusable is not None:
                        index = reusable
                    self._mapped += 1
                self._slots[index] = (vpn, pfn)
                return
        if reusable is not None:
            self._slots[reusable] = (vpn, pfn)
            self._mapped += 1
            return
        raise RuntimeError("hashed page table full")

    def unmap(self, vpn: int) -> bool:
        """Tombstone ``vpn``'s slot; returns False when not mapped."""
        slot = self._hash(vpn)
        for probe in range(self.num_slots):
            index = (slot + probe) & (self.num_slots - 1)
            occupant = self._slots.get(index)
            if occupant is None:
                return False
            if occupant != _TOMBSTONE and occupant[0] == vpn:
                self._slots[index] = _TOMBSTONE
                self._mapped -= 1
                return True
        return False

    def probe(self, vpn: int) -> tuple[int | None, tuple[int, ...]]:
        """Translate ``vpn``; returns ``(pfn_or_None, probed_addresses)``.

        Even an unmapped VPN costs at least one slot read (the empty or
        mismatching slot must be fetched to discover the fault), so the
        probe list is never empty.
        """
        slot = self._hash(vpn)
        probes: list[int] = []
        for step in range(self.num_slots):
            index = (slot + step) & (self.num_slots - 1)
            probes.append(self._slot_address(index))
            occupant = self._slots.get(index)
            if occupant is None:
                return None, tuple(probes)
            if occupant != _TOMBSTONE and occupant[0] == vpn:
                return occupant[1], tuple(probes)
        return None, tuple(probes)

    def lookup(self, vpn: int) -> HashedLookup:
        """Translate ``vpn``; raises :class:`PageFault` if unmapped."""
        pfn, probes = self.probe(vpn)
        if pfn is None:
            raise PageFault(vpn, 1)
        return HashedLookup(pfn=pfn, probe_addresses=probes)

    @property
    def mapped_pages(self) -> int:
        return self._mapped
