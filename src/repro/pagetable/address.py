"""Virtual/physical address arithmetic.

The paper follows the NVIDIA Pascal MMU format (ref [60]): 49-bit virtual
and 47-bit physical addresses.  With the 64KB base page that yields a
33-bit VPN and a 31-bit PFN; the radix page table indexes the VPN with
9 bits per level (512-entry tables), the root level absorbing whatever
bits remain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import RADIX_BITS_PER_LEVEL, PageTableConfig


@dataclass(frozen=True)
class AddressLayout:
    """Splits addresses for a given page-table geometry.

    Levels are numbered 1 (leaf, holds the final PTE) through
    ``levels`` (root).  This matches the paper's Figure 14 walk loop,
    which counts the current level down toward the leaf.
    """

    page_size: int
    levels: int
    vpn_bits: int
    pfn_bits: int

    @classmethod
    def from_config(cls, config: PageTableConfig) -> "AddressLayout":
        return cls(
            page_size=config.page_size,
            levels=config.levels,
            vpn_bits=config.vpn_bits,
            pfn_bits=config.pfn_bits,
        )

    @property
    def offset_bits(self) -> int:
        return self.page_size.bit_length() - 1

    @property
    def offset_mask(self) -> int:
        return self.page_size - 1

    # ------------------------------------------------------------------
    # VA <-> (vpn, offset)
    # ------------------------------------------------------------------
    def vpn(self, virtual_address: int) -> int:
        return virtual_address >> self.offset_bits

    def offset(self, virtual_address: int) -> int:
        return virtual_address & self.offset_mask

    def virtual_address(self, vpn: int, offset: int = 0) -> int:
        if offset >= self.page_size:
            raise ValueError("offset exceeds page size")
        return (vpn << self.offset_bits) | offset

    def physical_address(self, pfn: int, offset: int = 0) -> int:
        if offset >= self.page_size:
            raise ValueError("offset exceeds page size")
        return (pfn << self.offset_bits) | offset

    # ------------------------------------------------------------------
    # Radix indexing
    # ------------------------------------------------------------------
    def level_bits(self, level: int) -> int:
        """VPN bits consumed by ``level`` (root absorbs the remainder)."""
        self._check_level(level)
        if level == self.levels:
            return self.vpn_bits - RADIX_BITS_PER_LEVEL * (self.levels - 1)
        return RADIX_BITS_PER_LEVEL

    def level_index(self, vpn: int, level: int) -> int:
        """Radix index of ``vpn`` within the table at ``level``."""
        self._check_level(level)
        shift = RADIX_BITS_PER_LEVEL * (level - 1)
        return (vpn >> shift) & ((1 << self.level_bits(level)) - 1)

    def table_tag(self, vpn: int, level: int) -> int:
        """VPN bits above ``level``: identifies which table node serves it.

        Two VPNs with the same tag at level *k* share the level-*k* table
        node; this is the key the Page Walk Cache indexes on.
        """
        self._check_level(level)
        shift = RADIX_BITS_PER_LEVEL * level
        return vpn >> shift

    def max_vpn(self) -> int:
        return (1 << self.vpn_bits) - 1

    def _check_level(self, level: int) -> None:
        if not 1 <= level <= self.levels:
            raise ValueError(f"level {level} outside 1..{self.levels}")
