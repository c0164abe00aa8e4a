"""CoLT-style coalesced TLB (refs [74, 6, 49], Section 2.3).

A coalesced entry covers a ``span``-page aligned block: when the pages
of a block map to *contiguous* physical frames, one entry (base PFN +
per-page valid bits) translates all of them, multiplying TLB reach.
Contiguity detection models CoLT's trick of inspecting the other PTEs
that arrive in the same cache sector as the demand-filled one.

The paper's §2.3 argument — irregular workloads thrash coalesced
entries and (with a scattering frame allocator) rarely exhibit
contiguity at all — falls straight out of this model: enable it via
``GPUConfig.tlb_coalescing_span`` and compare streaming vs power-law
workloads (see ``tests/test_coalesced_tlb.py``).

Valid block entries and pending In-TLB MSHR slots (keyed by raw VPN)
live in the same flattened arrays; block keys are offset into a
disjoint integer range so the two can never collide.  A block slot
reuses the base class's per-slot ``_waiters`` cell to hold its
valid-page bitmask (an ``int`` — a block entry is never pending, and a
pending slot is never a block, so the cell is unambiguous).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.config import TLBConfig
from repro.sim.stats import StatsRegistry
from repro.tlb.tlb import TLB

#: Keys >= this are block entries; raw VPNs (< 2^33) stay below it.
_BLOCK_KEY_BASE = 1 << 40

#: vpn -> pfn probe; returns None for unmapped neighbours.
TranslateFn = Callable[[int], int | None]


class CoalescedTLB(TLB):
    """A TLB whose valid entries cover aligned multi-page blocks.

    ``span`` is a power of two >= 2, as
    :class:`~repro.config.GPUConfig` checks ``tlb_coalescing_span``.
    """

    def __init__(
        self,
        config: TLBConfig,
        stats: StatsRegistry,
        *,
        name: str,
        span: int,
        translate: TranslateFn,
    ) -> None:
        super().__init__(config, stats, name=name)
        self.span = span
        self._translate = translate
        self._c_coalesced_fills = f"{name}.coalesced_fills"

    # ------------------------------------------------------------------
    # Key handling
    # ------------------------------------------------------------------
    def _block_key(self, vpn: int) -> int:
        return _BLOCK_KEY_BASE + vpn // self.span

    # ------------------------------------------------------------------
    # Lookup / fill
    # ------------------------------------------------------------------
    def lookup(self, vpn: int) -> int | None:
        self._tick += 1
        counts = self._counts
        slot = self._map.get(_BLOCK_KEY_BASE + vpn // self.span)
        offset = vpn % self.span
        if (
            slot is not None
            and not self._pend[slot]
            and (self._waiters[slot] >> offset) & 1
        ):
            self._rank[slot] = self._tick
            counts[self._c_hits] += 1
            return self._pfn[slot] + offset
        counts[self._c_misses] += 1
        return None

    def fill(self, vpn: int, pfn: int) -> list[Any]:
        """Install a coalesced block entry; resolves any pending slot.

        The demand PTE's sector carries its block neighbours, so their
        contiguity is checked for free; contiguous neighbours join the
        entry's valid mask (bit per page).
        """
        self._tick += 1
        counts = self._counts
        waiters: list[Any] = []
        slot = self._map.get(vpn)
        if slot is not None and self._pend[slot]:
            waiters = self._resolve_pending(slot)
            self._evict_slot(slot)

        offset = vpn % self.span
        base_vpn = vpn - offset
        base_pfn = pfn - offset
        mask = 1 << offset
        for other in range(self.span):
            if other == offset:
                continue
            neighbour_pfn = self._translate(base_vpn + other)
            if neighbour_pfn is not None and neighbour_pfn == base_pfn + other:
                mask |= 1 << other
        if mask != 1 << offset:
            counts[self._c_coalesced_fills] += 1

        key = self._block_key(vpn)
        slot = self._map.get(key)
        if slot is not None and not self._pend[slot]:
            if self._pfn[slot] == base_pfn:
                mask |= self._waiters[slot]
            # else: the old valid bits were relative to another base PFN
            # and would now translate wrongly, so they are dropped.
            self._pfn[slot] = base_pfn
            self._waiters[slot] = mask
            self._rank[slot] = self._tick
            return waiters
        slot = self._claim(key, base_pfn)
        if slot is None:
            counts[self._c_fill_dropped] += 1
            return waiters
        self._waiters[slot] = mask
        return waiters

    def invalidate(self, vpn: int) -> bool:
        """Shootdown: clear the page's bit; drop the entry when empty."""
        slot = self._map.get(self._block_key(vpn))
        if slot is None or self._pend[slot]:
            return False
        offset = vpn % self.span
        mask = self._waiters[slot]
        if not (mask >> offset) & 1:
            return False
        mask &= ~(1 << offset)
        self._waiters[slot] = mask
        if mask == 0:
            self._evict_slot(slot)
        return True
