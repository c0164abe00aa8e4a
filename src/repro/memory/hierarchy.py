"""Assembled memory system: per-SM L1 data caches, shared L2, DRAM.

Two access paths matter to the paper:

* **Data accesses** from user warps go through their SM's L1D, then the
  shared L2, then DRAM.
* **PTE accesses** from page walkers (hardware or PW Warps) go straight
  to the L2 — PTEs are cached only in L2, following footnote 2 of the
  paper ("the page walk traffic does not affect the L1D cache").
"""

from __future__ import annotations

from repro.config import GPUConfig
from repro.memory.cache import SectoredCache
from repro.memory.dram import DRAM
from repro.sim.stats import StatsRegistry


class MemorySystem:
    """The GPU's data-side memory hierarchy."""

    def __init__(self, config: GPUConfig, stats: StatsRegistry) -> None:
        self.config = config
        self.stats = stats
        self.dram = DRAM(config.dram, stats)
        self.l2 = SectoredCache(config.l2d, self.dram, stats, name="l2d")
        self.l1s = [
            SectoredCache(config.l1d, self.l2, stats, name="l1d")
            for _ in range(config.num_sms)
        ]
        self._counts = stats.counters.live()

    def data_access_page(
        self, sm_id: int, frame_base: int, offsets: tuple[int, ...], now: int
    ) -> int:
        """One user-warp memory instruction's loads to one translated page.

        Reads ``frame_base | offset`` through SM ``sm_id``'s L1D for each
        byte offset, in order, all at ``now``; returns the latest
        completion cycle (``now`` at the earliest).  Counts one data
        access per offset.
        """
        self._counts["mem.data_accesses"] += len(offsets)
        return self.l1s[sm_id].access_page(frame_base, offsets, now)

    def pte_access(self, address: int, now: int) -> int:
        """A page-walker PTE read (L2 + DRAM only); returns completion cycle."""
        self._counts["mem.pte_accesses"] += 1
        return self.l2.access(address, now)

    def register_metrics(self, metrics) -> None:
        """Expose memory-side pressure as sampled gauges."""
        metrics.register_gauge("l2d.miss_rate", self.l2.miss_rate)
        metrics.register_gauge("l2d.resident_lines", self.l2.resident_lines)
        metrics.register_gauge(
            "dram.accesses", lambda: self.stats.counters.get("dram.accesses")
        )
        metrics.register_gauge(
            "mem.pte_accesses", lambda: self.stats.counters.get("mem.pte_accesses")
        )
