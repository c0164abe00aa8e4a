"""Assembled memory system: per-SM L1 data caches, shared L2, DRAM.

Two access paths matter to the paper:

* **Data accesses** from user warps go through their SM's L1D, then the
  shared L2, then DRAM.  Each warp holds its SM's L1D (``l1s[sm_id]``)
  and reads it directly.
* **PTE accesses** from page walkers (hardware or PW Warps) go straight
  to the L2 — PTEs are cached only in L2, following footnote 2 of the
  paper ("the page walk traffic does not affect the L1D cache").  The
  walkers' :class:`~repro.ptw.walker.PteMemoryPort` reads ``l2``.

Neither path has a frame here: the per-path counts are declared totals
of the caches' own counters.  Every L1D access is a data access, and
every L2 access that is not an L1D miss is a PTE read.
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
        counters = stats.counters
        counters.declare_total("mem.data_accesses", ("l1d.accesses",))
        counters.declare_total(
            "mem.pte_accesses",
            ("l2d.accesses",),
            minus=("l1d.misses", "l1d.sector_misses"),
        )

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
