"""GDDR6 DRAM model: fixed access latency plus per-channel bandwidth.

The paper's bottleneck under study is contention at the page-walk
subsystem, not DRAM row locality (irregular workloads use only ~6.7% of
memory bandwidth in the baseline).  Accordingly the DRAM model is a
latency/bandwidth queue: each of the 16 channels serves one sector-sized
access every ``cycles_per_access`` cycles and adds a fixed access
latency.  Requests that arrive while a channel is busy queue behind it,
so bandwidth saturation still behaves correctly when SoftWalker floods
the memory system with thousands of concurrent walks.
"""

from __future__ import annotations

from repro.config import DRAMConfig
from repro.sim.stats import StatsRegistry

#: Channel interleaving granularity (one cache line).
CHANNEL_INTERLEAVE_BYTES = 128


class DRAM:
    """Multi-channel DRAM with timestamp-based service accounting."""

    def __init__(self, config: DRAMConfig, stats: StatsRegistry) -> None:
        self.config = config
        self.stats = stats
        self._channel_free = [0] * config.channels
        #: Transient per-access latency penalty (fault injection models
        #: DRAM latency spikes — thermal throttling, refresh storms —
        #: by raising this for a bounded window).
        self.extra_latency = 0
        # The queue math is called once per sector fetch: hoist the
        # config scalars and the raw counter mapping out of the call.
        self._channels = config.channels
        self._cycles_per_access = config.cycles_per_access
        self._latency = config.latency
        self._counts = stats.counters.live()

    def access(self, address: int, now: int) -> int:
        """Issue one sector read at ``now``; returns its completion time."""
        channel = (address // CHANNEL_INTERLEAVE_BYTES) % self._channels
        free = self._channel_free
        start = free[channel]
        if start < now:
            start = now
        free[channel] = start + self._cycles_per_access
        counts = self._counts
        counts["dram.accesses"] += 1
        if start > now:
            counts["dram.queue_cycles"] += start - now
        return start + self._latency + self.extra_latency

    def busy_until(self, channel: int) -> int:
        return self._channel_free[channel]

    @property
    def accesses(self) -> int:
        return self.stats.counters.get("dram.accesses")
