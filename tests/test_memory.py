"""Unit tests for DRAM, the sectored cache, and the memory hierarchy."""

import pytest

from repro.config import CacheConfig, DRAMConfig, GPUConfig, PageTableConfig, TLBConfig
from repro.memory.cache import SectoredCache
from repro.memory.dram import CHANNEL_INTERLEAVE_BYTES, DRAM
from repro.memory.hierarchy import MemorySystem
from repro.pagetable.address import AddressLayout
from repro.ptw.walker import PteMemoryPort
from repro.sim.stats import StatsRegistry
from repro.tlb.pwc import PageWalkCache
from repro.tlb.tlb import TLB


def small_cache_config(**overrides) -> CacheConfig:
    params = dict(
        size_bytes=8 * 1024,
        line_bytes=128,
        sector_bytes=32,
        associativity=2,
        latency=10,
        mshr_entries=4,
    )
    params.update(overrides)
    return CacheConfig(**params)


class TestDRAM:
    def test_fixed_latency_when_idle(self):
        dram = DRAM(DRAMConfig(channels=2, latency=100, cycles_per_access=4), StatsRegistry())
        assert dram.access(0, now=50) == 50 + 100

    def test_bandwidth_queueing_on_one_channel(self):
        stats = StatsRegistry()
        dram = DRAM(DRAMConfig(channels=2, latency=100, cycles_per_access=4), stats)
        first = dram.access(0, now=0)
        second = dram.access(CHANNEL_INTERLEAVE_BYTES * 2, now=0)  # same channel
        assert first == 100
        assert second == 104  # waited one service slot
        assert stats.counters.get("dram.queue_cycles") == 4

    def test_channels_are_independent(self):
        dram = DRAM(DRAMConfig(channels=2, latency=100, cycles_per_access=4), StatsRegistry())
        a = dram.access(0, now=0)
        b = dram.access(CHANNEL_INTERLEAVE_BYTES, now=0)  # next channel
        assert a == b == 100

    def test_channel_mapping_interleaves_lines(self):
        dram = DRAM(
            DRAMConfig(channels=16, latency=100, cycles_per_access=4), StatsRegistry()
        )
        assert dram.access(0, now=0) == 100
        assert dram.access(CHANNEL_INTERLEAVE_BYTES, now=0) == 100  # channel 1
        # Line 16 wraps around to channel 0 and queues behind line 0.
        assert dram.access(16 * CHANNEL_INTERLEAVE_BYTES, now=0) == 104


class TestSectoredCache:
    def make(self, **overrides):
        stats = StatsRegistry()
        dram = DRAM(DRAMConfig(channels=4, latency=100, cycles_per_access=2), stats)
        cache = SectoredCache(small_cache_config(**overrides), dram, stats, name="l2d")
        return cache, stats

    def test_miss_then_hit(self):
        cache, stats = self.make()
        completion = cache.access(0x1000, now=0)
        assert stats.counters.get("l2d.misses") == 1
        assert completion == 10 + 100  # lookup + DRAM
        completion = cache.access(0x1000, now=completion)
        assert stats.counters.get("l2d.hits") == 1
        assert completion == 110 + 10

    def test_sector_miss_within_resident_line(self):
        cache, stats = self.make()
        done = cache.access(0x1000, now=0)
        # Same 128B line, different 32B sector.
        cache.access(0x1000 + 32, now=done)
        assert stats.counters.get("l2d.hits") == 0
        assert stats.counters.get("l2d.sector_misses") == 1

    def test_merge_while_fetch_in_flight(self):
        cache, stats = self.make()
        first = cache.access(0x2000, now=0)
        second = cache.access(0x2000, now=1)
        # Merged onto the outstanding fetch.
        assert stats.counters.get("l2d.misses") == 1
        assert second == first
        assert stats.counters.get("l2d.merges") == 1

    def test_eviction_after_capacity(self):
        cache, stats = self.make()
        # 32 sets; these three addresses map to set 0 with assoc 2.
        set_span = 32 * 128
        t = 0
        for i in range(3):
            t = cache.access(i * set_span, now=t)
        assert stats.counters.get("l2d.evictions") == 1
        # The least recently used line (the first one) was evicted.
        cache.access(0, now=t)
        assert stats.counters.get("l2d.misses") == 4
        assert stats.counters.get("l2d.hits") == 0

    def test_lru_protects_recently_used_line(self):
        cache, stats = self.make()
        set_span = 32 * 128
        t = cache.access(0, now=0)
        t2 = cache.access(set_span, now=t)
        t3 = cache.access(0, now=t2)        # touch line 0 again
        t4 = cache.access(2 * set_span, now=t3)  # evicts line 1
        assert stats.counters.get("l2d.hits") == 1
        cache.access(0, now=t4)
        assert stats.counters.get("l2d.hits") == 2

    def test_mshr_full_delays_fetch(self):
        cache, stats = self.make(mshr_entries=1)
        a = cache.access(0x0, now=0)
        b = cache.access(0x4000, now=0)
        assert stats.counters.get("l2d.mshr_full") == 1
        assert b > a  # second fetch waited for the single MSHR

    def test_miss_rate(self):
        cache, _ = self.make()
        t = cache.access(0, now=0)
        cache.access(0, now=t)
        assert cache.miss_rate() == pytest.approx(0.5)


class TestLRUVictim:
    """Each component owns its LRU ranks: on a 2-way set, the touch
    order alone picks the victim."""

    def test_cache_evicts_least_recently_touched_way(self):
        stats = StatsRegistry()
        dram = DRAM(DRAMConfig(channels=1, latency=100, cycles_per_access=1), stats)
        cache = SectoredCache(
            small_cache_config(size_bytes=2 * 128), dram, stats, name="l2d"
        )
        t = cache.access(0, now=0)  # way 0
        t = cache.access(128, now=t)  # way 1
        t = cache.access(0, now=t)  # way 0 is now the most recent
        t = cache.access(256, now=t)  # evicts way 1
        assert cache.resident_lines() == 2
        cache.access(0, now=t)
        assert stats.counters.get("l2d.hits") == 2
        cache.access(128, now=t)
        assert stats.counters.get("l2d.misses") == 4

    def test_pwc_evicts_least_recently_touched_way(self):
        layout = AddressLayout.from_config(PageTableConfig())
        pwc = PageWalkCache(
            2, layout, root_base=0xAAAA000, stats=StatsRegistry(), min_level=1
        )
        pwc.fill(0 << 9, 1, 0x100)  # way 0
        pwc.fill(1 << 9, 1, 0x200)  # way 1
        pwc.fill(0 << 9, 1, 0x111)  # refilling way 0 touches it
        pwc.fill(2 << 9, 1, 0x300)  # evicts way 1
        assert pwc.probe(1 << 9) == (layout.levels, 0xAAAA000)
        assert pwc.probe(0 << 9) == (1, 0x111)
        assert pwc.probe(2 << 9) == (1, 0x300)

    def test_tlb_never_evicts_a_pending_way(self):
        config = TLBConfig(
            entries=2, associativity=2, latency=10, mshr_entries=4, mshr_merges=4
        )
        tlb = TLB(config, StatsRegistry(), name="t")
        # The pending way is the least recently touched one...
        assert tlb.allocate_pending(0x10, "waiter")
        tlb.fill(0x20, 7)
        tlb.lookup(0x20)
        # ...yet a fill evicts the valid way, twice over.
        assert tlb.fill(0x30, 8) == []
        assert tlb.lookup(0x20) is None
        assert tlb.fill(0x40, 9) == []
        assert tlb.lookup(0x30) is None
        assert tlb.probe_pending(0x10) == ["waiter"]
        # Resolved, the way ranks by its fill: the next victim is 0x40.
        assert tlb.fill(0x10, 5) == ["waiter"]
        tlb.fill(0x50, 10)
        assert tlb.lookup(0x40) is None
        assert tlb.lookup(0x10) == 5


class TestMemorySystem:
    def test_pte_accesses_skip_l1(self):
        stats_conf = GPUConfig(num_sms=2)
        system = MemorySystem(stats_conf, StatsRegistry())
        PteMemoryPort(system.l2).read(0x1234, now=0)
        assert system.stats.counters.get("l2d.accesses") == 1
        assert system.stats.counters.get("l1d.accesses") == 0
        assert system.stats.counters.get("mem.pte_accesses") == 1

    def test_data_accesses_go_through_l1(self):
        system = MemorySystem(GPUConfig(num_sms=2), StatsRegistry())
        system.l1s[0].access_page(0x10000, (0x80, 0x100, 0x80), now=0)
        assert system.stats.counters.get("l1d.accesses") == 3
        assert system.stats.counters.get("mem.data_accesses") == 3
        # The two L1 misses reached the L2, and neither was a PTE read.
        assert system.stats.counters.get("l2d.accesses") == 2
        assert system.stats.counters.get("mem.pte_accesses") == 0

    def test_l1_miss_falls_through_to_l2(self):
        system = MemorySystem(GPUConfig(num_sms=2), StatsRegistry())
        done = system.l1s[0].access_page(0x40000, (0,), now=0)
        # L1 lookup + L2 lookup + DRAM
        config = GPUConfig()
        expected = config.l1d.latency + config.l2d.latency + config.dram.latency
        assert done == expected

    def test_l1s_are_private_per_sm(self):
        system = MemorySystem(GPUConfig(num_sms=2), StatsRegistry())
        t = system.l1s[0].access_page(0x40000, (0,), now=0)
        # Second SM misses its own L1 but hits the shared L2.
        t2 = system.l1s[1].access_page(0x40000, (0,), now=t)
        config = GPUConfig()
        assert t2 == t + config.l1d.latency + config.l2d.latency
