"""Differential tests: memory-side components against naive reference models.

Each hypothesis state machine drives the real component and a small
scan-everything model through the same random operation sequence and
requires identical answers and counters after every step, in the style
of ``tests/test_walkpath_models.py``:

* ``ScanCache`` — per-set dicts of per-line sector dicts, victims found
  by scanning last use (LRU), MSHRs as a plain list of completion cycles — against ``SectoredCache`` over tiny
  geometries, so evictions, sector misses, merges and ``mshr_full``
  stalls all fire.  A two-level variant checks the assembled
  ``MemorySystem`` (per-SM L1Ds over a shared L2 over DRAM).
* ``ScanPWC`` — a dict of node entries with scanned LRU victims — against
  ``PageWalkCache``.
* ``ScanDRAM`` — one FCFS service list per channel — against ``DRAM``.

Under the default configuration the L1D never evicts, so these models
are what exercises the data-side victim path.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from test_walkpath_models import as_test_case

from repro.config import CacheConfig, DRAMConfig, GPUConfig, PageTableConfig
from repro.memory.cache import SectoredCache
from repro.memory.dram import CHANNEL_INTERLEAVE_BYTES, DRAM
from repro.memory.hierarchy import MemorySystem
from repro.pagetable.address import RADIX_BITS_PER_LEVEL, AddressLayout
from repro.sim.stats import StatsRegistry
from repro.tlb.pwc import PageWalkCache

LINE_BYTES = 128
SECTOR_BYTES = 32


def completion_of(result) -> int:
    """The completion cycle of one ``SectoredCache.access``.

    ``access`` answers the cycle alone; a ``(completion, hit)`` pair is
    accepted too, so the models also run against the per-line cache
    they were written to check.
    """
    return result[0] if isinstance(result, tuple) else result


# ----------------------------------------------------------------------
# DRAM
# ----------------------------------------------------------------------
class ScanDRAM:
    """Reference DRAM: each channel serves its requests first come, first
    served, one ``cycles_per_access`` slot each."""

    def __init__(self, channels: int, latency: int, cycles_per_access: int) -> None:
        self.channels = channels
        self.latency = latency
        self.cycles_per_access = cycles_per_access
        #: Service start cycle of every request a channel has taken.
        self.served: list[list[int]] = [[] for _ in range(channels)]
        self.extra_latency = 0
        self.counts: Counter = Counter()

    def busy_until(self, channel: int) -> int:
        starts = self.served[channel]
        return starts[-1] + self.cycles_per_access if starts else 0

    def access(self, address: int, now: int) -> int:
        channel = (address // CHANNEL_INTERLEAVE_BYTES) % self.channels
        start = max(now, self.busy_until(channel))
        self.served[channel].append(start)
        self.counts["dram.accesses"] += 1
        self.counts["dram.queue_cycles"] += start - now
        return start + self.latency + self.extra_latency


def same_counters(stats: StatsRegistry, model_counts: Counter, prefixes) -> None:
    real = {
        name: value
        for name, value in stats.counters.as_dict().items()
        if name.startswith(prefixes) and value
    }
    model = {name: value for name, value in model_counts.items() if value}
    assert real == model


class DRAMMachine(RuleBasedStateMachine):
    @initialize(
        channels=st.integers(min_value=1, max_value=3),
        latency=st.integers(min_value=1, max_value=40),
        cycles_per_access=st.integers(min_value=1, max_value=5),
    )
    def setup(self, channels, latency, cycles_per_access):
        self.stats = StatsRegistry()
        config = DRAMConfig(
            channels=channels, latency=latency, cycles_per_access=cycles_per_access
        )
        self.real = DRAM(config, self.stats)
        self.model = ScanDRAM(channels, latency, cycles_per_access)
        self.clock = 0

    @rule(
        line=st.integers(min_value=0, max_value=11),
        advance=st.integers(min_value=0, max_value=6),
        skew=st.integers(min_value=-4, max_value=4),
    )
    def access(self, line, advance, skew):
        self.clock += advance
        now = max(0, self.clock + skew)
        address = line * CHANNEL_INTERLEAVE_BYTES
        assert self.real.access(address, now) == self.model.access(address, now)

    @rule(extra=st.integers(min_value=0, max_value=30))
    def set_extra_latency(self, extra):
        self.real.extra_latency = extra
        self.model.extra_latency = extra

    @invariant()
    def same_state(self):
        model = self.model
        for channel in range(model.channels):
            assert self.real.busy_until(channel) == model.busy_until(channel)
        assert self.real.accesses == model.counts["dram.accesses"]
        same_counters(self.stats, model.counts, ("dram.",))


TestDRAMAgainstScan = as_test_case(DRAMMachine)


# ----------------------------------------------------------------------
# Sectored cache
# ----------------------------------------------------------------------
class _ScanLine:
    def __init__(self, tick: int) -> None:
        #: sector index -> cycle at which its data is valid.
        self.sectors: dict[int, int] = {}
        self.last_use = tick


class ScanCache:
    """Reference sectored cache: per-set dicts of per-line sector dicts,
    LRU victims by scanning every line of the set, MSHRs as a plain list."""

    def __init__(self, config: CacheConfig, next_level, name: str) -> None:
        self.config = config
        self.next_level = next_level
        self.name = name
        self.num_sets = config.num_sets
        self.sets: list[dict[int, _ScanLine]] = [{} for _ in range(self.num_sets)]
        #: Completion cycles of the misses still holding an MSHR.
        self.mshrs: list[int] = []
        self.tick = 0
        self.counts: Counter = Counter()

    def _count(self, event: str) -> None:
        self.counts[f"{self.name}.{event}"] += 1

    def access(self, address: int, now: int) -> int:
        config = self.config
        line_addr = address // config.line_bytes
        lines = self.sets[line_addr % self.num_sets]
        tag = line_addr // self.num_sets
        sector = (address % config.line_bytes) // config.sector_bytes
        self.tick += 1
        lookup_done = now + config.latency
        self._count("accesses")
        line = lines.get(tag)
        if line is not None:
            line.last_use = self.tick
            ready = line.sectors.get(sector)
            if ready is not None:
                if ready > lookup_done:
                    self._count("merges")
                    return ready
                self._count("hits")
                return lookup_done
            line.sectors[sector] = self._fetch(address, lookup_done)
            self._count("sector_misses")
            return line.sectors[sector]
        if len(lines) == config.associativity:
            victim = min(lines, key=lambda key: lines[key].last_use)
            del lines[victim]
            self._count("evictions")
        line = lines[tag] = _ScanLine(self.tick)
        line.sectors[sector] = self._fetch(address, lookup_done)
        self._count("misses")
        return line.sectors[sector]

    def _fetch(self, address: int, start: int) -> int:
        self.mshrs = [done for done in self.mshrs if done > start]
        if len(self.mshrs) >= self.config.mshr_entries:
            self._count("mshr_full")
            earliest = min(self.mshrs)
            self.mshrs.remove(earliest)
            start = max(start, earliest)
        completion = self.next_level.access(address, start)
        self.mshrs.append(completion)
        return completion

    def resident_lines(self) -> int:
        return sum(len(lines) for lines in self.sets)


def tiny_cache_config(sets: int, ways: int, mshrs: int, latency: int) -> CacheConfig:
    return CacheConfig(
        size_bytes=sets * ways * LINE_BYTES,
        line_bytes=LINE_BYTES,
        sector_bytes=SECTOR_BYTES,
        associativity=ways,
        latency=latency,
        mshr_entries=mshrs,
    )


#: Enough distinct lines to overflow the largest tiny geometry (4x4).
addresses = st.integers(min_value=0, max_value=24 * LINE_BYTES - 1)
geometry = dict(
    sets=st.integers(min_value=1, max_value=4),
    ways=st.integers(min_value=1, max_value=4),
    mshrs=st.integers(min_value=1, max_value=3),
    channels=st.integers(min_value=1, max_value=2),
)
#: 1KB frames (8 lines) and one instruction's byte offsets inside one:
#: 32-byte granular, so two offsets can share a line (a sector miss or
#: a merge within one page read) or a sector; repeats allowed.
frames = st.integers(min_value=0, max_value=3).map(lambda frame: frame << 10)
page_offsets = st.lists(
    st.integers(min_value=0, max_value=1024 // SECTOR_BYTES - 1), max_size=6
).map(lambda offsets: tuple(offset * SECTOR_BYTES for offset in offsets))


class CacheMachine(RuleBasedStateMachine):
    @initialize(**geometry)
    def setup(self, sets, ways, mshrs, channels):
        self.stats = StatsRegistry()
        config = tiny_cache_config(sets, ways, mshrs, latency=5)
        dram_config = DRAMConfig(channels=channels, latency=30, cycles_per_access=3)
        self.real = SectoredCache(
            config,
            DRAM(dram_config, self.stats),
            self.stats,
            name="l2d",
        )
        self.model_dram = ScanDRAM(channels, 30, 3)
        self.model = ScanCache(config, self.model_dram, "l2d")
        self.clock = 0
        #: Recent ``(address, completion)`` pairs, to re-read at arrival.
        self.recent: list[tuple[int, int]] = []

    def _access(self, address, now):
        real = completion_of(self.real.access(address, now))
        assert real == self.model.access(address, now)
        self.recent = self.recent[-7:] + [(address, real)]

    @rule(
        address=addresses,
        advance=st.integers(min_value=0, max_value=40),
        skew=st.integers(min_value=-20, max_value=20),
    )
    def access(self, address, advance, skew):
        self.clock += advance
        self._access(address, max(0, self.clock + skew))

    @rule(
        frame=frames,
        offsets=page_offsets,
        advance=st.integers(min_value=0, max_value=40),
    )
    def access_page(self, frame, offsets, advance):
        """One instruction's lines in one frame: ``access_page`` must
        equal one ``access`` per offset, in order."""
        self.clock += advance
        expected = self.clock
        for offset in offsets:
            expected = max(expected, self.model.access(frame | offset, self.clock))
        assert self.real.access_page(frame, offsets, self.clock) == expected

    @precondition(lambda self: self.recent)
    @rule(data=st.data(), offset=st.integers(min_value=-1, max_value=1))
    def access_at_arrival(self, data, offset):
        """Re-read a sector as its fetch lands: the hit/merge boundary,
        and the cycle its MSHR frees."""
        address, completion = data.draw(st.sampled_from(self.recent))
        latency = self.model.config.latency
        self._access(address, max(0, completion - latency + offset))

    @invariant()
    def same_state(self):
        assert self.real.resident_lines() == self.model.resident_lines()
        same_counters(
            self.stats,
            self.model.counts + self.model_dram.counts,
            ("l2d.", "dram."),
        )


TestLRUCacheAgainstScan = as_test_case(CacheMachine)


class MemorySystemMachine(RuleBasedStateMachine):
    """Per-SM L1Ds over a shared L2 over DRAM, data and PTE reads mixed."""

    @initialize(
        num_sms=st.integers(min_value=1, max_value=2),
        l1_sets=st.integers(min_value=1, max_value=2),
        l1_ways=st.integers(min_value=1, max_value=2),
        l1_mshrs=st.integers(min_value=1, max_value=3),
        **geometry,
    )
    def setup(self, num_sms, l1_sets, l1_ways, l1_mshrs, sets, ways, mshrs, channels):
        l1 = tiny_cache_config(l1_sets, l1_ways, l1_mshrs, latency=2)
        l2 = tiny_cache_config(sets, ways, mshrs, latency=5)
        dram = DRAMConfig(channels=channels, latency=30, cycles_per_access=3)
        self.stats = StatsRegistry()
        self.real = MemorySystem(
            GPUConfig(num_sms=num_sms, l1d=l1, l2d=l2, dram=dram), self.stats
        )
        self.model_dram = ScanDRAM(channels, 30, 3)
        self.model_l2 = ScanCache(l2, self.model_dram, "l2d")
        self.model_l1s = [ScanCache(l1, self.model_l2, "l1d") for _ in range(num_sms)]
        self.model_mem: Counter = Counter()
        self.clock = 0

    def _now(self, data):
        self.clock += data.draw(st.integers(min_value=0, max_value=40))
        return max(0, self.clock + data.draw(st.integers(min_value=-20, max_value=20)))

    @rule(data=st.data(), address=addresses)
    def data_access(self, data, address):
        sm = data.draw(st.integers(min_value=0, max_value=len(self.model_l1s) - 1))
        now = self._now(data)
        self.model_mem["mem.data_accesses"] += 1
        expected = self.model_l1s[sm].access(address, now)
        assert self.real.l1s[sm].access_page(address, (0,), now) == expected

    @rule(data=st.data(), frame=frames, offsets=page_offsets)
    def data_access_page(self, data, frame, offsets):
        sm = data.draw(st.integers(min_value=0, max_value=len(self.model_l1s) - 1))
        now = self._now(data)
        expected = now
        for offset in offsets:
            self.model_mem["mem.data_accesses"] += 1
            expected = max(expected, self.model_l1s[sm].access(frame | offset, now))
        assert self.real.l1s[sm].access_page(frame, offsets, now) == expected

    @rule(data=st.data(), address=addresses)
    def pte_access(self, data, address):
        now = self._now(data)
        self.model_mem["mem.pte_accesses"] += 1
        assert self.real.l2.access(address, now) == self.model_l2.access(address, now)

    @invariant()
    def same_state(self):
        model_counts = self.model_mem + self.model_l2.counts + self.model_dram.counts
        for l1 in self.model_l1s:
            model_counts += l1.counts
        same_counters(self.stats, model_counts, ("mem.", "l1d.", "l2d.", "dram."))
        assert self.real.l2.resident_lines() == self.model_l2.resident_lines()
        for real, model in zip(self.real.l1s, self.model_l1s):
            assert real.resident_lines() == model.resident_lines()


TestMemorySystemAgainstScan = as_test_case(MemorySystemMachine)


# ----------------------------------------------------------------------
# Page Walk Cache
# ----------------------------------------------------------------------
class _ScanNode:
    def __init__(self, base: int, tick: int) -> None:
        self.base = base
        self.last_use = tick


class ScanPWC:
    """Reference PWC: one dict of cached nodes, LRU victims by scanning it."""

    def __init__(self, entries, levels, min_level, root_base) -> None:
        self.capacity = entries
        self.levels = levels
        self.min_level = min_level
        self.root_base = root_base
        self.nodes: dict[tuple[int, int], _ScanNode] = {}
        self.tick = 0
        self.counts: Counter = Counter()

    @staticmethod
    def _key(vpn: int, level: int) -> tuple[int, int]:
        return level, vpn >> (RADIX_BITS_PER_LEVEL * level)

    def probe(self, vpn: int) -> tuple[int, int]:
        self.tick += 1
        self.counts["pwc.probes"] += 1
        for level in range(self.min_level, self.levels):
            node = self.nodes.get(self._key(vpn, level))
            if node is not None:
                node.last_use = self.tick
                self.counts["pwc.hits"] += 1
                return level, node.base
        self.counts["pwc.root_fallbacks"] += 1
        return self.levels, self.root_base

    def fill(self, vpn: int, level: int, base: int) -> None:
        if self.capacity == 0 or not self.min_level <= level < self.levels:
            return
        self.tick += 1
        key = self._key(vpn, level)
        node = self.nodes.get(key)
        if node is not None:
            node.base = base
            node.last_use = self.tick
            return
        if len(self.nodes) == self.capacity:
            victim = min(self.nodes, key=lambda k: self.nodes[k].last_use)
            del self.nodes[victim]
            self.counts["pwc.evictions"] += 1
        self.nodes[key] = _ScanNode(base, self.tick)
        self.counts["pwc.fills"] += 1


#: VPNs that share upper-level tables often: two choices per radix level.
pwc_vpns = st.builds(
    lambda top, mid, low, page: (
        (top << 3 * RADIX_BITS_PER_LEVEL)
        | (mid << 2 * RADIX_BITS_PER_LEVEL)
        | (low << RADIX_BITS_PER_LEVEL)
        | page
    ),
    st.integers(0, 1),
    st.integers(0, 1),
    st.integers(0, 2),
    st.integers(0, 3),
)


class PWCMachine(RuleBasedStateMachine):
    @initialize(
        entries=st.integers(min_value=0, max_value=4),
        min_level=st.integers(min_value=1, max_value=2),
    )
    def setup(self, entries, min_level):
        layout = AddressLayout.from_config(PageTableConfig())
        self.stats = StatsRegistry()
        self.real = PageWalkCache(
            entries,
            layout,
            root_base=0xAAAA000,
            stats=self.stats,
            min_level=min_level,
        )
        self.model = ScanPWC(entries, layout.levels, min_level, 0xAAAA000)

    @rule(vpn=pwc_vpns)
    def probe(self, vpn):
        assert self.real.probe(vpn) == self.model.probe(vpn)

    @rule(
        vpn=pwc_vpns,
        level=st.integers(min_value=0, max_value=4),
        base=st.integers(min_value=1, max_value=1 << 20),
    )
    def fill(self, vpn, level, base):
        self.real.fill(vpn, level, base)
        self.model.fill(vpn, level, base)

    @invariant()
    def same_state(self):
        assert self.real.occupancy == len(self.model.nodes)
        same_counters(self.stats, self.model.counts, ("pwc.",))


TestLRUPWCAgainstScan = as_test_case(PWCMachine)
