"""Sectored set-associative cache with miss merging.

Models the GPU L2 data cache: 128B lines split into 32B sectors, LRU
replacement, and an MSHR file that merges accesses to a sector that is
already being fetched.  Timing is timestamp-based: ``access`` returns
the cycle at which the requested sector is available, issuing a DRAM
access for misses.  Page-table entries are cached here (and only here,
following the paper's footnote 2), so page-walk cost is priced by real
cache behaviour.

``access`` is the single hottest component method in ``repro profile``
runs, so the hot path hoists everything it can: the per-instance
counter-name strings are precomputed, counters are bumped through the
raw :meth:`~repro.sim.stats.Counter.live` mapping, each resident line
carries its own way, and the victim way is resolved back to its tag
through a per-set ``_tag_of`` array instead of a reverse dict scan.
"""

from __future__ import annotations

import heapq

from repro.config import CacheConfig
from repro.memory.dram import DRAM
from repro.memory.replacement import policy_factory
from repro.sim.stats import StatsRegistry


class _Line:
    """One resident cache line: its way and per-sector fill times."""

    __slots__ = ("tag", "way", "sector_ready")

    def __init__(self, tag: int, way: int) -> None:
        self.tag = tag
        self.way = way
        #: sector index -> cycle at which its data is (or will be) valid.
        self.sector_ready: dict[int, int] = {}


class SectoredCache:
    """Set-associative sectored cache in front of a next-level port.

    ``next_level`` needs one method, ``access(address, start) -> completion``
    — DRAM provides it directly, and an L2 cache can be adapted behind the
    same interface so the class also serves as the per-SM L1D.
    """

    def __init__(
        self,
        config: CacheConfig,
        next_level: DRAM,
        stats: StatsRegistry,
        *,
        name: str = "l2d",
        replacement_policy: str = "lru",
    ) -> None:
        self.config = config
        self.next_level = next_level
        self.stats = stats
        self.name = name
        self._num_sets = config.num_sets
        self._sets: list[dict[int, _Line]] = [{} for _ in range(self._num_sets)]
        new_policy = policy_factory(replacement_policy)
        self._policies = [new_policy() for _ in range(self._num_sets)]
        #: way -> resident tag per set (None when free): victim
        #: resolution without a reverse dict scan.
        self._tag_of: list[list[int | None]] = [
            [None] * config.associativity for _ in range(self._num_sets)
        ]
        self._free_ways: list[list[int]] = [
            list(range(config.associativity)) for _ in range(self._num_sets)
        ]
        #: Victim candidates of a full set: every way, in way order.
        self._all_ways = list(range(config.associativity))
        self._tick = 0
        #: Min-heap of outstanding miss completion times (MSHR occupancy).
        self._outstanding: list[int] = []
        self._counts = stats.counters.live()
        self._c_accesses = f"{name}.accesses"
        self._c_merges = f"{name}.merges"
        self._c_hits = f"{name}.hits"
        self._c_sector_misses = f"{name}.sector_misses"
        self._c_misses = f"{name}.misses"
        self._c_mshr_full = f"{name}.mshr_full"
        self._c_evictions = f"{name}.evictions"

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def _split(self, address: int) -> tuple[int, int, int]:
        line_addr = address // self.config.line_bytes
        sector = (address % self.config.line_bytes) // self.config.sector_bytes
        return line_addr % self._num_sets, line_addr // self._num_sets, sector

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    def access(self, address: int, now: int) -> tuple[int, bool]:
        """Read one sector.  Returns ``(completion_cycle, was_hit)``.

        A "hit" means the sector was already resident or being fetched
        (miss-merge); a miss allocates and fetches from DRAM.
        """
        config = self.config
        line_bytes = config.line_bytes
        line_addr = address // line_bytes
        set_index = line_addr % self._num_sets
        tag = line_addr // self._num_sets
        sector = (address % line_bytes) // config.sector_bytes
        self._tick += 1
        lookup_done = now + config.latency
        cache_set = self._sets[set_index]
        counts = self._counts
        counts[self._c_accesses] += 1

        line = cache_set.get(tag)
        if line is not None:
            self._policies[set_index].touch(line.way, self._tick)
            ready = line.sector_ready.get(sector)
            if ready is not None:
                if ready > lookup_done:
                    counts[self._c_merges] += 1
                    return ready, True
                counts[self._c_hits] += 1
                return lookup_done, True
            # Line resident but sector absent: sector miss.
            completion = self._fetch(address, lookup_done)
            line.sector_ready[sector] = completion
            counts[self._c_sector_misses] += 1
            return completion, False

        # Full line miss: allocate a way.
        line = self._allocate(set_index, tag)
        completion = self._fetch(address, lookup_done)
        line.sector_ready[sector] = completion
        counts[self._c_misses] += 1
        return completion, False

    def _fetch(self, address: int, start: int) -> int:
        """Send a sector fetch to DRAM, respecting MSHR capacity."""
        outstanding = self._outstanding
        while outstanding and outstanding[0] <= start:
            heapq.heappop(outstanding)
        if len(outstanding) >= self.config.mshr_entries:
            # All MSHRs busy: the request stalls until one frees up.
            self._counts[self._c_mshr_full] += 1
            start = max(start, heapq.heappop(outstanding))
        completion = self.next_level.access(address, start)
        heapq.heappush(outstanding, completion)
        return completion

    def _allocate(self, set_index: int, tag: int) -> _Line:
        cache_set = self._sets[set_index]
        policy = self._policies[set_index]
        free = self._free_ways[set_index]
        tag_of = self._tag_of[set_index]
        if free:
            way = free.pop()
        else:
            # Free list empty: every way is resident, so candidates are
            # all ways in way order (built-in policies are
            # candidate-order-independent — ticks are unique).
            way = policy.victim(self._all_ways)
            del cache_set[tag_of[way]]
            policy.forget(way)
            self._counts[self._c_evictions] += 1
        line = _Line(tag, way)
        cache_set[tag] = line
        tag_of[way] = tag
        policy.touch(way, self._tick)
        return line

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def miss_rate(self) -> float:
        """Fraction of accesses that went to DRAM (full or sector misses)."""
        accesses = self.stats.counters.get(self._c_accesses)
        if accesses == 0:
            return 0.0
        misses = self.stats.counters.get(
            self._c_misses
        ) + self.stats.counters.get(self._c_sector_misses)
        return misses / accesses

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)
