"""Sectored set-associative cache with miss merging.

Models the GPU L2 data cache (and, over it, each SM's L1D): 128B lines
split into 32B sectors, a replacement policy (LRU by default), and an
MSHR file that merges accesses to a sector that is already being
fetched.  Timing is timestamp-based: ``access`` returns the cycle at
which the requested sector is available, issuing a next-level access
for misses.  Page-table entries are cached in the L2 (and only there,
following the paper's footnote 2), so page-walk cost is priced by real
cache behaviour.

State layout
============
Every PTE read and every user-warp load goes through ``access``, so the
state is flat per-cache arrays indexed by ``slot = set_index * ways +
way`` rather than per-line objects:

* ``_slot_of`` — line address -> slot; the one hash on the hot path.
* ``_line_of`` — slot -> resident line address, to drop a victim's
  mapping without a reverse scan.
* ``_ready`` — the cycle at which each sector's data is (or will be)
  valid, at ``slot * sectors + sector``; ``-1`` means absent.
* ``_filled`` — resident lines per set.  Caches never invalidate, so a
  set fills its ways in order and a full set is one compare away.
* ``_outstanding`` — min-heap of miss completion cycles (MSHR
  occupancy), drained inline in ``access``.

Hits, merges and misses are visible only through the counters, bumped
through the raw :meth:`~repro.sim.stats.Counter.live` mapping under
precomputed names.
"""

from __future__ import annotations

import heapq

from repro.config import CacheConfig
from repro.memory.dram import DRAM
from repro.memory.replacement import make_policy
from repro.sim.stats import StatsRegistry


class SectoredCache:
    """Set-associative sectored cache in front of a next level: DRAM,
    or the L2 under an L1D (both answer ``access(address, start)`` with
    a completion cycle)."""

    def __init__(
        self,
        config: CacheConfig,
        next_level: DRAM | SectoredCache,
        stats: StatsRegistry,
        *,
        name: str = "l2d",
        replacement_policy: str = "lru",
    ) -> None:
        self.config = config
        self.next_level = next_level
        self.stats = stats
        self.name = name
        num_sets = config.num_sets
        ways = config.associativity
        sectors = config.line_bytes // config.sector_bytes
        self._num_sets = num_sets
        self._ways = ways
        self._sectors = sectors
        self._line_bytes = config.line_bytes
        self._sector_bytes = config.sector_bytes
        self._latency = config.latency
        self._mshr_entries = config.mshr_entries
        self._policy = make_policy(replacement_policy, num_sets, ways)
        self._slot_of: dict[int, int] = {}
        self._line_of = [-1] * (num_sets * ways)
        self._ready = [-1] * (num_sets * ways * sectors)
        self._absent_line = [-1] * sectors
        self._filled = [0] * num_sets
        #: Victim candidates of a full set: every way, in way order.
        self._all_ways = list(range(ways))
        self._tick = 0
        self._outstanding: list[int] = []
        self._counts = stats.counters.live()
        self._c_accesses = f"{name}.accesses"
        self._c_merges = f"{name}.merges"
        self._c_hits = f"{name}.hits"
        self._c_sector_misses = f"{name}.sector_misses"
        self._c_misses = f"{name}.misses"
        self._c_mshr_full = f"{name}.mshr_full"
        self._c_evictions = f"{name}.evictions"

    def access(self, address: int, now: int) -> int:
        """Read one sector; returns the cycle its data is available.

        A resident sector is a hit, or a merge when its fetch is still
        in flight; an absent sector of a resident line is a sector miss;
        anything else is a miss that allocates a way.  Both kinds of
        miss fetch the sector from the next level.
        """
        line_addr = address // self._line_bytes
        sector = (address % self._line_bytes) // self._sector_bytes
        self._tick += 1
        lookup_done = now + self._latency
        counts = self._counts
        counts[self._c_accesses] += 1
        ready = self._ready
        slot = self._slot_of.get(line_addr)
        if slot is not None:
            self._policy.touch(slot, self._tick)
            cell = slot * self._sectors + sector
            done = ready[cell]
            if done >= 0:
                if done > lookup_done:
                    counts[self._c_merges] += 1
                    return done
                counts[self._c_hits] += 1
                return lookup_done
            counts[self._c_sector_misses] += 1
        else:
            # Line miss: the set's next unfilled way, or the policy's
            # victim once the set is full.
            set_index = line_addr % self._num_sets
            ways = self._ways
            policy = self._policy
            filled = self._filled[set_index]
            if filled < ways:
                self._filled[set_index] = filled + 1
                slot = set_index * ways + filled
            else:
                slot = set_index * ways + policy.victim(set_index, self._all_ways)
                del self._slot_of[self._line_of[slot]]
                policy.forget(slot)
                first = slot * self._sectors
                ready[first : first + self._sectors] = self._absent_line
                counts[self._c_evictions] += 1
            self._slot_of[line_addr] = slot
            self._line_of[slot] = line_addr
            policy.touch(slot, self._tick)
            cell = slot * self._sectors + sector
            counts[self._c_misses] += 1

        # Fetch the sector, holding an MSHR until it completes.
        outstanding = self._outstanding
        while outstanding and outstanding[0] <= lookup_done:
            heapq.heappop(outstanding)
        start = lookup_done
        if len(outstanding) >= self._mshr_entries:
            # All MSHRs busy: the request stalls until the first frees
            # up (every one left completes after ``lookup_done``).
            counts[self._c_mshr_full] += 1
            start = heapq.heappop(outstanding)
        completion = self.next_level.access(address, start)
        heapq.heappush(outstanding, completion)
        ready[cell] = completion
        return completion

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def miss_rate(self) -> float:
        """Fraction of accesses that went to the next level (full or
        sector misses)."""
        accesses = self.stats.counters.get(self._c_accesses)
        if accesses == 0:
            return 0.0
        misses = self.stats.counters.get(
            self._c_misses
        ) + self.stats.counters.get(self._c_sector_misses)
        return misses / accesses

    def resident_lines(self) -> int:
        return len(self._slot_of)
