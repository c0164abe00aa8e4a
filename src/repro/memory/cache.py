"""Sectored set-associative cache with miss merging.

Models the GPU L2 data cache (and, over it, each SM's L1D): 128B lines
split into 32B sectors, LRU replacement, and an MSHR file that merges
accesses to a sector that is already being fetched.  Timing is
timestamp-based: ``access`` returns the cycle at which the requested
sector is available, issuing a next-level access for misses.
Page-table entries are cached in the L2 (and only there, following the
paper's footnote 2), so page-walk cost is priced by real cache
behaviour.

State layout
============
Every PTE read and every user-warp load goes through ``access`` (or
``access_page``, one instruction's lines of one page at once), so the
state is flat per-cache arrays indexed by ``slot = set_index * ways +
way`` rather than per-line objects:

* ``_slot_of`` — line address -> slot; the one hash on the hot path.
* ``_line_of`` — slot -> resident line address, to drop a victim's
  mapping without a reverse scan.
* ``_ready`` — the cycle at which each sector's data is (or will be)
  valid, at ``slot * sectors + sector``; ``-1`` means absent.
* ``_rank`` — LRU rank per slot: the tick of the slot's last touch
  (``-1`` when empty).  A touch is one list store; the victim of a
  full set is the first minimal rank of its ``ways`` slice.
* ``_filled`` — resident lines per set.  Caches never invalidate, so a
  set fills its ways in order and a full set is one compare away.
* ``_outstanding`` — min-heap of miss completion cycles (MSHR
  occupancy), drained inline on every miss.

Hits, merges and misses are visible only through the counters, bumped
through the raw :meth:`~repro.sim.stats.Counter.live` mapping under
precomputed names; ``accesses`` is their declared total.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace

from repro.config import CacheConfig
from repro.memory.dram import DRAM
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
        self._slot_of: dict[int, int] = {}
        self._line_of = [-1] * (num_sets * ways)
        self._rank = [-1] * (num_sets * ways)
        self._ready = [-1] * (num_sets * ways * sectors)
        self._absent_line = [-1] * sectors
        self._filled = [0] * num_sets
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
        # Every access ends as exactly one of these outcomes.
        stats.counters.declare_total(
            self._c_accesses,
            (self._c_hits, self._c_merges, self._c_misses, self._c_sector_misses),
        )

    def access(self, address: int, now: int) -> int:
        """Read one sector; returns the cycle its data is available.

        A resident sector is a hit, or a merge when its fetch is still
        in flight; an absent sector of a resident line is a sector miss;
        anything else is a miss that allocates a way.  Both kinds of
        miss fetch the sector from the next level (:meth:`_miss`).
        """
        line_addr = address // self._line_bytes
        sector = (address % self._line_bytes) // self._sector_bytes
        self._tick += 1
        lookup_done = now + self._latency
        slot = self._slot_of.get(line_addr)
        if slot is not None:
            self._rank[slot] = self._tick
            done = self._ready[slot * self._sectors + sector]
            if done >= 0:
                if done > lookup_done:
                    self._counts[self._c_merges] += 1
                    return done
                self._counts[self._c_hits] += 1
                return lookup_done
        return self._miss(address, line_addr, sector, slot, lookup_done)

    def access_page(self, base: int, offsets: tuple[int, ...], now: int) -> int:
        """Read ``base | offset`` for each offset, in order, all at ``now``.

        Equals one :meth:`access` per offset — the same tick per line,
        the same hits, merges and misses — and returns the latest
        completion (``now`` for no offsets).  Hits and merges resolve
        here and are counted once per call; every other line goes
        through :meth:`_miss`.
        """
        line_bytes = self._line_bytes
        sector_bytes = self._sector_bytes
        sectors = self._sectors
        slot_of = self._slot_of
        rank = self._rank
        ready = self._ready
        lookup_done = now + self._latency
        tick = self._tick
        hits = merges = 0
        done = now
        for offset in offsets:
            address = base | offset
            line_addr = address // line_bytes
            sector = (address % line_bytes) // sector_bytes
            tick += 1
            slot = slot_of.get(line_addr)
            if slot is not None:
                rank[slot] = tick
                ready_at = ready[slot * sectors + sector]
                if ready_at >= 0:
                    if ready_at > lookup_done:
                        merges += 1
                        if ready_at > done:
                            done = ready_at
                    else:
                        hits += 1
                        if lookup_done > done:
                            done = lookup_done
                    continue
            self._tick = tick
            completion = self._miss(address, line_addr, sector, slot, lookup_done)
            if completion > done:
                done = completion
        self._tick = tick
        # Only counters that moved are touched: a zero entry would still
        # appear in the run's fingerprint.
        counts = self._counts
        if hits:
            counts[self._c_hits] += hits
        if merges:
            counts[self._c_merges] += merges
        return done

    def _miss(
        self, address: int, line_addr: int, sector: int, slot: int | None, lookup_done: int
    ) -> int:
        """Fetch an absent sector; returns the cycle its data is available.

        ``slot`` is the line's slot for a sector miss (its rank already
        touched), or None for a line miss, which allocates a way at the
        current tick.
        """
        counts = self._counts
        ready = self._ready
        if slot is not None:
            counts[self._c_sector_misses] += 1
        else:
            # Line miss: the set's next unfilled way, or its least
            # recently used way once the set is full.
            set_index = line_addr % self._num_sets
            ways = self._ways
            filled = self._filled[set_index]
            if filled < ways:
                self._filled[set_index] = filled + 1
                slot = set_index * ways + filled
            else:
                base = set_index * ways
                ranks = self._rank[base : base + ways]
                slot = base + ranks.index(min(ranks))
                del self._slot_of[self._line_of[slot]]
                first = slot * self._sectors
                ready[first : first + self._sectors] = self._absent_line
                counts[self._c_evictions] += 1
            self._slot_of[line_addr] = slot
            self._line_of[slot] = line_addr
            self._rank[slot] = self._tick
            counts[self._c_misses] += 1

        # Fetch the sector, holding an MSHR until it completes.
        outstanding = self._outstanding
        while outstanding and outstanding[0] <= lookup_done:
            heappop(outstanding)
        if len(outstanding) >= self._mshr_entries:
            # All MSHRs busy: the request stalls until the first frees
            # up (every one left completes after ``lookup_done``) and
            # takes its entry over — one sift instead of a pop and a push.
            counts[self._c_mshr_full] += 1
            completion = self.next_level.access(address, outstanding[0])
            heapreplace(outstanding, completion)
        else:
            completion = self.next_level.access(address, lookup_done)
            heappush(outstanding, completion)
        ready[slot * self._sectors + sector] = completion
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
