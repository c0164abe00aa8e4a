"""Set-associative TLB with In-TLB MSHR support.

Each way carries the paper's pending bit (Section 4.5): alongside
``invalid`` and ``valid`` states, a way can be repurposed as a
temporary MSHR slot holding metadata for an outstanding miss.  Victim
selection for both fills and pending allocations is LRU, restricted to
non-pending ways — a pending entry must never be silently dropped,
because waiters are parked on it.

State layout
============
The state is flat parallel arrays indexed by ``slot = set_index * ways
+ way``:

* ``_map`` — one dict mapping key (vpn, or a block key in the
  coalesced subclass) to its slot; the only hashing on the hot path.
* ``_key_of`` — slot -> key (``-1`` when the way is empty): resolves a
  victim slot back to its key, and finds a free way with one
  ``list.index`` over the set.
* ``_pfn`` / ``_pend`` / ``_waiters`` — per-slot translation, pending
  bit (a ``bytearray``), and parked-waiter list (``None`` when not
  pending).
* ``_rank`` — LRU rank per slot: the tick of the slot's last touch,
  ``-1`` when empty, and ``PENDING_RANK`` (above any tick) while the
  way is pending.  The fill that resolves a pending way touches it back
  to the current tick.

Per-set counts of occupied and pending ways answer "is there a free
way?" and "is every way pending?" without a scan.  Otherwise the victim
is the first minimal rank of the set's slice: ticks are unique within
a set and every pending way ranks above them, so a pending way is never
chosen while a valid one remains.
"""

from __future__ import annotations

from typing import Any

from repro.config import TLBConfig
from repro.sim.stats import StatsRegistry

#: Rank of a pending way: above any tick, so LRU never picks it.
PENDING_RANK = 1 << 62


class TLB:
    """A TLB level (L1 per-SM or shared L2), optionally with pending ways."""

    def __init__(
        self,
        config: TLBConfig,
        stats: StatsRegistry,
        *,
        name: str,
    ) -> None:
        self.config = config
        self.stats = stats
        self.name = name
        self._num_sets = config.num_sets
        self._ways = (
            config.entries if config.associativity == 0 else config.associativity
        )
        num_slots = self._num_sets * self._ways
        #: key (vpn or block key) -> slot; the one hash on the hot path.
        self._map: dict[int, int] = {}
        self._key_of: list[int] = [-1] * num_slots
        self._pfn: list[int] = [0] * num_slots
        self._pend = bytearray(num_slots)
        #: Waiter list of a pending way (None otherwise); the coalesced
        #: subclass reuses the cell for a valid block's page bitmask.
        self._waiters: list[Any] = [None] * num_slots
        self._rank = [-1] * num_slots
        #: Occupied (valid or pending) ways, and pending ways, per set.
        self._set_used = [0] * self._num_sets
        self._set_pending = [0] * self._num_sets
        self._tick = 0
        #: Ways currently pending (In-TLB MSHR slots in use).
        self.pending_entries = 0
        # Hot-path accessors: the raw counter mapping plus precomputed
        # names, so a lookup costs one dict += instead of a method call
        # and an f-string.
        self._counts = stats.counters.live()
        self._c_lookups = f"{name}.lookups"
        self._c_misses = f"{name}.misses"
        self._c_hits = f"{name}.hits"
        stats.counters.declare_total(self._c_lookups, (self._c_hits, self._c_misses))
        self._c_pending_resolved = f"{name}.pending_resolved"
        self._c_fill_dropped = f"{name}.fill_dropped"
        self._c_pending_allocated = f"{name}.pending_allocated"
        self._c_pending_merged = f"{name}.pending_merged"
        self._c_evictions = f"{name}.evictions"

    # ------------------------------------------------------------------
    # Lookup / fill
    # ------------------------------------------------------------------
    def lookup(self, vpn: int) -> int | None:
        """Return the PFN on hit, None on miss.  Pending entries miss."""
        self._tick += 1
        slot = self._map.get(vpn)
        if slot is None or self._pend[slot]:
            self._counts[self._c_misses] += 1
            return None
        self._rank[slot] = self._tick
        self._counts[self._c_hits] += 1
        return self._pfn[slot]

    def probe_pending(self, vpn: int) -> list[Any] | None:
        """The live waiter list of ``vpn``'s pending way, or None.

        No stats are recorded.  The list is the TLB's own (mutations
        belong to :meth:`merge_pending`); callers only inspect it.
        """
        slot = self._map.get(vpn)
        if slot is not None and self._pend[slot]:
            return self._waiters[slot]
        return None

    def fill(self, vpn: int, pfn: int) -> list[Any]:
        """Install a translation; returns waiters of a resolved pending way.

        Mirrors the paper's Figure 13 flow: the L2 TLB controller clears
        the pending state of the tag-matching way, fills the PTE, and
        resolves all misses parked on it.  When the set is entirely
        occupied by *other* pending entries the fill is dropped (the
        translation still returns to the requester; it is just not
        cached), because pending slots must not be evicted.
        """
        self._tick += 1
        slot = self._map.get(vpn)
        if slot is not None:
            waiters: list[Any] = []
            if self._pend[slot]:
                waiters = self._resolve_pending(slot)
            self._pfn[slot] = pfn
            self._rank[slot] = self._tick
            return waiters

        if self._claim(vpn, pfn) is None:
            self._counts[self._c_fill_dropped] += 1
        return []

    def invalidate(self, vpn: int) -> bool:
        """Drop a valid translation (TLB shootdown).  Pending ways stay."""
        slot = self._map.get(vpn)
        if slot is None or self._pend[slot]:
            return False
        self._evict_slot(slot)
        return True

    # ------------------------------------------------------------------
    # In-TLB MSHR (pending entries)
    # ------------------------------------------------------------------
    def allocate_pending(self, vpn: int, waiter: Any) -> bool:
        """Repurpose a victim way as an MSHR slot for ``vpn``.

        Returns False when every way of the set is already a pending
        slot (the per-set bottleneck that limits spmv in Section 6.3),
        which the set's pending count answers before any way is touched.
        """
        self._tick += 1
        slot = self._map.get(vpn)
        if slot is not None and self._pend[slot]:
            raise ValueError(f"vpn {vpn:#x} already pending; merge instead")
        if self._set_pending[vpn % self._num_sets] == self._ways:
            return False
        if slot is not None:
            # A valid entry exists; caller should have hit.  Replace it.
            self._evict_slot(slot)
        # A way is free or valid, so the claim cannot be refused.
        slot = self._claim(vpn, 0)
        self._pend[slot] = 1
        self._rank[slot] = PENDING_RANK
        self._waiters[slot] = [waiter]
        self.pending_entries += 1
        self._set_pending[slot // self._ways] += 1
        self._counts[self._c_pending_allocated] += 1
        return True

    def _resolve_pending(self, slot: int) -> list[Any]:
        """Clear ``slot``'s pending bit; returns the waiters parked on it."""
        waiters = self._waiters[slot]
        self._waiters[slot] = None
        self._pend[slot] = 0
        self.pending_entries -= 1
        self._set_pending[slot // self._ways] -= 1
        self._counts[self._c_pending_resolved] += 1
        return waiters

    def merge_pending(self, vpn: int, waiter: Any) -> bool:
        """Park another waiter on an existing pending entry."""
        slot = self._map.get(vpn)
        if slot is None or not self._pend[slot]:
            return False
        self._waiters[slot].append(waiter)
        self._counts[self._c_pending_merged] += 1
        return True

    def pending_vpns(self) -> list[int]:
        """VPNs of every in-TLB MSHR (pending) way (audit support)."""
        pend = self._pend
        return [key for key, slot in self._map.items() if pend[slot]]

    def pending_waiter_count(self, vpn: int) -> int:
        """Waiters parked on ``vpn``'s pending way (0 if none)."""
        waiters = self.probe_pending(vpn)
        return len(waiters) if waiters is not None else 0

    # ------------------------------------------------------------------
    # Way management
    # ------------------------------------------------------------------
    def _claim(self, key: int, pfn: int) -> int | None:
        """Install ``key -> pfn`` in a free or victim way of its set.

        Returns the claimed slot, or None (nothing changed) when every
        way of the set is a pending MSHR slot.  The victim is the least
        recently used non-pending way, evicted in place.
        """
        ways = self._ways
        set_index = key % self._num_sets
        base = set_index * ways
        key_of = self._key_of
        if self._set_used[set_index] < ways:
            slot = key_of.index(-1, base, base + ways)
            self._set_used[set_index] += 1
        else:
            if self._set_pending[set_index] == ways:
                return None
            ranks = self._rank[base : base + ways]
            slot = base + ranks.index(min(ranks))
            del self._map[key_of[slot]]
            self._waiters[slot] = None
            self._counts[self._c_evictions] += 1
        self._map[key] = slot
        key_of[slot] = key
        self._pfn[slot] = pfn
        self._rank[slot] = self._tick
        return slot

    def _evict_slot(self, slot: int) -> None:
        del self._map[self._key_of[slot]]
        self._key_of[slot] = -1
        self._waiters[slot] = None
        self._set_used[slot // self._ways] -= 1
        self._rank[slot] = -1
        self._counts[self._c_evictions] += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def hit_rate(self) -> float:
        lookups = self.stats.counters.get(self._c_lookups)
        if lookups == 0:
            return 0.0
        return self.stats.counters.get(self._c_hits) / lookups

    def occupancy(self) -> int:
        return len(self._map)
