"""Page Walk Cache: lets walks skip upper page-table levels.

A PWC entry caches the physical base address of one page-table node,
keyed by ``(level, table_tag)``.  Probing for a VPN returns the deepest
cached node along its walk path so the walk starts there; the root is
always known (it lives in the per-process page-table base register), so
a cold probe simply starts at the root level.
"""

from __future__ import annotations

from repro.memory.replacement import make_policy
from repro.pagetable.address import RADIX_BITS_PER_LEVEL, AddressLayout
from repro.sim.stats import StatsRegistry


class PageWalkCache:
    """Fully associative cache of page-table node base addresses.

    ``min_level`` bounds how deep the PWC caches: the default of 2
    means pointers *to leaf tables are not cached* — like an x86 PDE
    cache, the walk always reads at least the final PTE from memory
    (after one upper-level read).  Setting ``min_level=1`` models an
    aggressive translation cache that can collapse walks to one access.
    """

    def __init__(
        self,
        entries: int,
        layout: AddressLayout,
        root_base: int,
        stats: StatsRegistry,
        *,
        name: str = "pwc",
        min_level: int = 2,
        replacement_policy: str = "lru",
    ) -> None:
        if entries < 0:
            raise ValueError("PWC size cannot be negative")
        if min_level < 1:
            raise ValueError("min_level must be >= 1")
        self.capacity = entries
        self.layout = layout
        self.root_base = root_base
        self.stats = stats
        self.name = name
        self.min_level = min_level
        #: ``(level, table tag)`` -> way; the PWC is one set, so a way
        #: is also its policy slot.  Entries are replaced, never
        #: dropped, so ways fill in order.
        self._way_of: dict[tuple[int, int], int] = {}
        #: way -> cached node base, and way -> key (to drop a victim).
        self._base: list[int] = [0] * entries
        self._key_of: list[tuple[int, int] | None] = [None] * entries
        self._policy = make_policy(replacement_policy, 1, entries)
        self._all_ways = list(range(entries))
        #: ``(level, shift)`` per probed level, deepest first:
        #: the table tag is ``vpn >> shift`` (``AddressLayout.table_tag``
        #: without its level check).
        self._probe_levels = [
            (level, RADIX_BITS_PER_LEVEL * level)
            for level in range(min_level, layout.levels)
        ]
        self._tick = 0
        self._counts = stats.counters.live()
        self._c_probes = f"{name}.probes"
        self._c_hits = f"{name}.hits"
        self._c_root_fallbacks = f"{name}.root_fallbacks"
        self._c_evictions = f"{name}.evictions"
        self._c_fills = f"{name}.fills"

    def probe(self, vpn: int) -> tuple[int, int]:
        """Deepest cached node for ``vpn``: returns ``(level, node_base)``.

        Levels below the root are only returned on a PWC hit; the
        fallback is ``(root_level, root_base)``.
        """
        self._tick += 1
        counts = self._counts
        counts[self._c_probes] += 1
        way_of = self._way_of
        for level, shift in self._probe_levels:
            way = way_of.get((level, vpn >> shift))
            if way is not None:
                self._policy.touch(way, self._tick)
                counts[self._c_hits] += 1
                return level, self._base[way]
        counts[self._c_root_fallbacks] += 1
        return self.layout.levels, self.root_base

    def fill(self, vpn: int, level: int, node_base: int) -> None:
        """Cache the node at ``level`` on ``vpn``'s path (FPWC instruction)."""
        if self.capacity == 0 or level >= self.layout.levels or level < self.min_level:
            return
        self._tick += 1
        key = (level, vpn >> (RADIX_BITS_PER_LEVEL * level))
        way = self._way_of.get(key)
        if way is not None:
            self._base[way] = node_base
            self._policy.touch(way, self._tick)
            return
        way = len(self._way_of)
        if way == self.capacity:
            # Every way is occupied: candidates are simply all ways, in
            # way order.
            way = self._policy.victim(0, self._all_ways)
            del self._way_of[self._key_of[way]]
            self._policy.forget(way)
            self._counts[self._c_evictions] += 1
        self._base[way] = node_base
        self._way_of[key] = way
        self._key_of[way] = key
        self._policy.touch(way, self._tick)
        self._counts[self._c_fills] += 1

    def hit_rate(self) -> float:
        probes = self.stats.counters.get(self._c_probes)
        if probes == 0:
            return 0.0
        return self.stats.counters.get(self._c_hits) / probes

    @property
    def occupancy(self) -> int:
        return len(self._way_of)

    def register_metrics(self, metrics) -> None:
        """Expose PWC effectiveness as sampled gauges."""
        metrics.register_gauge(f"{self.name}.hit_rate", self.hit_rate)
        metrics.register_gauge(f"{self.name}.occupancy", lambda: self.occupancy)
