"""Unit tests for the TLB array, including In-TLB MSHR pending entries."""

import pytest

from repro.config import TLBConfig
from repro.sim.stats import StatsRegistry
from repro.tlb.tlb import TLB


def make_tlb(entries=8, associativity=4) -> TLB:
    config = TLBConfig(
        entries=entries,
        associativity=associativity,
        latency=10,
        mshr_entries=4,
        mshr_merges=4,
    )
    return TLB(config, StatsRegistry(), name="l2tlb")


class TestLookupFill:
    def test_miss_then_fill_then_hit(self):
        tlb = make_tlb()
        assert tlb.lookup(5) is None
        tlb.fill(5, 99)
        assert tlb.lookup(5) == 99

    def test_fill_updates_existing_entry(self):
        tlb = make_tlb()
        tlb.fill(5, 1)
        tlb.fill(5, 2)
        assert tlb.lookup(5) == 2
        assert tlb.occupancy() == 1

    def test_lru_eviction_within_set(self):
        tlb = make_tlb(entries=4, associativity=2)  # 2 sets x 2 ways
        # vpns 0, 2, 4 all map to set 0.
        tlb.fill(0, 10)
        tlb.fill(2, 12)
        tlb.lookup(0)       # make vpn 0 most recent
        tlb.fill(4, 14)     # evicts vpn 2
        assert tlb.lookup(0) == 10
        assert tlb.lookup(2) is None
        assert tlb.lookup(4) == 14

    def test_fully_associative_uses_single_set(self):
        tlb = make_tlb(entries=4, associativity=0)
        for vpn in [3, 17, 91, 1024]:
            tlb.fill(vpn, vpn)
        assert tlb.occupancy() == 4
        tlb.fill(7777, 1)  # evicts LRU (vpn 3)
        assert tlb.lookup(3) is None

    def test_invalidate(self):
        tlb = make_tlb()
        tlb.fill(5, 1)
        assert tlb.invalidate(5) is True
        assert tlb.lookup(5) is None
        assert tlb.invalidate(5) is False

    def test_hit_rate(self):
        tlb = make_tlb()
        tlb.fill(1, 1)
        tlb.lookup(1)
        tlb.lookup(2)
        assert tlb.hit_rate() == pytest.approx(0.5)


class TestPendingEntries:
    def test_pending_entry_does_not_hit(self):
        tlb = make_tlb()
        assert tlb.allocate_pending(5, waiter="w0")
        assert tlb.lookup(5) is None
        assert tlb.pending_entries == 1

    def test_fill_resolves_pending_and_returns_waiters(self):
        tlb = make_tlb()
        tlb.allocate_pending(5, waiter="w0")
        tlb.merge_pending(5, waiter="w1")
        waiters = tlb.fill(5, 42)
        assert waiters == ["w0", "w1"]
        assert tlb.lookup(5) == 42
        assert tlb.pending_entries == 0

    def test_merge_requires_existing_pending(self):
        tlb = make_tlb()
        assert tlb.merge_pending(9, waiter="w") is False

    def test_duplicate_pending_allocation_rejected(self):
        tlb = make_tlb()
        tlb.allocate_pending(5, waiter="a")
        with pytest.raises(ValueError):
            tlb.allocate_pending(5, waiter="b")

    def test_pending_evicts_valid_victim(self):
        tlb = make_tlb(entries=2, associativity=2)
        tlb.fill(0, 1)
        tlb.fill(2, 2)
        assert tlb.allocate_pending(4, waiter="w")
        # One of the valid translations was sacrificed.
        assert [tlb.lookup(vpn) is not None for vpn in (0, 2)].count(True) == 1

    def test_set_full_of_pending_rejects_allocation(self):
        tlb = make_tlb(entries=4, associativity=2)  # 2 sets x 2 ways
        assert tlb.allocate_pending(0, waiter="a")
        assert tlb.allocate_pending(2, waiter="b")
        # Set 0 now has both ways pending; a third pending must fail.
        assert tlb.allocate_pending(4, waiter="c") is False
        # The other set is unaffected.
        assert tlb.allocate_pending(1, waiter="d")

    def test_pending_entries_never_evicted_by_fills(self):
        tlb = make_tlb(entries=2, associativity=2)
        tlb.allocate_pending(0, waiter="a")
        tlb.allocate_pending(2, waiter="b")
        # A fill for an unrelated vpn cannot displace pending slots.
        waiters = tlb.fill(4, 9)
        assert waiters == []
        assert tlb.lookup(4) is None  # fill was dropped
        assert tlb.pending_entries == 2

    def test_fill_dropped_counted(self):
        tlb = make_tlb(entries=2, associativity=2)
        tlb.allocate_pending(0, waiter="a")
        tlb.allocate_pending(2, waiter="b")
        tlb.fill(4, 9)
        assert tlb.stats.counters.get("l2tlb.fill_dropped") == 1

    def test_invalidate_skips_pending(self):
        tlb = make_tlb()
        tlb.allocate_pending(5, waiter="a")
        assert tlb.invalidate(5) is False
        assert tlb.pending_entries == 1
