"""Unit tests for MSHR files and L2 miss tracking (In-TLB MSHR).

The translation service allocates, merges and frees MSHR entries
inline on its L1 and L2 miss paths, so these tests drive a real
:class:`~repro.gpu.translation.TranslationService` (through
:class:`ServiceHarness`) and read the outcome off its MSHR files, its
L2 TLB, its walk backend and its counters.
"""

import pytest

from repro.tlb.mshr import MSHRFile
from test_walkpath_models import ServiceHarness


def l1_request(harness: ServiceHarness, sm: int, vpn: int, log: list, tag: str) -> None:
    harness.service.request(
        sm, vpn, harness.engine.now, lambda time, pfn: log.append((tag, pfn))
    )


def finish_walks(harness: ServiceHarness) -> None:
    """Run the L2 lookups the L1 side scheduled, then finish every walk
    (VPN ``v`` translates to PFN ``100 + v``)."""
    harness.engine.run()
    for request in harness.outstanding():
        harness.complete(request, 100 + request.vpn)


class TestMSHRFile:
    """The L1 side: allocate, merge, refuse (park) and resolve."""

    def test_new_then_merge(self):
        harness = ServiceHarness(l1_mshr=2, l1_merges=3)
        log: list = []
        l1_request(harness, 0, 1, log, "a")
        l1_request(harness, 0, 1, log, "b")
        mshr = harness.service.l1_mshrs[0]
        assert mshr.waiter_count(1) == 2
        counters = harness.stats.counters
        assert counters.get("l1tlb.mshr.allocated") == 1
        assert counters.get("l1tlb.mshr.merged") == 1
        finish_walks(harness)
        assert log == [("a", 101), ("b", 101)]
        assert mshr.occupancy == 0
        assert counters.get("l1tlb.mshr.resolved") == 1

    def test_capacity_limit(self):
        harness = ServiceHarness(l1_mshr=1)
        log: list = []
        l1_request(harness, 0, 1, log, "a")
        l1_request(harness, 0, 2, log, "b")
        mshr = harness.service.l1_mshrs[0]
        assert mshr.tracked_vpns() == [1]
        assert mshr.occupancy == mshr.capacity
        counters = harness.stats.counters
        assert counters.get("l1tlb.mshr.full") == 1
        assert counters.get("l1tlb.mshr_failures") == 1
        # The refused request replays once the response frees the entry.
        finish_walks(harness)
        finish_walks(harness)
        assert log == [("a", 101), ("b", 102)]

    def test_merge_limit(self):
        harness = ServiceHarness(l1_mshr=2, l1_merges=2)
        log: list = []
        for tag in "abc":
            l1_request(harness, 0, 1, log, tag)
        assert harness.service.l1_mshrs[0].waiter_count(1) == 2
        counters = harness.stats.counters
        assert counters.get("l1tlb.mshr.merge_full") == 1
        assert counters.get("l1tlb.mshr_failures") == 1
        # The parked duplicate hits the L1 entry the response fills.
        finish_walks(harness)
        assert [tag for tag, _ in log] == ["a", "b", "c"]

    def test_resolve_unknown_vpn(self):
        harness = ServiceHarness()
        harness.service._l2_lookup(0, 7)
        (request,) = harness.outstanding()
        harness.service.l2_mshr._entries.clear()  # nothing tracks vpn 7 now
        harness.complete(request, 107)
        assert harness.responses == []
        assert harness.stats.counters.get("l2tlb.mshr.resolved") == 0

    def test_zero_capacity_always_full(self):
        harness = ServiceHarness(in_tlb=0)
        harness.service.l2_mshr.set_capacity(0)
        assert harness.miss(0, 1) == "failed"
        assert harness.stats.counters.get("l2tlb.mshr.full") == 1

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            MSHRFile(-1, 1, name="x")
        with pytest.raises(ValueError):
            MSHRFile(1, 0, name="x")


class TestL2MissTracker:
    """The L2 side: dedicated MSHRs first, In-TLB pending ways on overflow."""

    def test_dedicated_mshr_first(self):
        harness = ServiceHarness()
        assert harness.miss(0, 1) == "new"
        assert harness.service.l2_mshr.tracked_vpns() == [1]
        assert harness.service.l2_tlb.pending_entries == 0

    def test_merge_into_dedicated(self):
        harness = ServiceHarness()
        harness.miss(0, 1)
        assert harness.miss(1, 1) == "merged"
        assert harness.service.l2_mshr.waiter_count(1) == 2
        (request,) = harness.outstanding()
        harness.complete(request, 42)
        assert harness.responses == [(0, 1, 42), (1, 1, 42)]

    def test_overflow_into_in_tlb(self):
        harness = ServiceHarness(l2_mshr=1)
        harness.miss(0, 1)  # fills the only MSHR
        assert harness.miss(0, 2) == "new"
        assert harness.service.l2_tlb.pending_entries == 1

    def test_merge_into_in_tlb_pending(self):
        harness = ServiceHarness(l2_mshr=1)
        harness.miss(0, 1)
        harness.miss(0, 2)
        assert harness.miss(1, 2) == "merged"
        assert harness.pending_waiters(2) == [0, 1]
        request = harness.outstanding()[1]
        harness.complete(request, 42)
        assert harness.responses == [(0, 2, 42), (1, 2, 42)]
        assert harness.service.l2_tlb.pending_entries == 0

    def test_failure_when_in_tlb_disabled(self):
        harness = ServiceHarness(l2_mshr=1, in_tlb=0)
        harness.miss(0, 1)
        assert harness.miss(0, 2) == "failed"
        assert harness.stats.counters.get("l2tlb.mshr_failures") == 1

    def test_failure_when_in_tlb_budget_exhausted(self):
        harness = ServiceHarness(l2_mshr=1, in_tlb=1)
        harness.miss(0, 1)
        harness.miss(0, 2)  # takes the single In-TLB slot
        assert harness.miss(0, 3) == "failed"

    def test_failure_when_set_is_all_pending(self):
        # 2 sets x 2 ways; vpns 2,4,6 all map to set 0.
        harness = ServiceHarness(l2_mshr=1, in_tlb=8, l2_sets=2, l2_ways=2)
        harness.miss(0, 1)  # dedicated MSHR
        assert harness.miss(0, 2) == "new"
        assert harness.miss(0, 4) == "new"
        # Set 0 has no non-pending way left: per-set bottleneck (spmv).
        assert harness.miss(0, 6) == "failed"
        assert harness.stats.counters.get("l2tlb.pending_set_full") == 1

    def test_merge_limit_on_pending(self):
        harness = ServiceHarness(l2_mshr=1, num_sms=4)
        harness.miss(0, 1)
        for sm in range(3):
            harness.miss(sm, 2)
        # merges capped at the MSHR file's merge limit (3).
        assert harness.miss(3, 2) == "failed"
        assert harness.stats.counters.get("l2tlb.pending_merge_full") == 1

    def test_outstanding_counts_both_structures(self):
        harness = ServiceHarness(l2_mshr=1)
        harness.miss(0, 1)
        harness.miss(0, 2)
        service = harness.service
        assert service.l2_mshr.occupancy + service.l2_tlb.pending_entries == 2
        assert len(harness.outstanding()) == 2
