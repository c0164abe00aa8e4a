"""Differential tests: walk-path components against naive reference models.

Each hypothesis state machine drives the real component and a small
scan-everything model through the same random operation sequence and
requires identical answers after every step.  The models are what the
components computed before their O(1)/O(log n) rewrites: a linear scan
of the SoftPWB status bitmap, a distributor that rescans every per-core
counter on each pick, a TLB that collects non-pending victim
candidates by scanning the whole set, and an L2 miss path built from
separate MSHR-file and miss-tracker objects, which the translation
service now routes inline.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import replace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.config import DistributorPolicy, TLBConfig, baseline_config
from repro.core.distributor import RequestDistributor
from repro.core.softpwb import SlotState, SoftPWB
from repro.gpu.translation import TranslationService
from repro.pagetable.space import AddressSpace
from repro.ptw.request import WalkRequest
from repro.ptw.walker import WalkOutcome
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry
from repro.tlb.pwc import PageWalkCache
from repro.tlb.tlb import TLB

MACHINE_SETTINGS = settings(max_examples=60, stateful_step_count=40, deadline=None)


def as_test_case(machine):
    """The machine's unittest case, run under :data:`MACHINE_SETTINGS`."""
    case = machine.TestCase
    case.settings = MACHINE_SETTINGS
    return case


def new_request(vpn: int) -> WalkRequest:
    return WalkRequest(vpn=vpn, enqueue_time=0, start_level=4, node_base=0)


def attempt(call, *args):
    """``("ok", result)`` or ``("raise", exception type)``."""
    try:
        return "ok", call(*args)
    except (ValueError, RuntimeError) as error:
        return "raise", type(error)


# ----------------------------------------------------------------------
# SoftPWB
# ----------------------------------------------------------------------
class ScanSoftPWB:
    """Reference SoftPWB: scans the status bitmap in slot order."""

    def __init__(self, entries: int) -> None:
        self.slots: list[WalkRequest | None] = [None] * entries
        self.states = [SlotState.INVALID] * entries

    def insert(self, request):
        for index, state in enumerate(self.states):
            if state is SlotState.INVALID:
                self.slots[index] = request
                self.states[index] = SlotState.VALID
                return index
        return None

    def take_valid(self):
        for index, state in enumerate(self.states):
            if state is SlotState.VALID:
                self.states[index] = SlotState.PROCESSING
                return index, self.slots[index]
        return None

    def complete(self, index):
        if self.states[index] is not SlotState.PROCESSING:
            raise ValueError(f"slot {index} is not processing")
        self.states[index] = SlotState.INVALID
        self.slots[index] = None


class SoftPWBMachine(RuleBasedStateMachine):
    @initialize(entries=st.integers(min_value=1, max_value=8))
    def setup(self, entries):
        self.real = SoftPWB(entries)
        self.model = ScanSoftPWB(entries)
        self.next_vpn = 0

    @rule()
    def insert(self):
        request = new_request(self.next_vpn)
        self.next_vpn += 1
        assert self.real.insert(request) == self.model.insert(request)

    @rule()
    def take_valid(self):
        real = self.real.take_valid()
        model = self.model.take_valid()
        if model is None:
            assert real is None
        else:
            assert real[0] == model[0] and real[1] is model[1]

    @rule(data=st.data())
    def complete(self, data):
        index = data.draw(st.integers(0, len(self.model.states) - 1))
        assert attempt(self.real.complete, index) == attempt(self.model.complete, index)

    @invariant()
    def same_state(self):
        model = self.model
        assert [self.real.state(i) for i in range(len(model.states))] == model.states
        for state in SlotState:
            assert self.real.count(state) == model.states.count(state)
        invalid = model.states.count(SlotState.INVALID)
        assert self.real.occupied == len(model.states) - invalid
        real_requests = self.real.requests()
        model_requests = [r for r in model.slots if r is not None]
        assert len(real_requests) == len(model_requests)
        assert all(a is b for a, b in zip(real_requests, model_requests))


TestSoftPWBAgainstScan = as_test_case(SoftPWBMachine)


# ----------------------------------------------------------------------
# Request Distributor
# ----------------------------------------------------------------------
class RescanDistributor:
    """Reference distributor: rebuilds the available list on every pick."""

    def __init__(self, num_sms, capacity, policy, idleness, seed=97):
        self.num_sms = num_sms
        self.capacity = capacity
        self.policy = policy
        self.idleness = idleness
        self.counters = [0] * num_sms
        self.overflow: deque = deque()
        self.cursor = 0
        self.rng = random.Random(seed)
        self.sent: list = []

    def _select(self):
        available = [
            sm for sm in range(self.num_sms) if self.counters[sm] < self.capacity
        ]
        if not available:
            return None
        if self.policy == DistributorPolicy.ROUND_ROBIN:
            cursor = self.cursor
            sm = min(available, key=lambda s: (s - cursor) % self.num_sms)
            self.cursor = (sm + 1) % self.num_sms
            return sm
        if self.policy == DistributorPolicy.RANDOM:
            return self.rng.choice(available)
        return min(available, key=self.idleness)

    def _send(self, sm, request):
        self.counters[sm] += 1
        self.sent.append((sm, request))

    def submit(self, request):
        sm = self._select()
        if sm is None:
            self.overflow.append(request)
        else:
            self._send(sm, request)

    def complete(self, sm):
        if self.counters[sm] <= 0:
            raise ValueError(f"counter underflow for SM {sm}")
        self.counters[sm] -= 1
        if self.overflow:
            target = self._select()
            if target is not None:
                request = self.overflow.popleft()
                self._send(target, request)
                return target, request
        return None


class DistributorMachine(RuleBasedStateMachine):
    policy = DistributorPolicy.ROUND_ROBIN

    @initialize(
        num_sms=st.integers(min_value=1, max_value=8),
        capacity=st.integers(min_value=1, max_value=3),
    )
    def setup(self, num_sms, capacity):
        self.idle = [0] * num_sms
        self.real = RequestDistributor(
            num_sms,
            capacity,
            StatsRegistry(),
            policy=self.policy,
            idleness=self.idle.__getitem__,
        )
        self.sent: list = []
        self.model = RescanDistributor(
            num_sms, capacity, self.policy, self.idle.__getitem__
        )
        self.next_vpn = 0

    @rule()
    def submit(self):
        request = new_request(self.next_vpn)
        self.next_vpn += 1
        sm = self.real.submit(request)
        if sm is not None:
            self.sent.append((sm, request))
        self.model.submit(request)

    @rule(data=st.data())
    def complete(self, data):
        sm = data.draw(st.integers(0, self.model.num_sms - 1))
        outcome = attempt(self.real.complete, sm)
        assert outcome == attempt(self.model.complete, sm)
        if outcome[0] == "ok" and outcome[1] is not None:
            self.sent.append(outcome[1])

    @rule(data=st.data())
    def change_idleness(self, data):
        sm = data.draw(st.integers(0, self.model.num_sms - 1))
        self.idle[sm] = data.draw(st.integers(0, 5))

    @invariant()
    def same_choices(self):
        assert [sm for sm, _ in self.sent] == [sm for sm, _ in self.model.sent]
        assert all(a is b for (_, a), (_, b) in zip(self.sent, self.model.sent))
        overflow = self.real.overflow_requests()
        assert len(overflow) == len(self.model.overflow)
        assert all(a is b for a, b in zip(overflow, self.model.overflow))
        assert [self.real.counter(sm) for sm in range(self.model.num_sms)] == (
            self.model.counters
        )


class RandomDistributorMachine(DistributorMachine):
    policy = DistributorPolicy.RANDOM


class StallAwareDistributorMachine(DistributorMachine):
    policy = DistributorPolicy.STALL_AWARE


TestRoundRobinDistributorAgainstRescan = as_test_case(DistributorMachine)
TestRandomDistributorAgainstRescan = as_test_case(RandomDistributorMachine)
TestStallAwareDistributorAgainstRescan = as_test_case(StallAwareDistributorMachine)


# ----------------------------------------------------------------------
# TLB with pending (In-TLB MSHR) ways
# ----------------------------------------------------------------------
class _Entry:
    def __init__(self, pfn, tick, waiters=None):
        self.pfn = pfn
        self.last_use = tick
        self.waiters = waiters

    @property
    def pending(self):
        return self.waiters is not None


class ScanTLB:
    """Reference TLB: per-set dicts, LRU victims by scanning every
    non-pending entry."""

    def __init__(self, num_sets, ways):
        self.num_sets = num_sets
        self.ways = ways
        self.sets: list[dict[int, _Entry]] = [{} for _ in range(num_sets)]
        self.tick = 0
        self.dropped = 0
        self.evictions = 0

    def _set(self, vpn):
        return self.sets[vpn % self.num_sets]

    def _new_entry(self, pfn, waiters=None):
        return _Entry(pfn, self.tick, waiters)

    def _make_room(self, entries):
        if len(entries) < self.ways:
            return True
        candidates = [key for key, entry in entries.items() if not entry.pending]
        if not candidates:
            return False
        victim = min(candidates, key=lambda key: entries[key].last_use)
        del entries[victim]
        self.evictions += 1
        return True

    def lookup(self, vpn):
        self.tick += 1
        entry = self._set(vpn).get(vpn)
        if entry is None or entry.pending:
            return None
        entry.last_use = self.tick
        return entry.pfn

    def fill(self, vpn, pfn):
        self.tick += 1
        entries = self._set(vpn)
        entry = entries.get(vpn)
        if entry is not None:
            waiters = entry.waiters if entry.pending else []
            entry.waiters = None
            entry.pfn = pfn
            entry.last_use = self.tick
            return waiters
        if not self._make_room(entries):
            self.dropped += 1
            return []
        entries[vpn] = self._new_entry(pfn)
        return []

    def allocate_pending(self, vpn, waiter):
        self.tick += 1
        entries = self._set(vpn)
        entry = entries.get(vpn)
        if entry is not None and entry.pending:
            raise ValueError("already pending")
        if entry is not None:
            del entries[vpn]
            self.evictions += 1
        if not self._make_room(entries):
            return False
        entries[vpn] = self._new_entry(0, [waiter])
        return True

    def merge_pending(self, vpn, waiter):
        entry = self._set(vpn).get(vpn)
        if entry is None or not entry.pending:
            return False
        entry.waiters.append(waiter)
        return True

    def invalidate(self, vpn):
        entries = self._set(vpn)
        entry = entries.get(vpn)
        if entry is None or entry.pending:
            return False
        del entries[vpn]
        self.evictions += 1
        return True


vpns = st.integers(min_value=0, max_value=15)


class TLBMachine(RuleBasedStateMachine):
    @initialize(
        num_sets=st.sampled_from([1, 2, 4]),
        ways=st.integers(min_value=1, max_value=4),
    )
    def setup(self, num_sets, ways):
        config = TLBConfig(
            entries=num_sets * ways,
            associativity=ways,
            latency=10,
            mshr_entries=4,
            mshr_merges=4,
        )
        self.stats = StatsRegistry()
        self.real = TLB(config, self.stats, name="t")
        self.model = ScanTLB(num_sets, ways)
        self.next_waiter = 0

    def _waiter(self):
        self.next_waiter += 1
        return self.next_waiter

    @rule(vpn=vpns)
    def lookup(self, vpn):
        assert self.real.lookup(vpn) == self.model.lookup(vpn)

    @rule(vpn=vpns, pfn=st.integers(min_value=0, max_value=1000))
    def fill(self, vpn, pfn):
        assert self.real.fill(vpn, pfn) == self.model.fill(vpn, pfn)

    @rule(vpn=vpns)
    def allocate_pending(self, vpn):
        waiter = self._waiter()
        assert attempt(self.real.allocate_pending, vpn, waiter) == attempt(
            self.model.allocate_pending, vpn, waiter
        )

    @rule(vpn=vpns)
    def merge_pending(self, vpn):
        waiter = self._waiter()
        assert self.real.merge_pending(vpn, waiter) == self.model.merge_pending(
            vpn, waiter
        )

    @rule(vpn=vpns)
    def invalidate(self, vpn):
        assert self.real.invalidate(vpn) == self.model.invalidate(vpn)

    @invariant()
    def same_contents(self):
        model_keys = {key for entries in self.model.sets for key in entries}
        model_pending = sorted(
            key
            for entries in self.model.sets
            for key, entry in entries.items()
            if entry.pending
        )
        assert set(self.real._map) == model_keys
        assert sorted(self.real.pending_vpns()) == model_pending
        assert self.real.pending_entries == len(model_pending)
        for vpn in model_pending:
            entry = self.model._set(vpn)[vpn]
            assert self.real.probe_pending(vpn) == entry.waiters
        counters = self.stats.counters
        assert counters.get("t.fill_dropped") == self.model.dropped
        assert counters.get("t.evictions") == self.model.evictions


TestLRUTLBAgainstScan = as_test_case(TLBMachine)


# ----------------------------------------------------------------------
# L2 TLB miss path (dedicated MSHRs, In-TLB MSHR overflow, backpressure)
# ----------------------------------------------------------------------
class RecordingBackend:
    """Walk backend stub: keeps every submitted request, walks nothing."""

    def __init__(self) -> None:
        self.submitted: list[WalkRequest] = []
        self.on_complete = None

    def submit(self, request: WalkRequest) -> None:
        self.submitted.append(request)


class ServiceHarness:
    """A :class:`TranslationService` on a tiny TLB geometry, driven by hand.

    L2 misses enter through ``_l2_lookup`` and walks finish through the
    backend's completion callback, so every call runs the service's own
    L2 routing, resolve and backpressure-drain code.  ``responses``
    records each ``(sm, vpn, pfn)`` the L2 side answers.
    """

    def __init__(
        self,
        *,
        l2_mshr: int = 2,
        merges: int = 3,
        in_tlb: int = 4,
        l2_sets: int = 2,
        l2_ways: int = 4,
        l1_mshr: int = 4,
        l1_merges: int = 4,
        num_sms: int = 2,
    ) -> None:
        config = replace(baseline_config(), num_sms=num_sms, hw_in_tlb_mshr=in_tlb > 0)
        config = replace(
            config,
            l1_tlb=replace(config.l1_tlb, mshr_entries=l1_mshr, mshr_merges=l1_merges),
            l2_tlb=replace(
                config.l2_tlb,
                entries=l2_sets * l2_ways,
                associativity=l2_ways,
                mshr_entries=l2_mshr,
                mshr_merges=merges,
            ),
        ).with_softwalker(in_tlb_mshr_entries=in_tlb)
        self.engine = Engine()
        self.stats = StatsRegistry()
        space = AddressSpace(config.page_table)
        pwc = PageWalkCache(
            config.ptw.pwc_entries,
            space.layout,
            space.radix.root_base,
            self.stats,
            min_level=config.ptw.pwc_min_level,
        )
        self.backend = RecordingBackend()
        self.service = TranslationService(
            self.engine, config, space, pwc, self.backend, self.stats
        )
        self.responses: list[tuple[int, int, int]] = []
        respond = self.service._respond

        def record(sm_id, vpn, pfn, time):
            self.responses.append((sm_id, vpn, pfn))
            respond(sm_id, vpn, pfn, time)

        self.service._respond = record
        self._completed: set[int] = set()

    def miss(self, sm: int, vpn: int) -> str:
        """One L2 lookup: ``"hit"``, ``"new"``, ``"merged"`` or ``"failed"``."""
        launched = len(self.backend.submitted)
        depth = self.service.backpressure_depth
        answered = len(self.responses)
        self.service._l2_lookup(sm, vpn)
        if len(self.responses) > answered:
            return "hit"
        if len(self.backend.submitted) > launched:
            return "new"
        if self.service.backpressure_depth > depth:
            return "failed"
        return "merged"

    def outstanding(self) -> list[WalkRequest]:
        """Submitted walks not completed yet, in submission order."""
        return [r for r in self.backend.submitted if id(r) not in self._completed]

    def complete(self, request: WalkRequest, pfn: int) -> None:
        """Finish ``request``'s walk with translation ``pfn``."""
        self._completed.add(id(request))
        outcome = WalkOutcome(pfn, self.engine.now, 0, 1, False, 0, None)
        self.backend.on_complete(request, outcome)

    def pending_waiters(self, vpn: int) -> list | None:
        return self.service.l2_tlb.probe_pending(vpn)


class ScanMSHRFile:
    """Reference MSHR file: allocate -> ``"new"``/``"merged"``/``"full"``."""

    def __init__(self, entries, merges, counts, name):
        self.capacity = entries
        self.nominal = entries
        self.merges = merges
        self.counts = counts
        self.name = name
        self.entries: dict[int, list] = {}

    def allocate(self, vpn, waiter):
        waiters = self.entries.get(vpn)
        if waiters is not None:
            if len(waiters) >= self.merges:
                self.counts[f"{self.name}.merge_full"] += 1
                return "full"
            waiters.append(waiter)
            self.counts[f"{self.name}.merged"] += 1
            return "merged"
        if len(self.entries) >= self.capacity:
            self.counts[f"{self.name}.full"] += 1
            return "full"
        self.entries[vpn] = [waiter]
        self.counts[f"{self.name}.allocated"] += 1
        return "new"

    def resolve(self, vpn):
        waiters = self.entries.pop(vpn, None)
        if waiters is None:
            return []
        self.counts[f"{self.name}.resolved"] += 1
        return waiters


class ScanL2MissPath:
    """Reference L2 side: a tracker object over an MSHR file and a TLB.

    ``track`` routes a miss the way Section 4.5 describes, in separate
    steps: merge onto the MSHR entry or pending way that already holds
    the VPN, else allocate a dedicated MSHR, else a pending way within
    the In-TLB budget, else fail.  Failures queue for a retry that
    drains after each walk completion until one re-fails.
    """

    def __init__(self, num_sets, ways, mshr_entries, merges, in_tlb_limit):
        self.counts: Counter = Counter()
        self.tlb = ScanTLB(num_sets, ways)
        self.mshr = ScanMSHRFile(mshr_entries, merges, self.counts, "l2tlb.mshr")
        self.in_tlb_limit = in_tlb_limit
        self.backpressure: deque = deque()
        self.launched: list[int] = []
        self.responses: list[tuple[int, int, int]] = []

    def pending_count(self):
        return sum(
            entry.pending for entries in self.tlb.sets for entry in entries.values()
        )

    def _fail(self):
        self.counts["l2tlb.mshr_failures"] += 1
        return "failed"

    def track(self, vpn, waiter):
        if vpn in self.mshr.entries:
            if self.mshr.allocate(vpn, waiter) == "merged":
                return "merged"
            return self._fail()
        entry = self.tlb._set(vpn).get(vpn)
        if entry is not None and entry.pending:
            if len(entry.waiters) >= self.mshr.merges:
                self.counts["l2tlb.pending_merge_full"] += 1
                return self._fail()
            self.tlb.merge_pending(vpn, waiter)
            self.counts["l2tlb.pending_merged"] += 1
            return "merged"
        if self.mshr.allocate(vpn, waiter) == "new":
            return "new"
        if self.in_tlb_limit and self.pending_count() < self.in_tlb_limit:
            if self.tlb.allocate_pending(vpn, waiter):
                self.counts["l2tlb.pending_allocated"] += 1
                return "new"
            self.counts["l2tlb.pending_set_full"] += 1
        return self._fail()

    def lookup(self, sm, vpn, is_retry=False):
        self.counts["l2tlb.lookups"] += 1
        pfn = self.tlb.lookup(vpn)
        if pfn is not None:
            self.counts["l2tlb.hits"] += 1
            self.responses.append((sm, vpn, pfn))
            return "hit"
        self.counts["l2tlb.misses"] += 1
        if not is_retry:
            self.counts["l2tlb.demand_misses"] += 1
        outcome = self.track(vpn, sm)
        if outcome == "new":
            self.launched.append(vpn)
        elif outcome == "failed":
            self.backpressure.append((sm, vpn))
        return outcome

    def complete(self, vpn, pfn):
        waiters = self.tlb.fill(vpn, pfn)
        if waiters:
            self.counts["l2tlb.pending_resolved"] += 1
        for sm in dict.fromkeys([*waiters, *self.mshr.resolve(vpn)]):
            self.responses.append((sm, vpn, pfn))
        while self.backpressure:
            sm, retry_vpn = self.backpressure.popleft()
            depth = len(self.backpressure)
            self.lookup(sm, retry_vpn, is_retry=True)
            if len(self.backpressure) > depth:
                break

    def l2tlb_counters(self):
        counts = {name: value for name, value in self.counts.items() if value}
        if self.tlb.evictions:
            counts["l2tlb.evictions"] = self.tlb.evictions
        if self.tlb.dropped:
            counts["l2tlb.fill_dropped"] = self.tlb.dropped
        return counts


class L2MissPathMachine(RuleBasedStateMachine):
    @initialize(
        num_sets=st.sampled_from([1, 2]),
        ways=st.integers(min_value=1, max_value=3),
        mshr_entries=st.integers(min_value=0, max_value=3),
        merges=st.integers(min_value=1, max_value=3),
        in_tlb=st.integers(min_value=0, max_value=4),
        num_sms=st.integers(min_value=1, max_value=3),
    )
    def setup(self, num_sets, ways, mshr_entries, merges, in_tlb, num_sms):
        self.num_sms = num_sms
        self.harness = ServiceHarness(
            l2_mshr=mshr_entries,
            merges=merges,
            in_tlb=in_tlb,
            l2_sets=num_sets,
            l2_ways=ways,
            num_sms=num_sms,
        )
        self.model = ScanL2MissPath(num_sets, ways, mshr_entries, merges, in_tlb)

    @rule(data=st.data(), vpn=st.integers(min_value=0, max_value=9))
    def miss(self, data, vpn):
        sm = data.draw(st.integers(0, self.num_sms - 1))
        assert self.harness.miss(sm, vpn) == self.model.lookup(sm, vpn)

    @precondition(lambda self: self.harness.outstanding())
    @rule(data=st.data())
    def complete_walk(self, data):
        outstanding = self.harness.outstanding()
        request = data.draw(st.sampled_from(outstanding))
        pfn = 100 + request.vpn
        self.harness.complete(request, pfn)
        self.model.complete(request.vpn, pfn)

    @rule(entries=st.integers(min_value=0, max_value=4))
    def set_capacity(self, entries):
        self.harness.service.l2_mshr.set_capacity(entries)
        mshr = self.model.mshr
        mshr.capacity = max(0, min(entries, mshr.nominal))

    @invariant()
    def same_state(self):
        service = self.harness.service
        model = self.model
        assert [r.vpn for r in self.harness.backend.submitted] == model.launched
        assert self.harness.responses == model.responses
        assert list(service._backpressure) == list(model.backpressure)
        mshr = service.l2_mshr
        assert mshr.capacity == model.mshr.capacity
        assert mshr.tracked_vpns() == list(model.mshr.entries)
        for vpn, waiters in model.mshr.entries.items():
            assert mshr._entries[vpn] == waiters
            assert mshr.waiter_count(vpn) == len(waiters)
        model_pending = {
            vpn: entry.waiters
            for entries in model.tlb.sets
            for vpn, entry in entries.items()
            if entry.pending
        }
        assert sorted(service.l2_tlb.pending_vpns()) == sorted(model_pending)
        for vpn, waiters in model_pending.items():
            assert self.harness.pending_waiters(vpn) == waiters
        real_counts = {
            name: value
            for name, value in self.harness.stats.counters.as_dict().items()
            if name.startswith("l2tlb.")
        }
        assert real_counts == model.l2tlb_counters()
        counters = self.harness.stats.counters
        assert counters.get("walks.launched") == len(model.launched)


TestL2MissPathAgainstScan = as_test_case(L2MissPathMachine)
