"""Unit tests for the Request Distributor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DistributorPolicy
from repro.core.distributor import RequestDistributor, RoundRobinSelection
from repro.ptw.request import WalkRequest
from repro.sim.stats import StatsRegistry


def make_distributor(num_sms=4, capacity=2, policy=DistributorPolicy.ROUND_ROBIN,
                     idleness=None):
    dist = RequestDistributor(
        num_sms, capacity, StatsRegistry(), policy=policy, idleness=idleness
    )
    sent = []
    dist.dispatch = lambda sm, req: sent.append((sm, req.vpn))
    return dist, sent


def req(vpn) -> WalkRequest:
    return WalkRequest(vpn=vpn, enqueue_time=0, start_level=4, node_base=0)


class TestRoundRobin:
    def test_cycles_through_cores(self):
        dist, sent = make_distributor()
        for vpn in range(4):
            dist.submit(req(vpn))
        assert [sm for sm, _ in sent] == [0, 1, 2, 3]

    def test_skips_full_cores(self):
        dist, sent = make_distributor(num_sms=2, capacity=1)
        dist.submit(req(0))  # -> SM 0
        dist.submit(req(1))  # -> SM 1
        dist.complete(0)
        dist.submit(req(2))  # SM 1 full -> SM 0
        assert sent[-1][0] == 0

    def test_counter_tracks_in_flight(self):
        dist, _ = make_distributor()
        dist.submit(req(0))
        assert dist.counter(0) == 1 and dist.in_flight == 1
        dist.complete(0)
        assert dist.counter(0) == 0


    @settings(max_examples=100, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=45), min_size=1))
    def test_bisect_pick_matches_modular_min(self, subset):
        # 46 SMs, every cursor: the first available SM at or after the
        # cursor, wrapping, is the one closest to it modulo 46.
        num_sms = 46
        available = sorted(subset)
        dist, _ = make_distributor(num_sms=num_sms)
        for cursor in range(num_sms):
            policy = RoundRobinSelection()
            policy._cursor = cursor
            expected = min(available, key=lambda s: (s - cursor) % num_sms)
            assert policy.select(available, dist) == expected
            assert policy._cursor == (expected + 1) % num_sms


class TestOverflow:
    def test_overflow_queue_when_all_full(self):
        dist, sent = make_distributor(num_sms=2, capacity=1)
        for vpn in range(3):
            dist.submit(req(vpn))
        assert len(sent) == 2
        assert dist.overflow_depth == 1
        dist.complete(1)  # frees a slot; overflow drains
        assert len(sent) == 3
        assert sent[-1] == (1, 2)
        assert dist.overflow_depth == 0

    def test_counter_underflow_guarded(self):
        dist, _ = make_distributor()
        with pytest.raises(ValueError):
            dist.complete(0)


class TestPolicies:
    def test_random_policy_is_seeded_deterministic(self):
        a, sent_a = make_distributor(policy=DistributorPolicy.RANDOM)
        b, sent_b = make_distributor(policy=DistributorPolicy.RANDOM)
        for vpn in range(8):
            a.submit(req(vpn))
            b.submit(req(vpn))
        assert sent_a == sent_b

    def test_random_policy_only_picks_available(self):
        dist, sent = make_distributor(num_sms=3, capacity=1,
                                      policy=DistributorPolicy.RANDOM)
        for vpn in range(3):
            dist.submit(req(vpn))
        assert sorted(sm for sm, _ in sent) == [0, 1, 2]

    def test_stall_aware_prefers_idle_core(self):
        idleness = {0: 100, 1: 5, 2: 50}
        dist, sent = make_distributor(
            num_sms=3, policy=DistributorPolicy.STALL_AWARE,
            idleness=lambda sm: idleness[sm],
        )
        dist.submit(req(0))
        assert sent[0][0] == 1  # the most idle core

    def test_stall_aware_requires_probe(self):
        with pytest.raises(ValueError):
            RequestDistributor(2, 1, StatsRegistry(),
                               policy=DistributorPolicy.STALL_AWARE)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            RequestDistributor(2, 1, StatsRegistry(), policy="lottery")

    def test_dispatch_must_be_wired(self):
        dist = RequestDistributor(2, 1, StatsRegistry())
        with pytest.raises(RuntimeError):
            dist.submit(req(0))
