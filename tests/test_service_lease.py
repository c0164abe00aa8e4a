"""Unit tests for the lease layer (crash-safe dispatch ownership)."""

import json

import pytest

from repro.service.lease import LeaseHeld, LeaseManager, describe_leases


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


def make_manager(*, ttl=10.0, clock=None):
    return LeaseManager(ttl=ttl, clock=clock or FakeClock())


class TestGrantRefreshRelease:
    def test_grant_is_exclusive_while_live(self, clock):
        manager = make_manager(clock=clock)
        lease = manager.grant("j-1", "w-a")
        assert lease.worker == "w-a" and lease.attempt == 1
        with pytest.raises(LeaseHeld) as refusal:
            manager.grant("j-1", "w-b")
        assert refusal.value.lease.token == lease.token
        assert manager.granted == 1

    def test_expired_lease_can_be_regranted(self, clock):
        manager = make_manager(ttl=5.0, clock=clock)
        first = manager.grant("j-1", "w-a")
        clock.advance(6.0)
        second = manager.grant("j-1", "w-b", attempt=2)
        assert second.token != first.token
        assert second.worker == "w-b" and second.attempt == 2

    def test_refresh_pushes_expiry_forward(self, clock):
        manager = make_manager(ttl=5.0, clock=clock)
        lease = manager.grant("j-1", "w-a")
        clock.advance(4.0)
        renewed = manager.refresh("j-1", lease.token)
        assert renewed is not None
        assert renewed.expires_at == clock.now + 5.0
        clock.advance(4.0)  # 8s after grant: dead without the refresh
        assert manager.holder("j-1").expired(clock.now) is False

    def test_refresh_with_stale_token_returns_none(self, clock):
        manager = make_manager(ttl=5.0, clock=clock)
        lease = manager.grant("j-1", "w-a")
        assert manager.refresh("j-1", "no-such-token") is None
        assert manager.refresh("j-2", lease.token) is None  # wrong job
        clock.advance(6.0)
        assert manager.refresh("j-1", lease.token) is None
        # A re-granted job refuses the previous holder's token.
        regrant = manager.grant("j-1", "w-b", attempt=2)
        assert manager.refresh("j-1", lease.token) is None
        assert manager.refresh("j-1", regrant.token) is not None

    def test_release_and_release_job(self, clock):
        manager = make_manager(clock=clock)
        lease = manager.grant("j-1", "w-a")
        assert manager.release_job("j-1") is True
        assert manager.release_job("j-1") is False
        # A released lease's token is stale at once.
        assert manager.refresh("j-1", lease.token) is None
        assert len(manager) == 0


class TestExpiry:
    def test_expired_lists_only_lapsed_leases(self, clock):
        manager = make_manager(ttl=5.0, clock=clock)
        manager.grant("j-old", "w-a")
        clock.advance(3.0)
        manager.grant("j-new", "w-b")
        clock.advance(3.0)  # j-old at 6s, j-new at 3s
        expired = {lease.job_id for lease in manager.expired()}
        active = {lease.job_id for lease in manager.active()}
        assert expired == {"j-old"} and active == {"j-new"}

    def test_expire_now_fast_paths_a_dead_worker(self, clock):
        manager = make_manager(ttl=100.0, clock=clock)
        manager.grant("j-1", "w-dead")
        manager.grant("j-2", "w-dead")
        manager.grant("j-3", "w-alive")
        touched = manager.expire_now(worker="w-dead")
        assert {lease.job_id for lease in touched} == {"j-1", "j-2"}
        assert {lease.job_id for lease in manager.expired()} == {"j-1", "j-2"}

    def test_sweep_refuses_a_regranted_job(self, clock):
        manager = make_manager(ttl=5.0, clock=clock)
        old = manager.grant("j-1", "w-a")
        clock.advance(6.0)
        manager.grant("j-1", "w-b")  # reaper raced a re-grant
        assert manager.sweep(old) is False
        assert manager.holder("j-1").worker == "w-b"

    def test_sweep_removes_and_counts(self, clock):
        manager = make_manager(ttl=5.0, clock=clock)
        lease = manager.grant("j-1", "w-a")
        clock.advance(6.0)
        assert manager.sweep(lease) is True
        assert manager.holder("j-1") is None
        assert manager.expired_total == 1

    def test_iteration_covers_expired_leases_too(self, clock):
        """The lease table is the one record of running jobs, so walking
        it (as a drain does) must include leases the reaper has not
        swept yet."""
        manager = make_manager(ttl=5.0, clock=clock)
        manager.grant("j-old", "w-a")
        clock.advance(6.0)
        manager.grant("j-new", "w-b")
        assert {lease.job_id for lease in manager} == {"j-old", "j-new"}
        assert len(manager) == 2


class TestRoundTripAndDescribe:
    def test_describe_leases_is_json_safe(self, clock):
        manager = make_manager(ttl=10.0, clock=clock)
        manager.grant("j-1", "w-a")
        table = describe_leases(manager.active(), now=clock.now)
        assert json.loads(json.dumps(table)) == table
        assert table[0]["job"] == "j-1" and table[0]["remaining"] == 10.0

    def test_ttl_must_be_positive(self):
        with pytest.raises(ValueError):
            LeaseManager(ttl=0.0)
