"""Unit tests for the runtime invariant checker."""

import pytest

from repro.config import baseline_config, softwalker_config
from repro.gpu.gpu import GPUSimulator
from repro.harness.runner import build_workload
from repro.resilience import InvariantChecker, InvariantViolation

SCALE = 0.05


def make_sim(config=None):
    config = config if config is not None else baseline_config()
    return GPUSimulator(config, build_workload("gups", config, scale=SCALE))


class TestCleanRuns:
    @pytest.mark.parametrize(
        "config_fn",
        [baseline_config, softwalker_config, lambda: softwalker_config(hybrid=True)],
        ids=["baseline", "softwalker", "hybrid"],
    )
    def test_healthy_run_audits_clean(self, config_fn):
        sim = make_sim(config_fn())
        checker = InvariantChecker(sim, every=500).attach()
        result = sim.run()
        assert result.complete
        assert checker.audits > 0
        assert result.stats.counters.get("resilience.audits") == checker.audits

    def test_detach_stops_auditing(self):
        sim = make_sim()
        checker = InvariantChecker(sim, every=100).attach()
        sim.advance(max_events=500)
        audits_before = checker.audits
        sim.engine.detach_audit()
        sim.run()
        assert checker.audits == audits_before

    def test_audit_overhead_is_bounded(self):
        # Auditing every 500 events must not change simulated outcomes.
        plain = make_sim().run().fingerprint()
        audited_sim = make_sim()
        InvariantChecker(audited_sim, every=500).attach()
        audited = audited_sim.run().fingerprint()
        # The audit counter itself is the only allowed difference.
        plain_counters = dict(plain["counters"])
        audited_counters = dict(audited["counters"])
        audited_counters.pop("resilience.audits")
        assert plain_counters == audited_counters
        assert plain["cycles"] == audited["cycles"]


class TestDetection:
    def test_orphaned_mshr_entry_is_caught_with_dump(self):
        """A tracked VPN no live walk owns must trip conservation."""
        sim = make_sim()
        InvariantChecker(sim, every=200).attach()
        sim.advance(max_events=1000)
        sim.translation.l2_mshr._entries[0xDEAD] = ["stranded-waiter"]
        with pytest.raises(InvariantViolation) as exc:
            sim.run()
        violation = exc.value
        assert any("no live walk" in text for text in violation.violations)
        dump = violation.dump
        assert hex(0xDEAD) in dump["l2_mshr"]["tracked_vpns"]
        assert dump["engine"]["now"] >= 0
        assert "live_walks" in dump and "l1_mshrs" in dump

    def test_overfull_mshr_is_caught(self):
        sim = make_sim()
        checker = InvariantChecker(sim, every=100)
        mshr = sim.translation.l2_mshr
        for vpn in range(mshr.nominal_capacity + 1):
            mshr._entries[0x9000 + vpn] = []
        with pytest.raises(InvariantViolation) as exc:
            checker.check()
        assert any("exceeds" in text for text in exc.value.violations)

    def test_time_running_backwards_is_caught(self):
        sim = make_sim()
        checker = InvariantChecker(sim, every=100)
        sim.advance(max_events=500)
        checker.check()
        sim.engine.now -= 10
        with pytest.raises(InvariantViolation) as exc:
            checker.check()
        assert any("backwards" in text for text in exc.value.violations)

    def test_merge_limit_overflow_is_caught(self):
        sim = make_sim()
        checker = InvariantChecker(sim, every=100)
        mshr = sim.translation.l2_mshr
        mshr._entries[0x77] = ["w"] * (mshr.merges + 1)
        with pytest.raises(InvariantViolation) as exc:
            checker.check()
        assert any("merge limit" in text for text in exc.value.violations)

    def test_extra_holder_legitimises_walks(self):
        """Walks parked with a registered holder do not count as orphans."""

        class Holder:
            def __init__(self, requests):
                self._requests = requests

            def live_requests(self):
                return self._requests

        from repro.ptw.request import WalkRequest

        sim = make_sim()
        checker = InvariantChecker(sim, every=100)
        sim.translation.l2_mshr._entries[0x55] = []
        with pytest.raises(InvariantViolation):
            checker.check()
        parked = WalkRequest(vpn=0x55, enqueue_time=0, start_level=4, node_base=0)
        checker.add_holder(Holder([parked]))
        checker.check()  # now covered: no violation

    def test_violation_message_renders_dump(self):
        sim = make_sim()
        checker = InvariantChecker(sim, every=100)
        sim.translation.l2_mshr._entries[0xBEEF] = []
        with pytest.raises(InvariantViolation) as exc:
            checker.check()
        text = str(exc.value)
        assert "component state" in text
        assert "0xbeef" in text
