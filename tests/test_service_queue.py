"""Unit tests for the service wire protocol and the job queue."""

import json

import pytest

from repro.config import DEFAULT_CONFIGS
from repro.harness.pool import make_point
from repro.harness.store import canonical_key
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PRIORITIES,
    JobSpec,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_frame,
    ok_frame,
)
from repro.service.queue import (
    EVENT_HISTORY_LIMIT,
    AdmissionRefused,
    Job,
    JobQueue,
)


class TestFrames:
    def test_encode_decode_round_trip(self):
        frame = {"op": "submit", "benchmark": "gups", "scale": 0.5}
        wire = encode_frame(frame)
        assert wire.endswith(b"\n")
        assert b"\n" not in wire[:-1]
        assert decode_frame(wire) == frame

    def test_decode_rejects_empty(self):
        with pytest.raises(ProtocolError, match="empty"):
            decode_frame(b"\n")

    def test_decode_rejects_junk(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_frame(b"{nope\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_frame(b"[1, 2]\n")

    def test_decode_rejects_oversized(self):
        blob = b'{"x": "' + b"a" * MAX_FRAME_BYTES + b'"}\n'
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_frame(blob)

    def test_reply_helpers(self):
        assert ok_frame(foo=1) == {"ok": True, "code": 200, "foo": 1}
        reply = error_frame(429, "full", retry_after=2.5)
        assert reply["ok"] is False
        assert reply["code"] == 429
        assert reply["retry_after"] == 2.5


class TestJobSpec:
    def test_round_trip(self):
        spec = JobSpec(
            benchmark="gups",
            config="softwalker",
            scale=0.25,
            footprint_scale=2.0,
            seed=7,
            priority="high",
        )
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_omits_defaults(self):
        assert JobSpec(benchmark="gups").to_dict() == {
            "benchmark": "gups",
            "config": "baseline",
        }

    def test_needs_benchmark(self):
        with pytest.raises(ProtocolError, match="benchmark"):
            JobSpec.from_dict({"config": "baseline"})

    def test_rejects_bad_priority(self):
        with pytest.raises(ProtocolError, match="priority"):
            JobSpec(benchmark="gups", priority="urgent")

    def test_rejects_non_positive_scale(self):
        with pytest.raises(ProtocolError, match="positive"):
            JobSpec(benchmark="gups", scale=0.0)

    def test_rejects_unparseable_fields(self):
        with pytest.raises(ProtocolError, match="malformed"):
            JobSpec.from_dict({"benchmark": "gups", "scale": "wide"})

    def test_key_matches_store_key(self):
        """The dedupe key IS the persistent store key — the property the
        whole instant-cache-hit path rests on."""
        spec = JobSpec(benchmark="gups", scale=0.25, seed=3)
        point = make_point(
            DEFAULT_CONFIGS.get("baseline"), "gups", scale=0.25, seed=3
        )
        assert spec.key() == canonical_key(point.store_key())

    def test_key_ignores_priority(self):
        low = JobSpec(benchmark="gups", priority="low")
        high = JobSpec(benchmark="gups", priority="high")
        assert low.key() == high.key()


def make_job(job_id, *, client="anon", priority="normal", benchmark="gups"):
    spec = JobSpec(benchmark=benchmark, priority=priority)
    return Job(id=job_id, spec=spec, key=f"k-{job_id}", client=client)


class TestJobQueue:
    def test_priority_classes_drain_in_order(self):
        queue = JobQueue(max_depth=10)
        queue.push(make_job("a", priority="low"))
        queue.push(make_job("b", priority="high"))
        queue.push(make_job("c", priority="normal"))
        assert [queue.pop().id for _ in range(3)] == ["b", "c", "a"]

    def test_round_robin_fairness_within_priority(self):
        """A flood from one client cannot starve another."""
        queue = JobQueue(max_depth=10, max_client_depth=10)
        for index in range(4):
            queue.push(make_job(f"hog{index}", client="hog"))
        queue.push(make_job("meek0", client="meek"))
        order = [queue.pop().id for _ in range(5)]
        assert order.index("meek0") == 1  # served second, not fifth

    def test_iter_matches_pop_order(self):
        queue = JobQueue(max_depth=10, max_client_depth=10)
        for index in range(3):
            queue.push(make_job(f"a{index}", client="a"))
        queue.push(make_job("b0", client="b", priority="high"))
        expected = [job.id for job in queue]
        assert len(queue) == 4  # iteration must not consume
        assert [queue.pop().id for _ in range(4)] == expected

    def test_admit_refuses_on_depth(self):
        queue = JobQueue(max_depth=2, max_client_depth=10)
        queue.push(make_job("a"))
        queue.push(make_job("b"))
        with pytest.raises(AdmissionRefused, match="queue full") as refusal:
            queue.admit("anyone")
        assert refusal.value.retry_after > 0
        assert queue.info()["refused"] == 1

    def test_admit_refuses_on_client_share(self):
        queue = JobQueue(max_depth=10, max_client_depth=1)
        queue.push(make_job("a", client="greedy"))
        with pytest.raises(AdmissionRefused, match="greedy"):
            queue.admit("greedy")
        queue.admit("someone-else")  # other clients still admitted

    def test_retry_after_tracks_runtime(self):
        queue = JobQueue(max_depth=10, max_inflight=1)
        queue.push(make_job("a"))
        queue.record_runtime(8.0)
        assert queue.retry_after() == pytest.approx(8.0, rel=0.01)
        queue.record_runtime(8.0)  # EMA stays at 8 on a steady diet
        assert queue.retry_after() == pytest.approx(8.0, rel=0.01)

    def test_leased_jobs_count_toward_the_retry_hint(self):
        running = [0]  # the scheduler's lease-table size
        queue = JobQueue(max_depth=1, max_inflight=1, running=lambda: running[0])
        queue.record_runtime(4.0)
        queue.push(make_job("a"))
        assert queue.retry_after() == pytest.approx(4.0, rel=0.01)
        running[0] = 1  # a job leased to a worker host
        assert queue.info()["inflight"] == 1
        assert queue.retry_after() == pytest.approx(8.0, rel=0.01)
        with pytest.raises(AdmissionRefused, match=r"1/1 running"):
            queue.admit("anyone")

    def test_pop_empty_returns_none(self):
        assert JobQueue().pop() is None

    def test_rate_limit_refuses_a_flood_with_a_refill_hint(self):
        queue = JobQueue(max_depth=100, max_client_depth=100, rate=1.0, burst=2)
        now = 1000.0
        queue.admit("storm", now=now)
        queue.admit("storm", now=now)  # burst exhausted
        with pytest.raises(AdmissionRefused) as refusal:
            queue.admit("storm", now=now)
        assert "submissions/s" in refusal.value.reason
        assert 0.0 < refusal.value.retry_after <= 1.0
        assert queue.rate_limited == 1
        # A different client has its own bucket.
        queue.admit("calm", now=now)
        # The storm refills at 1 token/s.
        queue.admit("storm", now=now + 1.5)

    def test_rate_limit_off_by_default(self):
        queue = JobQueue(max_depth=100, max_client_depth=100)
        for _ in range(50):
            queue.admit("storm", now=1000.0)
        assert queue.rate_limited == 0

    def test_rate_and_burst_validation(self):
        with pytest.raises(ValueError):
            JobQueue(rate=0.0)
        with pytest.raises(ValueError):
            JobQueue(burst=0)

    def test_backoff_makes_a_job_ineligible_until_not_before(self):
        queue = JobQueue(max_depth=10)
        job = make_job("crashed")
        job.not_before = 2000.0
        queue.push(job)
        assert queue.pop(now=1999.0) is None
        assert queue.depth == 1  # skipped, not dropped
        assert queue.pop(now=2000.5) is job

    def test_backoff_skips_to_another_clients_eligible_job(self):
        queue = JobQueue(max_depth=10, max_client_depth=10)
        crashed = make_job("crashed", client="a")
        crashed.not_before = 2000.0
        queue.push(crashed)
        queue.push(make_job("healthy", client="b"))
        assert queue.pop(now=1000.0).id == "healthy"

    def test_zero_inflight_slots_allowed(self):
        """``max_inflight=0`` is the remote-only scheduler (no local
        worker hosts): admission still works."""
        queue = JobQueue(max_inflight=0)
        queue.admit("anyone")
        with pytest.raises(ValueError):
            JobQueue(max_inflight=-1)

    def test_dead_is_a_terminal_state(self):
        job = make_job("poison")
        job.state = "dead"
        assert job.done is True
        assert job.describe()["state"] == "dead"

    def test_describe_surfaces_attempts_and_worker(self):
        job = make_job("fleet")
        assert job.describe()["attempts"] == 0
        assert "worker" not in job.describe()
        job.attempts = 2
        job.worker = "w-42-abc"
        described = job.describe()
        assert described["attempts"] == 2
        assert described["worker"] == "w-42-abc"

    def test_snapshot_preserves_attempts(self):
        job = make_job("crashed-once")
        job.attempts = 1
        restored = Job.from_snapshot(job.snapshot())
        assert restored.attempts == 1

    def test_admitted_counts_admission_decisions_only(self):
        """Drain-requeued and resumed jobs re-enter via push() alone;
        only admit() — the actual admission decision — counts."""
        queue = JobQueue(max_depth=4, max_client_depth=4)
        queue.admit("a")
        queue.push(make_job("a", client="a"))
        assert queue.info()["admitted"] == 1
        job = queue.pop()
        queue.push(job)  # e.g. a drain-time requeue
        assert queue.info()["admitted"] == 1
        refusing = JobQueue(max_depth=0)
        with pytest.raises(AdmissionRefused):
            refusing.admit("a")
        assert refusing.info()["admitted"] == 0
        assert refusing.info()["refused"] == 1

    def test_snapshot_restore_round_trip(self):
        queue = JobQueue(max_depth=10, max_client_depth=10)
        queue.push(make_job("a", client="x"))
        queue.push(make_job("b", client="y", priority="high"))
        payload = json.loads(json.dumps(queue.snapshot()))
        restored = JobQueue.restore_jobs(payload)
        assert [job.id for job in restored] == ["b", "a"]
        assert restored[0].spec.priority == "high"
        assert restored[1].client == "x"

    def test_restore_rejects_unknown_version(self):
        with pytest.raises(ProtocolError, match="version"):
            JobQueue.restore_jobs({"version": 99, "jobs": []})

    def test_restore_rejects_malformed_jobs(self):
        with pytest.raises(ProtocolError, match="malformed"):
            JobQueue.restore_jobs({"version": 1, "jobs": [{"id": "x"}]})


class TestJob:
    def test_event_history_is_bounded(self):
        job = make_job("a")
        for index in range(EVENT_HISTORY_LIMIT + 10):
            job.record_event({"event": "progress", "n": index})
        assert len(job.events) == EVENT_HISTORY_LIMIT
        assert job.events[-1]["n"] == EVENT_HISTORY_LIMIT + 9

    def test_describe_includes_spec(self):
        job = make_job("a", priority="high")
        described = job.describe()
        assert described["job"] == "a"
        assert described["priority"] == "high"
        assert described["spec"]["benchmark"] == "gups"

    def test_priorities_constant(self):
        assert PRIORITIES == ("high", "normal", "low")
