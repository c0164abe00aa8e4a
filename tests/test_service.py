"""End-to-end tests for the simulation service daemon.

Each test boots a real ``repro serve`` daemon as a subprocess on a
unix socket under ``tmp_path`` and drives it with the blocking
:class:`~repro.service.client.ServiceClient` — the same path users
take.  The acceptance properties of the service PR live here:

* a duplicate submission never re-runs and returns a byte-identical
  fingerprint;
* submissions beyond the admission bound get a backpressure reply
  immediately instead of hanging;
* SIGTERM during an in-flight job drains gracefully, and a restarted
  daemon resumes the persisted queue and completes it.
"""

import json
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from repro.config import baseline_config
from repro.service import Backpressure, JobSpec, ServiceClient, ServiceError

#: Scale small enough that one gups run takes about a second.
TINY = 0.05
#: Scale big enough that a run is reliably still in flight seconds in.
LONG = 4.0


@contextmanager
def daemon(tmp_path, *args, env_extra=None):
    """A live ``repro serve`` subprocess; yields (process, client)."""
    socket_path = str(tmp_path / "svc.sock")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            filter(None, [os.path.abspath("src"), os.environ.get("PYTHONPATH")])
        ),
        REPRO_SOCKET=socket_path,
        REPRO_STORE=str(tmp_path / "store"),
    )
    if env_extra:
        env.update(env_extra)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--drain-grace", "0.5", *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    client = ServiceClient(socket_path, client_name="pytest")
    try:
        client.wait_until_up(15.0)
        yield process, client
    finally:
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5)
        process.stdout.close()


class TestBasicOps:
    def test_ping_and_stats(self, tmp_path):
        with daemon(tmp_path) as (_process, client):
            pong = client.ping()
            assert pong["ok"] and pong["version"] == 1 and not pong["draining"]
            stats = client.stats()
            assert stats["simulations"] == 0
            assert stats["queue"]["depth"] == 0

    def test_bad_requests_get_error_codes_not_hangs(self, tmp_path):
        with daemon(tmp_path) as (_process, client):
            with pytest.raises(ServiceError) as unknown_op:
                client._roundtrip({"op": "explode"})
            assert unknown_op.value.code == 400
            with pytest.raises(ServiceError) as unknown_job:
                client.status("j-nope")
            assert unknown_job.value.code == 404
            with pytest.raises(ServiceError) as unknown_config:
                client.submit({"benchmark": "gups", "config": "warp-drive"})
            assert unknown_config.value.code == 400
            # Refused at submit, not on a worker after a crash attempt.
            walkerless = baseline_config().with_ptw(num_walkers=0).to_dict()
            with pytest.raises(ServiceError) as unbuildable:
                client._roundtrip(
                    {"op": "submit", "benchmark": "gups", "config": walkerless}
                )
            assert unbuildable.value.code == 400
            assert "no walk backend" in str(unbuildable.value)
            # The daemon survived all four and still answers.
            assert client.ping()["ok"]

    def test_jobs_listing(self, tmp_path):
        with daemon(tmp_path) as (_process, client):
            assert client.jobs() == []
            client.submit(JobSpec(benchmark="gups", scale=TINY), wait=True)
            jobs = client.jobs()
            assert len(jobs) == 1
            assert jobs[0]["state"] == "done"


class TestDedupe:
    def test_duplicate_submission_never_reruns(self, tmp_path):
        """Same spec, three roads in — exactly one simulation happens and
        every caller gets byte-identical result + fingerprint."""
        spec = JobSpec(benchmark="gups", scale=TINY, seed=11)
        with daemon(tmp_path) as (_process, client):
            first = client.submit(spec, wait=True)
            assert first["state"] == "done" and not first["cached"]

            other = ServiceClient(client.socket_path, client_name="second")
            again = other.submit(spec, wait=True)
            assert again["job"] == first["job"]  # attached, not re-run
            assert again["digest"] == first["digest"]
            assert json.dumps(again["result"], sort_keys=True) == json.dumps(
                first["result"], sort_keys=True
            )

            status = client.status(first["job"])
            assert status["attached"] == 1
            assert client.stats()["simulations"] == 1

    def test_result_store_hit_across_restart(self, tmp_path):
        """A restarted daemon serves a previously computed spec straight
        from the persistent store without occupying a worker."""
        spec = JobSpec(benchmark="gups", scale=TINY, seed=23)
        with daemon(tmp_path) as (_process, client):
            first = client.submit(spec, wait=True)
            digest = first["digest"]
        with daemon(tmp_path) as (_process, client):
            ack = client.submit(spec)
            assert ack["cached"] is True
            final = client.status(ack["job"], result=True)
            assert final["state"] == "done"
            assert final["digest"] == digest
            assert client.stats()["simulations"] == 0

    def test_distinct_specs_do_not_dedupe(self, tmp_path):
        with daemon(tmp_path) as (_process, client):
            a = client.submit(JobSpec(benchmark="gups", scale=TINY, seed=1))
            b = client.submit(JobSpec(benchmark="gups", scale=TINY, seed=2))
            assert a["job"] != b["job"]


class TestBackpressure:
    def test_admission_bound_replies_instead_of_hanging(self, tmp_path):
        with daemon(
            tmp_path, "--max-inflight", "1", "--max-depth", "1",
            "--max-client-depth", "1",
        ) as (_process, client):
            # Occupy the single worker slot with a long job...
            running = client.submit(JobSpec(benchmark="gups", scale=LONG))
            assert running["state"] == "queued"
            # ...fill the queue from a second client...
            filler = ServiceClient(client.socket_path, client_name="filler")
            filler.submit(JobSpec(benchmark="gups", scale=LONG, seed=1))
            # ...and the next submission must bounce fast with a hint.
            started = time.monotonic()
            with pytest.raises(Backpressure) as refusal:
                third = ServiceClient(client.socket_path, client_name="third")
                third.submit(JobSpec(benchmark="gups", scale=LONG, seed=2))
            assert time.monotonic() - started < 5.0
            assert refusal.value.code == 429
            assert refusal.value.retry_after > 0
            assert "full" in refusal.value.error

    def test_per_client_bound(self, tmp_path):
        with daemon(
            tmp_path, "--max-inflight", "1", "--max-depth", "8",
            "--max-client-depth", "1",
        ) as (_process, client):
            # Occupy the single worker with someone else's job so this
            # client's submissions stay *queued* (the bound is on queued
            # work, not on jobs already running).
            hog = ServiceClient(client.socket_path, client_name="hog")
            hog.submit(JobSpec(benchmark="gups", scale=LONG, seed=4))
            client.submit(JobSpec(benchmark="gups", scale=LONG, seed=5))
            with pytest.raises(Backpressure) as refusal:
                client.submit(JobSpec(benchmark="gups", scale=LONG, seed=6))
            assert refusal.value.code == 429
            # A different client is still welcome.
            other = ServiceClient(client.socket_path, client_name="other")
            accepted = other.submit(JobSpec(benchmark="gups", scale=LONG, seed=7))
            assert accepted["state"] == "queued"

    def test_draining_daemon_refuses_with_503(self, tmp_path):
        with daemon(tmp_path) as (_process, client):
            client.submit(JobSpec(benchmark="gups", scale=LONG))
            client.drain()
            with pytest.raises(Backpressure) as refusal:
                client.submit(JobSpec(benchmark="gups", scale=TINY, seed=9))
            assert refusal.value.code == 503


class TestDrainResume:
    def test_sigterm_drains_and_restart_resumes(self, tmp_path):
        """The full lifecycle the PR promises: kill a busy daemon, get a
        persisted queue; restart it, get the finished job."""
        spec = JobSpec(benchmark="gups", scale=LONG, seed=42)
        state_path = tmp_path / "svc.sock.state.json"
        with daemon(tmp_path, "--max-inflight", "1") as (process, client):
            submitted = client.submit(spec)
            job_id = submitted["job"]
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                if client.status(job_id)["state"] == "running":
                    break
                time.sleep(0.1)
            assert client.status(job_id)["state"] == "running"
            process.terminate()  # SIGTERM mid-flight
            assert process.wait(timeout=30) == 0
        payload = json.loads(state_path.read_text())
        assert [entry["id"] for entry in payload["jobs"]] == [job_id]

        with daemon(tmp_path) as (_process, client):
            # Same id survives the restart; the job runs to completion.
            final = client.subscribe(job_id)
            assert final["state"] == "done"
            assert final["digest"]
            status = client.status(job_id)
            assert status["dispatches"] == 2
        assert not state_path.exists()  # snapshot is consumed, not replayed

    def test_waiting_client_gets_drain_notice_not_a_hang(self, tmp_path):
        """A client blocked in ``submit --wait`` when the daemon drains
        must receive a meaningful 503 drain notice (the job was requeued
        and will resume), not a generic stream-closed 500."""
        import threading

        with daemon(tmp_path, "--max-inflight", "1") as (process, client):
            outcome = {}

            def waiter():
                try:
                    outcome["final"] = client.submit(
                        JobSpec(benchmark="gups", scale=LONG, seed=77), wait=True
                    )
                except ServiceError as refusal:
                    outcome["error"] = refusal

            thread = threading.Thread(target=waiter)
            thread.start()
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                watcher = ServiceClient(client.socket_path, client_name="watch")
                jobs = watcher.jobs()
                if jobs and jobs[0]["state"] == "running":
                    break
                time.sleep(0.1)
            process.terminate()  # SIGTERM while the waiter is blocked
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert process.wait(timeout=30) == 0
            refusal = outcome.get("error")
            assert refusal is not None, f"expected a drain notice, got {outcome}"
            assert refusal.code == 503
            assert "requeued" in refusal.error
            assert refusal.frame.get("state") == "queued"

    def test_refused_second_daemon_preserves_queue_state(self, tmp_path):
        """A second daemon refused the socket must exit *before* touching
        the persisted queue snapshot — losing it would drop jobs."""
        state_path = tmp_path / "svc.sock.state.json"
        with daemon(tmp_path) as (_process, client):
            snapshot = {
                "version": 1,
                "jobs": [
                    {
                        "id": "j-preserve-me",
                        "spec": {"benchmark": "gups"},
                        "key": "k-preserve",
                        "client": "anon",
                        "submitted_at": 0.0,
                        "dispatches": 1,
                    }
                ],
            }
            state_path.write_text(json.dumps(snapshot))
            env = dict(
                os.environ,
                PYTHONPATH=os.pathsep.join(
                    filter(
                        None,
                        [os.path.abspath("src"), os.environ.get("PYTHONPATH")],
                    )
                ),
                REPRO_SOCKET=str(tmp_path / "svc.sock"),
                REPRO_STORE=str(tmp_path / "store"),
            )
            second = subprocess.run(
                [sys.executable, "-m", "repro", "serve"],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert second.returncode != 0
            assert "already serving" in second.stderr + second.stdout
            # The live daemon is untouched and the snapshot survived.
            assert client.ping()["ok"]
            assert json.loads(state_path.read_text()) == snapshot

    def test_clean_drain_with_empty_queue_leaves_no_state(self, tmp_path):
        state_path = tmp_path / "svc.sock.state.json"
        with daemon(tmp_path) as (process, client):
            client.submit(JobSpec(benchmark="gups", scale=TINY), wait=True)
            process.terminate()
            assert process.wait(timeout=30) == 0
        assert not state_path.exists()


class TestStreaming:
    def test_progress_events_then_terminal_frame(self, tmp_path):
        with daemon(tmp_path) as (_process, client):
            events = []
            final = client.submit(
                JobSpec(benchmark="gups", scale=0.4), wait=True,
                on_event=events.append,
            )
            assert final["state"] == "done" and final["done"]
            kinds = [event.get("event") for event in events]
            assert kinds[0] == "started"
            progress = [e for e in events if e.get("event") == "progress"]
            assert progress, "expected at least one heartbeat"
            beat = progress[-1]
            assert beat["cycle"] > 0
            assert beat["events"] > 0
            assert "warps_remaining" in beat
            assert "gpu.warps_remaining" in beat["gauges"]

    def test_late_subscriber_gets_history_and_final(self, tmp_path):
        with daemon(tmp_path) as (_process, client):
            done = client.submit(JobSpec(benchmark="gups", scale=TINY), wait=True)
            replayed = []
            final = client.subscribe(done["job"], on_event=replayed.append)
            assert final["state"] == "done"
            assert final["digest"] == done["digest"]
            assert any(e.get("event") == "started" for e in replayed)
