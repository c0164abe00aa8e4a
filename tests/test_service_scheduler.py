"""Unit tests for the Scheduler's leased dispatch bookkeeping.

These drive the scheduler in-process, with coroutines standing in for
worker hosts (``poll`` -> ``worker_done``), so they can assert
scheduling invariants (one job per host, the long poll, drain-time
waiter notification, fleet lease lifecycle) without forking worker
processes.
"""

import asyncio
import json
import time

from repro.config import ServiceConfig, baseline_config
from repro.harness.pool import pool_context
from repro.harness.runner import Runner
from repro.harness.store import ResultStore, fingerprint_digest
from repro.service.protocol import JobSpec
from repro.service.scheduler import Scheduler, _job_worker


def make_scheduler(**overrides) -> Scheduler:
    defaults = dict(max_inflight=2, max_depth=32, max_client_depth=32)
    defaults.update(overrides)
    return Scheduler(config=ServiceConfig(**defaults))


class TestInflightBound:
    def test_burst_never_exceeds_max_inflight(self):
        """A host holds one lease at a time, so a burst of queued jobs
        never runs wider than the number of hosts polling."""

        async def scenario():
            sched = make_scheduler(max_inflight=2)
            sched.start()
            jobs = [
                sched.submit(JobSpec(benchmark="gups", seed=seed))[0]
                for seed in range(8)
            ]
            peak = 0

            async def host(worker):
                nonlocal peak
                while not all(job.done for job in jobs):
                    payload = await sched.poll(worker, 0.05)
                    if payload is None:
                        continue
                    peak = max(peak, len(sched.leases))
                    await asyncio.sleep(0.02)
                    assert sched.worker_done(
                        worker, payload["job_id"], payload["token"],
                        result={"stub": True},
                    )

            await asyncio.gather(host("w-1"), host("w-2"))
            assert all(job.state == "done" for job in jobs)
            await sched.drain(grace=0.1)
            return peak

        peak = asyncio.run(scenario())
        assert peak == 2  # both hosts busy, never a third lease

    def test_inflight_reserved_before_run_task_starts(self):
        """The lease is recorded the moment the poll grants it, before
        the host has run anything."""

        async def scenario():
            sched = make_scheduler(max_inflight=1)
            sched.start()
            for seed in range(4):
                sched.submit(JobSpec(benchmark="gups", seed=seed))
            payload = await sched.poll("w-1", 1.0)
            # One job leased, three still queued.
            assert [(lease.job_id, lease.worker) for lease in sched.leases] == [
                (payload["job_id"], "w-1")
            ]
            assert sched.queue.info()["inflight"] == 1
            assert sched.queue.depth == 3
            await sched.drain(grace=0.0)

        asyncio.run(scenario())


class TestLongPoll:
    def test_held_poll_returns_the_job_as_soon_as_it_is_submitted(self):
        async def scenario():
            sched = make_scheduler()
            sched.start()
            loop = asyncio.get_running_loop()
            started = loop.time()
            held = asyncio.create_task(sched.poll("w-1", 30.0))
            await asyncio.sleep(0.05)
            assert not held.done()  # nothing queued: the poll is held
            job, _ = sched.submit(JobSpec(benchmark="gups", seed=1))
            payload = await asyncio.wait_for(held, timeout=5.0)
            assert payload["job_id"] == job.id
            assert loop.time() - started < 5.0
            await sched.drain(grace=0.0)

        asyncio.run(scenario())

    def test_held_poll_returns_empty_after_the_hold(self):
        async def scenario():
            sched = make_scheduler()
            sched.start()
            loop = asyncio.get_running_loop()
            started = loop.time()
            assert await sched.poll("w-1", 0.2) is None
            assert 0.15 < loop.time() - started < 5.0
            await sched.drain(grace=0.0)

        asyncio.run(scenario())

    def test_held_poll_wakes_when_a_backoff_expires(self):
        async def scenario():
            sched = make_scheduler(
                lease_ttl=0.05, requeue_backoff=0.2, attempt_budget=3
            )
            sched.start()
            job, _ = sched.submit(JobSpec(benchmark="gups", seed=2))
            assert (await sched.poll("w-1", 0.0))["job_id"] == job.id
            await asyncio.sleep(0.08)
            sched.reap()  # crash requeue with a 0.2s backoff
            assert job.state == "queued"
            payload = await asyncio.wait_for(sched.poll("w-2", 30.0), timeout=5.0)
            assert payload["job_id"] == job.id
            assert payload["attempt"] == 2
            await sched.drain(grace=0.0)

        asyncio.run(scenario())

    @staticmethod
    async def held_poll(tmp_path, worker="w-1"):
        """A live in-process daemon plus one raw worker connection whose
        ``worker_poll`` is being held; returns (server, reader, writer)."""
        from repro.service.protocol import decode_frame, encode_frame
        from repro.service.server import ServiceServer

        config = ServiceConfig(
            socket_path=str(tmp_path / "svc.sock"), max_inflight=0, drain_grace=0.0
        )
        server = ServiceServer(config, store=tmp_path / "store")
        await server.start()
        reader, writer = await asyncio.open_unix_connection(config.socket_path)
        writer.write(encode_frame({"op": "worker_register", "worker": worker}))
        await writer.drain()
        assert decode_frame(await reader.readline())["ok"]
        writer.write(encode_frame({"op": "worker_poll", "worker": worker, "hold": 30.0}))
        await writer.drain()
        await asyncio.sleep(0.1)
        return server, reader, writer

    def test_held_poll_gets_503_on_drain(self, tmp_path):
        """Through the daemon: a held ``worker_poll`` is answered with a
        503 the moment a drain begins, not after its hold."""
        from repro.service.protocol import decode_frame

        async def scenario():
            server, reader, writer = await self.held_poll(tmp_path)
            loop = asyncio.get_running_loop()
            started = loop.time()
            shutdown = asyncio.create_task(server.shutdown())
            reply = decode_frame(await asyncio.wait_for(reader.readline(), 5.0))
            assert reply["ok"] is False and reply["code"] == 503
            assert loop.time() - started < 5.0
            writer.close()
            await shutdown

        asyncio.run(scenario())

    def test_held_poll_of_a_dead_worker_leases_nothing(self, tmp_path):
        """A worker that hangs up while its poll is held must not be
        leased the next job (that would cost the job a crash attempt)."""

        async def scenario():
            server, _reader, writer = await self.held_poll(tmp_path)
            writer.close()
            await asyncio.sleep(0.1)  # the daemon sees the EOF
            job, _ = server.scheduler.submit(JobSpec(benchmark="gups", seed=3))
            await asyncio.sleep(0.1)
            payload = await server.scheduler.poll("w-2", 1.0)
            assert payload is not None and payload["job_id"] == job.id
            assert payload["attempt"] == 1 and job.attempts == 0
            await server.shutdown()

        asyncio.run(scenario())


class TestDrainNotifiesWaiters:
    def test_queued_job_waiter_unblocks_with_requeued_event(self):
        """A drain must settle waiters on still-queued jobs — they get a
        terminal 'requeued' event instead of hanging until the socket
        closes under them."""

        async def scenario():
            sched = make_scheduler()
            sched.start()
            job, _ = sched.submit(JobSpec(benchmark="gups", seed=1))
            waiter = asyncio.create_task(sched.wait(job.id))
            await asyncio.sleep(0)  # let the waiter block on the event
            assert not waiter.done()
            await sched.drain(grace=0.1)
            awaited = await asyncio.wait_for(waiter, timeout=5.0)
            assert awaited.state == "queued"  # persisted, not failed
            assert awaited.events[-1]["event"] == "requeued"
            # The snapshot still carries the job for the next daemon.
            assert [j["id"] for j in sched.queue.snapshot()["jobs"]] == [job.id]

        asyncio.run(scenario())

    def test_drain_does_not_double_publish_requeued(self):
        """A leased job requeued when the drain grace expires is already
        notified; the end-of-drain sweep must not publish a second
        terminal, and the host's late report is refused."""

        async def scenario():
            sched = make_scheduler(max_inflight=1)
            sched.start()
            job, _ = sched.submit(JobSpec(benchmark="gups", seed=2))
            payload = await sched.poll("w-1", 1.0)
            await sched.drain(grace=0.1)
            requeues = [
                e for e in job.events if e.get("event") == "requeued"
            ]
            assert len(requeues) == 1
            assert job.state == "queued" and len(sched.leases) == 0
            assert not sched.worker_done(
                "w-1", job.id, payload["token"], result={"stub": True}
            )

        asyncio.run(scenario())


class TestFleetDispatch:
    """Remote dispatch: leases, heartbeats, crash requeue, dead-letter.

    These drive the scheduler's fleet API directly (no server, no
    worker processes) with a very short lease TTL, calling ``reap()``
    by hand instead of waiting on the reaper task."""

    def make(self, **overrides) -> Scheduler:
        defaults = dict(
            max_inflight=0,  # remote-only: no local worker hosts
            max_depth=32,
            max_client_depth=32,
            lease_ttl=0.05,
            attempt_budget=2,
            requeue_backoff=0.0,
        )
        defaults.update(overrides)
        return Scheduler(config=ServiceConfig(**defaults))

    def test_remote_dispatch_grants_a_lease(self):
        async def scenario():
            sched = self.make()
            sched.start()
            job, _ = sched.submit(JobSpec(benchmark="gups", seed=1))
            payload = sched.next_job_for("w-1")
            assert payload is not None
            assert payload["job_id"] == job.id
            assert payload["attempt"] == 1
            assert job.state == "running" and job.worker == "w-1"
            assert [(lease.job_id, lease.worker) for lease in sched.leases] == [
                (job.id, "w-1")
            ]
            assert sched.leases.holder(job.id).token == payload["token"]
            # Nothing else is eligible; a second poll comes back empty.
            assert sched.next_job_for("w-2") is None
            await sched.drain(grace=0.0)

        asyncio.run(scenario())

    def test_heartbeat_refreshes_and_stale_token_is_refused(self):
        async def scenario():
            sched = self.make(lease_ttl=10.0)
            sched.start()
            job, _ = sched.submit(JobSpec(benchmark="gups", seed=2))
            payload = sched.next_job_for("w-1")
            token = payload["token"]
            assert sched.worker_heartbeat("w-1", job.id, token) is True
            assert sched.worker_heartbeat("w-1", job.id, "stale") is False
            await sched.drain(grace=0.0)

        asyncio.run(scenario())

    def test_worker_done_with_stale_token_is_discarded(self):
        async def scenario():
            sched = self.make(lease_ttl=10.0)
            sched.start()
            job, _ = sched.submit(JobSpec(benchmark="gups", seed=3))
            sched.next_job_for("w-1")
            accepted = sched.worker_done(
                "w-2", job.id, "stale", result={"cycles": 1}, crash=False
            )
            assert accepted is False
            assert job.state == "running"  # the real holder still owns it
            await sched.drain(grace=0.0)

        asyncio.run(scenario())

    def test_expired_lease_requeues_with_attempt_counted(self):
        async def scenario():
            sched = self.make()
            sched.start()
            job, _ = sched.submit(JobSpec(benchmark="gups", seed=4))
            payload = sched.next_job_for("w-1")
            await asyncio.sleep(0.08)  # outlive the 0.05s TTL
            # The background reaper may already have fired; either way
            # the job must be back in the queue with the attempt counted.
            sched.reap()
            assert job.state == "queued"
            assert job.attempts == 1
            assert sched.crash_requeues == 1
            # The old token is dead: a late report is discarded.
            assert not sched.worker_done(
                "w-1", job.id, payload["token"], result={"cycles": 1}
            )
            await sched.drain(grace=0.0)

        asyncio.run(scenario())

    def test_attempt_budget_dead_letters_the_job(self):
        async def scenario():
            sched = self.make(attempt_budget=2)
            sched.start()
            job, _ = sched.submit(JobSpec(benchmark="gups", seed=5))
            for _attempt in (1, 2):
                assert sched.next_job_for("w-1") is not None
                await asyncio.sleep(0.08)
                sched.reap()
            assert job.state == "dead"
            assert job.attempts == 2
            assert "dead-lettered" in job.error
            assert sched.dead_letters == 1
            assert job.events[-1]["event"] == "end"
            # Resubmitting the same spec starts fresh instead of
            # attaching to the corpse.
            fresh, extra = sched.submit(JobSpec(benchmark="gups", seed=5))
            assert fresh.id != job.id and "deduped" not in extra
            await sched.drain(grace=0.0)

        asyncio.run(scenario())

    def test_requeue_backoff_delays_eligibility(self):
        async def scenario():
            sched = self.make(requeue_backoff=30.0, attempt_budget=3)
            sched.start()
            job, _ = sched.submit(JobSpec(benchmark="gups", seed=6))
            sched.next_job_for("w-1")
            await asyncio.sleep(0.08)
            sched.reap()
            assert job.state == "queued"
            assert job.not_before > time.time() + 25.0
            # Still backing off: no dispatch for anyone.
            assert sched.next_job_for("w-2") is None
            await sched.drain(grace=0.0)

        asyncio.run(scenario())

    def test_worker_disconnect_fast_paths_the_requeue(self):
        async def scenario():
            sched = self.make(lease_ttl=60.0)  # TTL alone would take ages
            sched.start()
            sched.register_worker("w-1")
            job, _ = sched.submit(JobSpec(benchmark="gups", seed=7))
            sched.next_job_for("w-1")
            sched.worker_disconnected("w-1")
            assert sched.workers["w-1"]["connected"] is False
            assert sched.reap() == 1  # no TTL wait needed
            assert job.state == "queued" and job.attempts == 1
            await sched.drain(grace=0.0)

        asyncio.run(scenario())

    def test_remote_completion_finishes_the_job(self):
        async def scenario():
            sched = self.make(lease_ttl=10.0)
            sched.start()
            sched.register_worker("w-1")
            job, _ = sched.submit(JobSpec(benchmark="gups", seed=8))
            payload = sched.next_job_for("w-1")
            accepted = sched.worker_done(
                "w-1",
                job.id,
                payload["token"],
                result={"cycles": 42},
                report={"attempts": 1},
                crash=False,
            )
            assert accepted is True
            assert job.state == "done" and job.result == {"cycles": 42}
            assert sched.simulations == 1
            assert len(sched.leases) == 0
            assert sched.queue.info()["inflight"] == 0
            assert sched.workers["w-1"]["jobs_completed"] == 1
            await sched.drain(grace=0.0)

        asyncio.run(scenario())

    def test_completion_with_a_store_writes_only_the_entry(self, tmp_path):
        """Leases live in scheduler memory and store writes take no
        claim: a job completed with a store attached leaves one entry,
        no lease directory beside the socket and no claim file."""
        result = Runner().run(baseline_config(), "gups", scale=0.05)

        async def scenario():
            sched = self.make(
                lease_ttl=10.0, socket_path=str(tmp_path / "svc.sock")
            )
            sched.store = ResultStore(tmp_path / "store")
            sched.start()
            job, _ = sched.submit(JobSpec(benchmark="gups", scale=0.05))
            payload = sched.next_job_for("w-1")
            assert sched.worker_done(
                "w-1", job.id, payload["token"], result=result.to_dict()
            )
            await sched.drain(grace=0.0)
            return job

        job = asyncio.run(scenario())
        assert job.state == "done"
        assert list(tmp_path.glob("*.leases")) == []
        assert list((tmp_path / "store").glob("*.claim")) == []
        stored = ResultStore(tmp_path / "store").load(json.loads(job.key))
        assert fingerprint_digest(stored) == fingerprint_digest(result)

    def test_draining_scheduler_dispatches_nothing(self):
        async def scenario():
            sched = self.make()
            sched.start()
            sched.submit(JobSpec(benchmark="gups", seed=9))
            sched.draining = True
            assert sched.next_job_for("w-1") is None
            sched.draining = False
            await sched.drain(grace=0.0)

        asyncio.run(scenario())

    def test_stats_surface_the_fleet(self):
        async def scenario():
            sched = self.make(lease_ttl=10.0)
            sched.start()
            sched.register_worker("w-1", {"pid": 1234})
            job, _ = sched.submit(JobSpec(benchmark="gups", seed=10))
            sched.next_job_for("w-1")
            fleet = sched.stats()["fleet"]
            assert "w-1" in fleet["workers"]
            assert sched.stats()["queue"]["inflight"] == 1
            assert fleet["leases"][0]["job"] == job.id
            assert fleet["leases_granted"] == 1
            await sched.drain(grace=0.0)

        asyncio.run(scenario())


def run_leased_job(payload: dict) -> dict:
    """Run one dispatch the way a worker host does: fork the job
    process and collect its terminal message."""
    ctx = pool_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_job_worker,
        args=(payload["spec"], payload["policy"], 0, child_conn),
        daemon=True,
    )
    proc.start()
    child_conn.close()
    terminal = None
    try:
        while True:
            msg = parent_conn.recv()
            if msg["type"] != "heartbeat":
                terminal = msg
    except EOFError:
        pass
    finally:
        parent_conn.close()
        proc.join(timeout=30)
    assert terminal is not None and terminal["type"] == "result", terminal
    return terminal


class TestJobTimeout:
    def test_timed_out_job_degrades_after_exactly_one_attempt(self):
        """A deterministic run that overran ``job_timeout`` would overrun
        again, so the service simulates it once and ends it with the
        partial result."""

        async def scenario():
            sched = make_scheduler(job_timeout=1e-6, slice_events=500)
            sched.start()
            job, _ = sched.submit(JobSpec(benchmark="gups", scale=0.05, seed=1))
            payload = await sched.poll("w-1", 1.0)
            terminal = run_leased_job(payload)
            assert sched.worker_done(
                "w-1",
                job.id,
                payload["token"],
                result=terminal["result"],
                report=terminal["report"],
            )
            await sched.drain(grace=0.0)
            return sched, job

        sched, job = asyncio.run(scenario())
        end = [event for event in job.events if event["event"] == "end"][-1]
        report = end["report"]
        assert report["degraded"] is True
        assert report["attempts"] == 1
        assert len(report["failures"]) == 1
        assert sched.simulations == 1
