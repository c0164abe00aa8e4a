"""Job scheduler: dedupe, leased dispatch, streaming, drain/resume.

The scheduler sits between the :class:`~repro.service.queue.JobQueue`
and the worker hosts (:mod:`repro.service.worker`) that execute jobs:

* **Dedupe** — a submission whose
  :meth:`~repro.service.protocol.JobSpec.key` matches a queued, running,
  or completed job *attaches* to it instead of re-running (both callers
  get the same result payload, byte-identical by construction).  Keys
  are exactly the sweep engine's persistent-store keys, so a submission
  whose result already sits in the :class:`~repro.harness.store.ResultStore`
  completes instantly from disk without ever reaching a worker.
* **Dispatch** — every job runs on a worker host: the daemon's own
  local hosts (``repro serve --max-inflight N`` forks N of them) and
  any remote ``repro worker`` hosts all pull work the same way, with a
  ``worker_poll`` *long poll* that :meth:`Scheduler.poll` holds until a
  job becomes eligible or the hold elapses.  Each host forks
  :func:`_job_worker` per job, driven by
  :func:`~repro.harness.runner.simulate`, so the wall-clock
  timeout and graceful degradation come from the supervised runner
  rather than being reimplemented here.  A job that overruns
  ``job_timeout`` ends once, with its partial result; it is never
  re-run, because a deterministic simulation would overrun again.
* **Streaming** — hosts forward the job's heartbeat frames (cycle,
  events, warps remaining, sampled gauges from the
  :class:`~repro.obs.MetricsSampler`) with their lease heartbeats; the
  scheduler fans them out to per-job subscriber queues, keeping a
  bounded history for late subscribers.
* **Leases** — every dispatch is covered by a
  :class:`~repro.service.lease.Lease`; a host that dies or partitions
  simply stops refreshing it, the reaper notices the expiry, and the
  job is requeued with exponential backoff.  This crash requeue is the
  service's only retry.  A job whose crashes exhaust ``attempt_budget``
  is *dead-lettered* (state ``dead``) instead of retried forever — the
  poison-job quarantine.
* **Drain / resume** — :meth:`Scheduler.drain` stops dispatching
  (held polls return empty and the server answers them 503), gives
  leased jobs a grace period, pushes the stragglers back onto the
  queue, and :meth:`Scheduler.save_state` persists everything still
  queued so a restarted daemon resumes exactly where this one stopped.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import signal
import tempfile
import time
import uuid
from typing import Any, Callable

from repro.config import DEFAULT_CONFIGS, ConfigRegistry, ServiceConfig
from repro.gpu.gpu import SimulationResult
from repro.harness.runner import simulate
from repro.harness.store import ResultStore
from repro.harness.supervised import SupervisionPolicy
from repro.obs import Observability
from repro.service.lease import LeaseManager, describe_leases
from repro.service.protocol import JobSpec, ProtocolError
from repro.service.queue import AdmissionRefused, Job, JobQueue

logger = logging.getLogger(__name__)

#: Minimum seconds between heartbeat frames a worker ships home (the
#: supervised slice cadence can be far finer than anyone wants to read).
HEARTBEAT_MIN_INTERVAL = 0.05

#: Extra wall-clock slack a worker host's watchdog allows on top of the
#: supervised runner's own ``job_timeout`` before it kills a silent job
#: process outright; also how long a draining daemon waits for its local
#: hosts after each stop signal, and the longest clients wait at
#: start-up for those hosts' first polls.
HARD_KILL_SLACK = 10.0

#: Chaos hook: a worker whose job carries this seed exits hard before
#: simulating — the "poison job" fault ``tests/test_service_fleet.py``
#: uses to prove crash-requeue and dead-lettering without patching any
#: code.
CHAOS_EXIT_ENV = "REPRO_CHAOS_EXIT_SEED"


def _job_worker(spec_payload: dict, policy_payload: dict, sample_interval: int, conn) -> None:
    """Job-process entry: run one job, stream events over ``conn``.

    Runs in a child forked by a worker host.  Every outbound message is
    a dict with a ``type`` of ``heartbeat``, ``result``, or ``error``;
    the pipe closes after the terminal message, so the host treats
    EOF-without-terminal as a job-process death.
    """
    # The fork inherits the host's finish-then-exit SIGTERM handler, which
    # would make the host's terminate() (and a drain's group SIGTERM) a
    # no-op for the job.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    chaos_seed = os.environ.get(CHAOS_EXIT_ENV)
    if chaos_seed and str(spec_payload.get("seed")) == chaos_seed:
        # Poison-job fault injection: die without a terminal message,
        # exactly like a kill -9 mid-simulation.
        os._exit(86)
    try:
        spec = JobSpec.from_dict(spec_payload)
        point = spec.to_point()
        policy = SupervisionPolicy(**policy_payload)
        last_beat = 0.0

        def heartbeat(sim) -> None:
            nonlocal last_beat
            now = time.monotonic()
            if now - last_beat < HEARTBEAT_MIN_INTERVAL and last_beat:
                return
            last_beat = now
            gauges = {}
            metrics = sim.obs.metrics
            if metrics.enabled:
                for name in metrics.gauge_names():
                    value = metrics.last(name)
                    if value is not None:
                        gauges[name] = value
            conn.send(
                {
                    "type": "heartbeat",
                    "cycle": sim.engine.now,
                    "events": sim.engine.events_processed,
                    "warps_remaining": sim.warps_remaining,
                    "gauges": gauges,
                }
            )

        # A sampling bundle lets the heartbeat read live gauges.
        obs = Observability.sampling(sample_interval) if sample_interval else None
        report = simulate(
            point.config,
            point.benchmark,
            scale=point.scale,
            footprint_scale=point.footprint_scale,
            seed=point.seed,
            obs=obs,
            policy=policy,
            heartbeat=heartbeat,
        )
        conn.send(
            {
                "type": "result",
                "result": report.result.to_dict(),
                "report": {
                    "degraded": report.degraded,
                    "failures": list(report.failures),
                },
            }
        )
    except BaseException as failure:  # ship the failure home, then die
        try:
            conn.send(
                {"type": "error", "error": f"{type(failure).__name__}: {failure}"}
            )
        except OSError:
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


class Scheduler:
    """Owns the job table, the queue, the workers, and the store."""

    def __init__(
        self,
        *,
        config: ServiceConfig | None = None,
        store: ResultStore | None = None,
        registry: ConfigRegistry = DEFAULT_CONFIGS,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.store = store
        self.registry = registry
        #: The one record of running jobs: job id -> lease.
        self.leases = LeaseManager(ttl=self.config.lease_ttl)
        self.queue = JobQueue(
            max_depth=self.config.max_depth,
            max_inflight=self.config.max_inflight,
            max_client_depth=self.config.max_client_depth,
            rate=self.config.client_rate,
            burst=self.config.client_burst,
            running=self.leases.__len__,
        )
        #: Every job this daemon has seen, by id.
        self.jobs: dict[str, Job] = {}
        #: Latest job per dedupe key (queued, running, or completed).
        self._by_key: dict[str, Job] = {}
        self._subscribers: dict[str, list[asyncio.Queue]] = {}
        self._done: dict[str, asyncio.Event] = {}
        #: One future per held ``worker_poll``; resolved when a job may
        #: have become eligible (submit, requeue, backoff expiry, drain).
        self._pollers: set[asyncio.Future] = set()
        self._reaper: asyncio.Task | None = None
        self.draining = False
        self.started_at = time.time()
        #: Simulations actually executed by workers (cache/dedupe hits
        #: never increment this — the currency of the dedupe tests).
        self.simulations = 0
        #: Worker hosts (local and remote) by id -> registration/health
        #: record.
        self.workers: dict[str, dict] = {}
        #: Jobs dead-lettered after exhausting their attempt budget.
        self.dead_letters = 0
        #: Crash requeues performed (lease expiry, worker death).
        self.crash_requeues = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Attach to the running event loop and start the lease reaper."""
        self._reaper = asyncio.create_task(self._reap_loop())

    def _kick(self) -> None:
        """Wake every held poll: a job may have become eligible."""
        for waiter in self._pollers:
            if not waiter.done():
                waiter.set_result(None)

    async def drain(self, grace: float | None = None) -> None:
        """Stop dispatching; finish or re-queue leased jobs.

        Held polls return empty at once.  Leased jobs get ``grace``
        seconds (default: the service config's ``drain_grace``) to
        finish naturally; stragglers have their leases released and go
        back onto the queue in the ``queued`` state, so
        :meth:`save_state` persists them for the next daemon (their
        hosts get a 409 when they next heartbeat or report).
        """
        self.draining = True
        self._kick()
        if grace is None:
            grace = self.config.drain_grace
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
            self._reaper = None
        if self.leases:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + grace
            while self.leases and loop.time() < deadline:
                await asyncio.sleep(0.05)
            for lease in self.leases:
                self.leases.release_job(lease.job_id)
                job = self.jobs.get(lease.job_id)
                if job is None:
                    continue
                logger.warning(
                    "drain grace expired; re-queueing job %s (worker %s)",
                    job.id,
                    lease.worker,
                )
                job.state = "queued"
                job.started_at = None
                job.worker = None
                self.queue.push(job)
                self._publish(job, {"event": "requeued"})
                done = self._done.get(job.id)
                if done is not None:
                    done.set()
        # Everything left queued (never dispatched, or just requeued)
        # rides the persisted snapshot into the next daemon; tell any
        # blocked waiters/subscribers now instead of letting them hang
        # until the socket closes under them.
        for job in self.queue:
            done = self._done.get(job.id)
            if done is not None and done.is_set():
                continue  # the requeue path already notified this one
            self._publish(job, {"event": "requeued"})
            if done is not None:
                done.set()

    # ------------------------------------------------------------------
    # Submission (dedupe + admission)
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec, client: str = "anon") -> tuple[Job, dict]:
        """Admit one submission; returns ``(job, reply_extras)``.

        Raises :class:`~repro.service.queue.AdmissionRefused` on
        backpressure, :class:`~repro.service.protocol.ProtocolError` on
        an unresolvable spec (unknown config/benchmark).
        """
        try:
            key = spec.key(self.registry)
        except (KeyError, ValueError) as defect:
            raise ProtocolError(str(defect)) from None

        active = self._by_key.get(key)
        if active is not None and active.state not in ("failed", "dead"):
            # Queued, running, or done: attach instead of re-running.
            active.attached += 1
            return active, {"deduped": True}

        if self.store is not None:
            cached = self.store.load(json.loads(key))
            if cached is not None:
                job = self._new_job(spec, key, client)
                job.state = "done"
                job.cached = True
                job.result = cached.to_dict()
                job.finished_at = time.time()
                self._register(job)
                return job, {"cached": True}

        self.queue.admit(client)
        job = self._new_job(spec, key, client)
        self._register(job)
        self.queue.push(job)
        self._kick()
        return job, {}

    def _new_job(self, spec: JobSpec, key: str, client: str) -> Job:
        return Job(id=f"j-{uuid.uuid4().hex[:12]}", spec=spec, key=key, client=client)

    def _register(self, job: Job) -> None:
        self.jobs[job.id] = job
        self._by_key[job.key] = job
        event = asyncio.Event()
        if job.done:
            event.set()
        self._done[job.id] = event

    # ------------------------------------------------------------------
    # Completion: the one crash / requeue / dead-letter path
    # ------------------------------------------------------------------
    def _finish(
        self,
        job: Job,
        *,
        result: dict | None,
        report: dict | None,
        error: str | None,
        crash: bool = False,
    ) -> None:
        self.leases.release_job(job.id)
        if result is None and crash and not self.draining:
            # The worker died (kill -9, watchdog, lease expiry) rather
            # than reporting a failure: the job itself may be fine, so it
            # retries — with exponential backoff, under a budget so a
            # poison job cannot crash-loop the fleet forever.
            job.attempts += 1
            budget = self.config.attempt_budget
            if job.attempts < budget:
                delay = self.config.requeue_backoff * (2 ** (job.attempts - 1))
                job.state = "queued"
                job.started_at = None
                job.worker = None
                job.not_before = time.time() + delay
                self.crash_requeues += 1
                self.queue.push(job)
                logger.warning(
                    "job %s crashed (%s); requeue attempt %d/%d in %.2fs",
                    job.id,
                    error,
                    job.attempts,
                    budget,
                    delay,
                )
                self._publish(
                    job,
                    {
                        "event": "retry",
                        "attempt": job.attempts,
                        "budget": budget,
                        "delay": round(delay, 3),
                        "error": error,
                    },
                )
                self._kick_after(delay)
                return
            job.finished_at = time.time()
            job.state = "dead"
            job.error = (
                f"dead-lettered after {job.attempts} crashed attempt(s); "
                f"last: {error or 'worker died'}"
            )
            self.dead_letters += 1
            logger.error("job %s dead-lettered: %s", job.id, job.error)
            self._publish(job, {"event": "end", "state": job.state, "error": job.error})
            done = self._done.get(job.id)
            if done is not None:
                done.set()
            return
        job.finished_at = time.time()
        if result is not None:
            job.state = "done"
            job.result = result
            self.simulations += 1
            if job.started_at is not None:
                self.queue.record_runtime(job.finished_at - job.started_at)
            self._persist_result(job, result)
        else:
            job.state = "failed"
            job.error = error or "unknown failure"
        end: dict[str, Any] = {"event": "end", "state": job.state}
        if report is not None:
            # Crash requeues are the only retries, so the scheduler's
            # own count is the attempt number (the lease's ``attempt``).
            end["report"] = {**report, "attempts": job.attempts + 1}
        if job.error is not None:
            end["error"] = job.error
        self._publish(job, end)
        done = self._done.get(job.id)
        if done is not None:
            done.set()

    def _persist_result(self, job: Job, result: dict) -> None:
        """Write one finished result to the shared store.

        ``ResultStore.store`` renames a complete temp file into place,
        so concurrent writers of one key (another scheduler, a sweep)
        each leave a whole entry, and every such entry carries the same
        fingerprint: the last rename wins and loses nothing.
        """
        if self.store is None:
            return
        try:
            self.store.store(json.loads(job.key), SimulationResult.from_dict(result))
        except OSError as defect:
            logger.warning("could not persist result for %s: %s", job.id, defect)

    def _kick_after(self, delay: float) -> None:
        """Wake held polls once a backoff window has passed."""
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return
        loop.call_later(max(0.0, delay) + 0.01, self._kick)

    # ------------------------------------------------------------------
    # Dispatch: worker hosts (local and remote) pull leased jobs
    # ------------------------------------------------------------------
    def register_worker(self, worker: str, info: dict | None = None) -> dict:
        """Record a worker host; returns the knobs it should run with."""
        now = time.time()
        record = self.workers.setdefault(
            worker, {"registered_at": now, "jobs_completed": 0}
        )
        record["last_seen"] = now
        record["connected"] = True
        if info:
            record["info"] = dict(info)
        logger.info("worker %s registered", worker)
        return {
            "lease_ttl": self.config.lease_ttl,
            "poll_interval": self.config.worker_poll_interval,
            "sample_interval": self.config.sample_interval,
        }

    def _policy_payload(self) -> dict:
        return {
            "slice_events": self.config.slice_events,
            "wall_clock_limit": self.config.job_timeout,
        }

    def next_job_for(self, worker: str) -> dict | None:
        """Lease the next eligible queued job to a worker host.

        Returns the full dispatch payload (spec, policy, lease token) or
        None when nothing is eligible.
        """
        if self.draining:
            return None
        record = self.workers.get(worker)
        if record is not None:
            record["last_seen"] = time.time()
        job = self.queue.pop()
        if job is None:
            return None
        lease = self.leases.grant(job.id, worker, attempt=job.attempts + 1)
        job.state = "running"
        job.started_at = time.time()
        job.dispatches += 1
        job.worker = worker
        self._publish(
            job,
            {
                "event": "started",
                "dispatch": job.dispatches,
                "worker": worker,
                "attempt": lease.attempt,
            },
        )
        return {
            "job_id": job.id,
            "token": lease.token,
            "attempt": lease.attempt,
            "lease_ttl": lease.ttl,
            "spec": job.spec.to_dict(),
            "policy": self._policy_payload(),
            "sample_interval": self.config.sample_interval,
        }

    async def poll(
        self, worker: str, hold: float, *, gone: Callable[[], bool] | None = None
    ) -> dict | None:
        """Long poll: lease the next eligible job to ``worker``, waiting
        up to ``hold`` seconds for one.  None when the hold elapses with
        nothing eligible, a drain begins, or ``gone()`` reports that the
        worker hung up meanwhile."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + hold
        while not self.draining and not (gone is not None and gone()):
            payload = self.next_job_for(worker)
            if payload is not None:
                return payload
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            waiter = loop.create_future()
            self._pollers.add(waiter)
            try:
                await asyncio.wait([waiter], timeout=remaining)
            finally:
                self._pollers.discard(waiter)
        return None

    def worker_heartbeat(
        self, worker: str, job_id: str, token: str, progress: dict | None = None
    ) -> bool:
        """Refresh a lease; False means the token is stale (the
        job was re-leased or completed elsewhere — abandon the attempt)."""
        record = self.workers.get(worker)
        if record is not None:
            record["last_seen"] = time.time()
        if self.leases.refresh(job_id, token) is None:
            return False
        job = self.jobs.get(job_id)
        if job is not None and progress:
            self._publish(
                job, {"event": "progress", **progress, "worker": worker}
            )
        return True

    def worker_done(
        self,
        worker: str,
        job_id: str,
        token: str,
        *,
        result: dict | None = None,
        report: dict | None = None,
        error: str | None = None,
        crash: bool = False,
    ) -> bool:
        """Accept a host's terminal report; False if the lease is stale."""
        record = self.workers.get(worker)
        if record is not None:
            record["last_seen"] = time.time()
        lease = self.leases.holder(job_id)
        if lease is None or lease.token != token:
            return False
        job = self.jobs.get(job_id)
        if job is None:
            self.leases.release_job(job_id)
            return False
        if record is not None and result is not None:
            record["jobs_completed"] += 1
        self._finish(job, result=result, report=report, error=error, crash=crash)
        return True

    def worker_disconnected(self, worker: str) -> None:
        """Fast-path a dropped worker connection: expire its leases now
        so the reaper requeues on its next tick instead of after a TTL."""
        record = self.workers.get(worker)
        if record is not None:
            record["connected"] = False
            record["last_seen"] = time.time()
        touched = self.leases.expire_now(worker=worker)
        if touched:
            logger.warning(
                "worker %s disconnected holding %d lease(s): %s",
                worker,
                len(touched),
                ", ".join(lease.job_id for lease in touched),
            )

    async def _reap_loop(self) -> None:
        """Periodically sweep expired leases and requeue their jobs."""
        interval = self.config.effective_lease_check_interval
        while True:
            await asyncio.sleep(interval)
            try:
                self.reap()
            except Exception:  # the reaper must never die quietly
                logger.exception("lease reaper tick failed")

    def reap(self) -> int:
        """Sweep expired leases once; returns how many jobs were
        crash-handled.  Split from the loop so tests drive it directly."""
        count = 0
        for lease in self.leases.expired():
            job = self.jobs.get(lease.job_id)
            if not self.leases.sweep(lease):
                continue
            if job is None or job.done or job.state == "queued":
                continue
            count += 1
            self._finish(
                job,
                result=None,
                report=None,
                error=(
                    f"lease expired after {lease.ttl:g}s of silence "
                    f"(worker {lease.worker}, attempt {lease.attempt})"
                ),
                crash=True,
            )
        return count

    # ------------------------------------------------------------------
    # Streaming / waiting
    # ------------------------------------------------------------------
    def _publish(self, job: Job, event: dict) -> None:
        event = {"job": job.id, **event}
        job.record_event(event)
        for queue in self._subscribers.get(job.id, ()):  # live listeners
            queue.put_nowait(event)

    def subscribe(self, job_id: str) -> asyncio.Queue:
        """Event queue replaying history, then live until ``end``."""
        job = self.jobs[job_id]
        queue: asyncio.Queue = asyncio.Queue()
        for event in job.events:
            queue.put_nowait(event)
        if not job.done:
            self._subscribers.setdefault(job_id, []).append(queue)
        elif not any(e.get("event") == "end" for e in job.events):
            # Cache-hit jobs never ran, so they have no event history.
            queue.put_nowait({"job": job.id, "event": "end", "state": job.state})
        return queue

    def unsubscribe(self, job_id: str, queue: asyncio.Queue) -> None:
        listeners = self._subscribers.get(job_id)
        if listeners is not None:
            try:
                listeners.remove(queue)
            except ValueError:
                pass
            if not listeners:
                del self._subscribers[job_id]

    async def wait(self, job_id: str) -> Job:
        await self._done[job_id].wait()
        return self.jobs[job_id]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        by_state: dict[str, int] = {}
        for job in self.jobs.values():
            by_state[job.state] = by_state.get(job.state, 0) + 1
        return {
            "uptime": round(time.time() - self.started_at, 3),
            "draining": self.draining,
            "simulations": self.simulations,
            "jobs": by_state,
            "queue": self.queue.info(),
            "store": self.store.info() if self.store is not None else None,
            "fleet": {
                "workers": {
                    worker: dict(record) for worker, record in self.workers.items()
                },
                "leases": describe_leases(self.leases.active()),
                "dead_letters": self.dead_letters,
                "crash_requeues": self.crash_requeues,
                "leases_granted": self.leases.granted,
                "leases_expired": self.leases.expired_total,
                "lease_ttl": self.config.lease_ttl,
            },
        }

    # ------------------------------------------------------------------
    # Persistence (drain / resume)
    # ------------------------------------------------------------------
    def save_state(self, path: str | None = None) -> int:
        """Persist queued jobs; returns how many were written.

        With nothing queued the state file is removed instead — a
        restarted daemon should not resurrect an empty snapshot.
        """
        target = path if path is not None else self.config.effective_state_path
        payload = self.queue.snapshot()
        count = len(payload["jobs"])
        if count == 0:
            try:
                os.unlink(target)
            except OSError:
                pass
            return 0
        directory = os.path.dirname(target) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp_name, target)
        logger.info("persisted %d queued job(s) to %s", count, target)
        return count

    def load_state(self, path: str | None = None) -> int:
        """Re-enqueue jobs from a persisted snapshot; returns the count.

        The snapshot is consumed (deleted) on a successful load so a
        crash loop cannot double-enqueue it.
        """
        target = path if path is not None else self.config.effective_state_path
        try:
            with open(target, encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return 0
        except (OSError, json.JSONDecodeError) as defect:
            logger.warning("ignoring unreadable queue state %s: %s", target, defect)
            return 0
        jobs = JobQueue.restore_jobs(payload)
        for job in jobs:
            self._register(job)
            self.queue.push(job)
        os.unlink(target)
        if jobs:
            logger.info("resumed %d queued job(s) from %s", len(jobs), target)
            self._kick()
        return len(jobs)
