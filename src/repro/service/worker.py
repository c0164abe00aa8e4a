"""Worker host: the one process that executes scheduler jobs.

Every job runs on a :class:`WorkerHost`: ``repro serve --max-inflight N``
forks N of them on its unix socket, and ``repro worker --connect
host:port`` runs more on other machines; both kinds are identical.  A
host holds a single persistent connection to the scheduler, registers
under a unique worker id, then loops: long-poll for a job, fork
:func:`repro.service.scheduler._job_worker` to run it, forward the
job's progress heartbeats home as lease heartbeats while the fork
grinds, and report the terminal result (or the crash) with the lease
token.

Crash safety is the scheduler's job, not ours — a worker host may be
``kill -9``-ed at any instant.  The dropped connection (or, under a
network partition, the lease TTL) tells the scheduler to requeue
whatever we held.  Conversely, a 409 on any heartbeat or terminal
report means *our* lease went stale — the job was requeued and possibly
re-leased — so the host kills its fork and abandons the attempt instead
of double-completing someone else's job.

Poison jobs crash only the fork (the ``REPRO_CHAOS_EXIT_SEED`` hook
fires inside ``_job_worker``): the host survives, reports the crash
with ``crash: true``, and keeps serving; the scheduler's attempt budget
dead-letters the job after enough of those.
"""

from __future__ import annotations

import logging
import os
import signal
import socket as socket_module
import time
import uuid
from typing import Any, Iterator

from repro.harness.pool import pool_context
from repro.service.client import (
    Backpressure,
    RetryPolicy,
    ServiceError,
    _raise_for_frame,
    connect,
    read_frames,
)
from repro.service.protocol import CONFLICT, encode_frame
from repro.service import scheduler as scheduler_module
from repro.service.scheduler import HARD_KILL_SLACK

logger = logging.getLogger(__name__)


def make_worker_id() -> str:
    """Unique fleet id; the pid inside lets harnesses kill the holder."""
    return f"w-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class WorkerHost:
    """One fleet worker process (poll -> fork -> heartbeat -> report)."""

    def __init__(
        self,
        address: str | os.PathLike,
        *,
        worker_id: str | None = None,
        poll_interval: float | None = None,
        timeout: float = 60.0,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.address = str(address)
        self.id = worker_id or make_worker_id()
        #: None until the registration reply supplies the server's knob.
        self.poll_interval = poll_interval
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.lease_ttl = 15.0
        self.sample_interval = 0
        self._sock: socket_module.socket | None = None
        self._frames: Iterator[dict] = iter(())
        self._registered = False
        self._stop = False
        #: Lifetime telemetry.
        self.jobs_done = 0
        self.jobs_failed = 0
        self.crashes_reported = 0
        self.leases_lost = 0

    # ------------------------------------------------------------------
    # Wire plumbing (persistent connection, one-shot reconnect)
    # ------------------------------------------------------------------
    def _ensure_sock(self) -> socket_module.socket:
        if self._sock is None:
            self._sock = connect(self.address, self.timeout)
            self._frames = read_frames(self._sock)
        return self._sock

    def _close_sock(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _send(self, frame: dict, *, _retried: bool = False) -> dict:
        """One checked request/reply on the persistent connection.

        A connection failure gets exactly one reconnect (with
        re-registration, so the scheduler's per-connection worker
        tracking follows us to the new socket) before giving up — the
        caller's poll loop provides the longer-horizon patience.
        """
        try:
            sock = self._ensure_sock()
            sock.sendall(encode_frame(frame))
            reply = next(self._frames, None)
            if reply is None:
                raise ConnectionError("scheduler closed the connection")
            return _raise_for_frame(reply)
        except (OSError, ConnectionError):
            self._close_sock()
            if _retried:
                raise
            self._ensure_sock()
            if self._registered and frame.get("op") != "worker_register":
                self._send(self._register_frame(), _retried=True)
            return self._send(frame, _retried=True)

    # ------------------------------------------------------------------
    # Fleet protocol
    # ------------------------------------------------------------------
    def _register_frame(self) -> dict:
        return {
            "op": "worker_register",
            "worker": self.id,
            "info": {
                "pid": os.getpid(),
                "host": socket_module.gethostname(),
            },
        }

    def register(self) -> dict:
        """Announce ourselves; adopt the scheduler's fleet knobs."""
        reply = self.retry.call(lambda: self._send(self._register_frame()))
        self._registered = True
        self.lease_ttl = float(reply.get("lease_ttl", self.lease_ttl))
        if self.poll_interval is None:
            self.poll_interval = float(reply.get("poll_interval", 0.5))
        self.sample_interval = int(reply.get("sample_interval", 0))
        logger.info(
            "worker %s registered with %s (lease_ttl=%.1fs, poll=%.2fs)",
            self.id,
            self.address,
            self.lease_ttl,
            self.poll_interval,
        )
        return reply

    def request_stop(self, *_args: Any) -> None:
        """Finish the current job (if any), then exit the poll loop."""
        self._stop = True

    def run(self, *, max_jobs: int | None = None, install_signals: bool = True) -> int:
        """The worker-host main loop; returns a process exit code."""
        if install_signals:
            try:
                # A host forked from the running daemon inherits its
                # asyncio signal wakeup fd; left in place, a signal sent
                # to this host would also reach the daemon and drain it.
                signal.set_wakeup_fd(-1)
                for sig in (signal.SIGTERM, signal.SIGINT):
                    signal.signal(sig, self.request_stop)
            except ValueError:  # not the main thread (tests)
                pass
        try:
            self.register()
        except (OSError, ServiceError) as defect:
            logger.error("worker %s could not register: %s", self.id, defect)
            return 1
        processed = 0
        poll_failures = 0
        while not self._stop:
            if max_jobs is not None and processed >= max_jobs:
                break
            try:
                # A long poll: the scheduler holds it up to ``hold``
                # seconds until a job becomes eligible.
                reply = self._send(
                    {"op": "worker_poll", "worker": self.id, "hold": self.poll_interval}
                )
            except Backpressure:
                # A drain never un-drains: the first 503 sends us home.
                logger.info("scheduler is draining; worker %s exiting", self.id)
                break
            except (OSError, ServiceError) as defect:
                poll_failures += 1
                if poll_failures >= self.retry.attempts:
                    logger.error(
                        "worker %s lost the scheduler: %s", self.id, defect
                    )
                    return 1
                time.sleep(self.retry.delay(poll_failures - 1))
                continue
            poll_failures = 0
            if reply.get("job") is None:
                continue
            self._run_dispatch(reply)
            processed += 1
        self._close_sock()
        logger.info(
            "worker %s done: %d ok, %d failed, %d crashes, %d leases lost",
            self.id,
            self.jobs_done,
            self.jobs_failed,
            self.crashes_reported,
            self.leases_lost,
        )
        return 0

    # ------------------------------------------------------------------
    # One dispatch
    # ------------------------------------------------------------------
    def _hard_budget(self, policy: dict) -> float | None:
        """Max seconds of job-process silence before the host kills it.

        The supervised runner inside the job process already enforces
        the job's wall clock; this outer watchdog only catches a job
        process that stopped talking entirely (crashed interpreter, pipe
        wedged).
        """
        limit = policy.get("wall_clock_limit")
        if limit is None:
            return None
        return float(limit) + HARD_KILL_SLACK

    def _run_dispatch(self, payload: dict) -> None:
        job_id = str(payload["job"])
        token = str(payload["token"])
        spec = dict(payload.get("spec") or {})
        policy = dict(payload.get("policy") or {})
        sample_interval = int(payload.get("sample_interval", self.sample_interval))
        logger.info(
            "worker %s running %s (attempt %s)",
            self.id,
            job_id,
            payload.get("attempt", "?"),
        )

        ctx = pool_context()
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            # Looked up at dispatch time so a wrapper installed on the
            # scheduler module (tracing, profiling) reaches every job.
            target=scheduler_module._job_worker,
            args=(spec, policy, sample_interval, child_conn),
            daemon=True,
        )
        proc.start()
        child_conn.close()

        budget = self._hard_budget(policy)
        heartbeat_period = max(0.1, self.lease_ttl / 3.0)
        last_heartbeat = 0.0
        last_message = time.monotonic()
        progress: dict | None = None
        result: dict | None = None
        report: dict | None = None
        error: str | None = None
        crashed = False
        abandoned = False
        try:
            while True:
                now = time.monotonic()
                if budget is not None and now - last_message > budget:
                    error = (
                        f"no job message for {budget:.0f}s; "
                        "killed by the worker-host watchdog"
                    )
                    crashed = True
                    proc.terminate()
                    break
                # Every job heartbeat goes home at once (progress
                # streaming); the timer only covers a silent job.
                if progress is not None or now - last_heartbeat >= heartbeat_period:
                    last_heartbeat = now
                    if not self._heartbeat(job_id, token, progress):
                        abandoned = True
                        proc.terminate()
                        break
                    progress = None
                try:
                    ready = parent_conn.poll(0.1)
                except (OSError, EOFError):
                    ready = True
                if not ready:
                    continue
                try:
                    msg = parent_conn.recv()
                except (EOFError, OSError):
                    if result is None and error is None:
                        error = "job process died without reporting a result"
                        crashed = True
                    break
                last_message = time.monotonic()
                kind = msg.get("type")
                if kind == "heartbeat":
                    progress = {k: v for k, v in msg.items() if k != "type"}
                elif kind == "result":
                    result = msg["result"]
                    report = msg.get("report")
                elif kind == "error":
                    error = msg.get("error", "unknown job error")
        finally:
            try:
                parent_conn.close()
            except OSError:
                pass
            proc.join(timeout=HARD_KILL_SLACK)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=HARD_KILL_SLACK)

        if abandoned:
            self.leases_lost += 1
            logger.warning(
                "worker %s abandoned %s: lease went stale", self.id, job_id
            )
            return
        self._report(
            job_id, token, result=result, report=report, error=error, crash=crashed
        )

    def _heartbeat(self, job_id: str, token: str, progress: dict | None) -> bool:
        """Refresh our lease; False means it is stale — abandon the job."""
        frame: dict[str, Any] = {
            "op": "worker_heartbeat",
            "worker": self.id,
            "job": job_id,
            "token": token,
        }
        if progress:
            frame["progress"] = progress
        try:
            self._send(frame)
            return True
        except ServiceError as defect:
            if defect.code == CONFLICT:
                return False
            logger.warning("heartbeat for %s failed: %s", job_id, defect)
            return True  # transient: the TTL still has slack
        except (OSError, ConnectionError) as defect:
            logger.warning("heartbeat for %s failed: %s", job_id, defect)
            return True

    def _report(
        self,
        job_id: str,
        token: str,
        *,
        result: dict | None,
        report: dict | None,
        error: str | None,
        crash: bool,
    ) -> None:
        frame: dict[str, Any] = {
            "op": "worker_done",
            "worker": self.id,
            "job": job_id,
            "token": token,
            "crash": crash,
        }
        if result is not None:
            frame["result"] = result
        if report is not None:
            frame["report"] = report
        if error is not None:
            frame["error"] = error
        try:
            self.retry.call(lambda: self._send(frame))
        except ServiceError as defect:
            if defect.code == CONFLICT:
                self.leases_lost += 1
                logger.warning(
                    "report for %s discarded: lease went stale", job_id
                )
                return
            logger.error("could not report %s: %s", job_id, defect)
            return
        except (OSError, ConnectionError) as defect:
            logger.error("could not report %s: %s", job_id, defect)
            return
        if result is not None:
            self.jobs_done += 1
        elif crash:
            self.crashes_reported += 1
        else:
            self.jobs_failed += 1


def run_worker(
    address: str | os.PathLike,
    *,
    worker_id: str | None = None,
    poll_interval: float | None = None,
    max_jobs: int | None = None,
) -> int:
    """Run one worker host until drain/stop; the ``repro worker`` body."""
    host = WorkerHost(
        address, worker_id=worker_id, poll_interval=poll_interval
    )
    return host.run(max_jobs=max_jobs)


__all__ = ["WorkerHost", "make_worker_id", "run_worker"]
