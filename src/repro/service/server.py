"""The asyncio daemon behind ``repro serve``.

One :class:`ServiceServer` listens on a unix-domain socket — plus an
optional TCP listener (``--tcp host:port``) so remote worker hosts and
clients on other machines can reach it — speaks the newline-delimited-
JSON protocol of :mod:`repro.service.protocol`, and delegates
everything stateful to a :class:`~repro.service.scheduler.Scheduler`.

Jobs run on worker hosts (:mod:`repro.service.worker`).  Once the
socket is listening the daemon forks ``max_inflight`` local hosts,
each in a process group of its own, and they take work over the unix
socket exactly as remote hosts do over TCP.  Clients are answered once
every local host has polled, so a job admitted right after start-up is
taken at once.  Worker hosts hold one persistent connection for their
poll/heartbeat/done traffic; the connection remembers which worker
registered on it, and when it drops the scheduler fast-expires that
worker's leases so its jobs requeue on the next reaper tick instead of
after a full TTL.

Shutdown is a *drain*, never a drop: SIGTERM (or a ``drain`` frame)
flips the daemon into draining mode — new submissions and held polls
get a 503 with a ``retry_after`` hint — then leased jobs get the
configured grace to finish, stragglers are pushed back onto the queue,
the local hosts are stopped (SIGTERM to each host's process group, so
its job process goes too, then SIGKILL after ``HARD_KILL_SLACK``) and
reaped, queued work is persisted to the state file, and the process
exits 0.  A daemon started on the same state file resumes the persisted
queue before accepting its first connection.
"""

from __future__ import annotations

import asyncio
import logging
import os
import signal
import socket as socket_module
import time
from typing import Any

from repro.config import DEFAULT_CONFIGS, ConfigRegistry, ServiceConfig
from repro.gpu.gpu import SimulationResult
from repro.harness.pool import pool_context
from repro.harness.store import ResultStore, default_store_path, fingerprint_digest
from repro.service.protocol import (
    ACCEPTED,
    BAD_REQUEST,
    CONFLICT,
    DRAINING,
    INTERNAL_ERROR,
    MAX_FRAME_BYTES,
    NOT_FOUND,
    PROTOCOL_VERSION,
    TOO_MANY_JOBS,
    WORKER_OPS,
    JobSpec,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_frame,
    ok_frame,
    parse_tcp_address,
)
from repro.service.queue import AdmissionRefused, Job
from repro.service.scheduler import HARD_KILL_SLACK, Scheduler
from repro.service.worker import run_worker

logger = logging.getLogger(__name__)


class ServiceServer:
    """Simulation-as-a-service daemon on a unix socket."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        registry: ConfigRegistry = DEFAULT_CONFIGS,
        store: ResultStore | str | os.PathLike | None = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig.from_env()
        if store is None:
            path = default_store_path()
            store = (
                ResultStore(path, max_bytes=self.config.store_budget)
                if path
                else None
            )
        elif not isinstance(store, ResultStore):
            store = ResultStore(store, max_bytes=self.config.store_budget)
        self.scheduler = Scheduler(
            config=self.config, store=store, registry=registry
        )
        self._server: asyncio.base_events.Server | None = None
        self._tcp_server: asyncio.base_events.Server | None = None
        self._stopped: asyncio.Event | None = None
        self._shutdown_task: asyncio.Task | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        #: The local worker host processes this daemon forked.
        self._hosts: list[Any] = []
        #: Workers seen polling before clients were let in; clients wait
        #: on ``_hosts_ready`` until every local host has polled.
        self._polled: set[str] = set()
        self._hosts_ready: asyncio.Event | None = None

    @property
    def draining(self) -> bool:
        return self.scheduler.draining

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _claim_socket(self) -> None:
        """Remove a stale socket file; refuse to evict a live daemon."""
        path = self.config.socket_path
        if not os.path.exists(path):
            return
        probe = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
        try:
            probe.settimeout(0.5)
            probe.connect(path)
        except OSError:
            os.unlink(path)  # nobody home: a previous daemon died uncleanly
        else:
            raise RuntimeError(f"another daemon is already serving on {path}")
        finally:
            probe.close()

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        directory = os.path.dirname(self.config.socket_path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        # Claim the socket before load_state(): loading consumes the
        # persisted queue snapshot, and a second daemon refused here
        # must never have eaten the live daemon's resume state first.
        self._claim_socket()
        self.scheduler.start()
        self.scheduler.load_state()
        self._server = await asyncio.start_unix_server(
            self._handle_client, path=self.config.socket_path, limit=MAX_FRAME_BYTES
        )
        if self.config.tcp:
            host, port = parse_tcp_address(self.config.tcp)
            self._tcp_server = await asyncio.start_server(
                self._handle_client, host=host, port=port, limit=MAX_FRAME_BYTES
            )
            logger.info("fleet transport listening on %s:%d", host, port)
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self._signal_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        self._hosts_ready = asyncio.Event()
        self._start_hosts()
        logger.info(
            "serving on %s (max_depth=%d, max_inflight=%d%s)",
            self.config.socket_path,
            self.config.max_depth,
            self.config.max_inflight,
            f", store={self.scheduler.store.path}" if self.scheduler.store else "",
        )

    def _start_hosts(self) -> None:
        """Fork ``max_inflight`` local worker hosts on the unix socket."""
        ctx = pool_context()
        for _ in range(self.config.max_inflight):
            host = ctx.Process(
                target=run_worker, args=(self.config.socket_path,), name="repro-host"
            )
            host.start()
            # Its own process group, so a stop signal reaches the job
            # process it forks too, and a terminal's ^C reaches only us.
            try:
                os.setpgid(host.pid, host.pid)
            except OSError:  # pragma: no cover - the host already exited
                pass
            self._hosts.append(host)
        assert self._hosts_ready is not None
        if self._hosts:
            # A local host that never polls must not shut clients out.
            asyncio.get_running_loop().call_later(
                HARD_KILL_SLACK, self._hosts_ready.set
            )
        else:
            self._hosts_ready.set()

    def _host_polled(self, worker: str) -> None:
        """Let clients in once every local host has polled."""
        if self._hosts_ready is None or self._hosts_ready.is_set():
            return
        self._polled.add(worker)
        if len(self._polled) >= len(self._hosts):
            self._hosts_ready.set()

    async def _stop_hosts(self) -> None:
        """Stop and reap the local hosts: SIGTERM each host's process
        group, then SIGKILL whatever outlives ``HARD_KILL_SLACK``."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGKILL):
            alive = [host for host in self._hosts if host.is_alive()]
            if not alive:
                break
            for host in alive:
                try:
                    os.killpg(host.pid, sig)
                except ProcessLookupError:
                    pass
            deadline = loop.time() + HARD_KILL_SLACK
            # is_alive() reaps a host that has exited.
            while any(host.is_alive() for host in alive) and loop.time() < deadline:
                await asyncio.sleep(0.05)
        self._hosts.clear()

    def _signal_shutdown(self) -> None:
        if self._shutdown_task is None or self._shutdown_task.done():
            self._shutdown_task = asyncio.create_task(self.shutdown())

    async def serve_forever(self) -> None:
        """Start (if needed) and block until a drain completes."""
        if self._server is None:
            await self.start()
        assert self._stopped is not None
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Graceful drain: stop admitting, settle jobs, persist, exit."""
        if self.scheduler.draining:
            return
        logger.info("draining: refusing new submissions")
        await self.scheduler.drain()
        await self._stop_hosts()
        persisted = self.scheduler.save_state()
        logger.info("drained; %d job(s) persisted for resume", persisted)
        for listener in (self._server, self._tcp_server):
            if listener is not None:
                listener.close()
                await listener.wait_closed()
        # Give open connections a moment to flush their terminal frames
        # (drain notices to waiters) before the process goes away.
        flushing = [task for task in self._conn_tasks if not task.done()]
        if flushing:
            await asyncio.wait(flushing, timeout=5.0)
        try:
            os.unlink(self.config.socket_path)
        except OSError:
            pass
        if self._stopped is not None:
            self._stopped.set()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        # Which worker host registered on this connection (if any); a
        # drop of the connection fast-expires that worker's leases.
        ctx: dict[str, Any] = {"worker": None, "reader": reader}
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(
                        writer,
                        error_frame(BAD_REQUEST, "frame too long"),
                    )
                    break
                if not line:
                    break
                try:
                    frame = decode_frame(line)
                except ProtocolError as defect:
                    await self._send(writer, error_frame(BAD_REQUEST, str(defect)))
                    continue
                try:
                    await self._dispatch(frame, writer, ctx)
                except (ConnectionResetError, BrokenPipeError):
                    raise
                except Exception as failure:  # one bad op must not kill the daemon
                    logger.exception("internal error handling %r", frame.get("op"))
                    await self._send(
                        writer,
                        error_frame(
                            INTERNAL_ERROR,
                            f"{type(failure).__name__}: {failure}",
                        ),
                    )
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if ctx["worker"] is not None and not self.draining:
                self.scheduler.worker_disconnected(ctx["worker"])
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _send(self, writer: asyncio.StreamWriter, frame: dict) -> None:
        writer.write(encode_frame(frame))
        await writer.drain()

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    async def _dispatch(
        self,
        frame: dict,
        writer: asyncio.StreamWriter,
        ctx: dict[str, Any] | None = None,
    ) -> None:
        op = frame.get("op")
        if op in WORKER_OPS:
            await self._op_worker(op, frame, writer, ctx)
            return
        if self._hosts_ready is not None:
            await self._hosts_ready.wait()
        if op == "ping":
            await self._send(
                writer,
                ok_frame(
                    op="pong",
                    version=PROTOCOL_VERSION,
                    draining=self.draining,
                    time=time.time(),
                ),
            )
        elif op == "stats":
            await self._send(writer, ok_frame(**self.scheduler.stats()))
        elif op == "jobs":
            jobs = sorted(
                self.scheduler.jobs.values(), key=lambda job: job.submitted_at
            )
            await self._send(
                writer, ok_frame(jobs=[job.describe() for job in jobs])
            )
        elif op == "status":
            await self._op_status(frame, writer)
        elif op == "submit":
            await self._op_submit(frame, writer)
        elif op == "subscribe":
            await self._op_subscribe(frame, writer)
        elif op == "drain":
            await self._send(
                writer,
                ok_frame(draining=True, retry_after=self.scheduler.queue.retry_after()),
            )
            self._signal_shutdown()
        else:
            await self._send(
                writer, error_frame(BAD_REQUEST, f"unknown op {op!r}")
            )

    async def _op_worker(
        self,
        op: str,
        frame: dict,
        writer: asyncio.StreamWriter,
        ctx: dict[str, Any] | None,
    ) -> None:
        """Fleet dispatch: worker hosts register, poll, heartbeat, report.

        A stale lease token — the job was requeued and possibly handed
        to someone else — answers 409, telling the worker to abandon
        that attempt and poll for fresh work.
        """
        worker = frame.get("worker")
        if not isinstance(worker, str) or not worker:
            await self._send(
                writer, error_frame(BAD_REQUEST, f"{op} needs a 'worker' id")
            )
            return
        if ctx is not None:
            ctx["worker"] = worker
        if op == "worker_register":
            knobs = self.scheduler.register_worker(worker, frame.get("info"))
            await self._send(writer, ok_frame(worker=worker, **knobs))
            return
        if op == "worker_poll":
            self._host_polled(worker)
            hold = frame.get("hold")
            if not isinstance(hold, (int, float)) or hold < 0:
                hold = self.config.worker_poll_interval
            # A host sends nothing while its poll is held, so EOF on the
            # reader means it died: lease it nothing.
            gone = ctx["reader"].at_eof if ctx is not None else None
            payload = await self.scheduler.poll(worker, float(hold), gone=gone)
            if payload is not None:
                await self._send(writer, ok_frame(**{"job": payload["job_id"], **payload}))
            elif self.draining:
                await self._send(
                    writer,
                    error_frame(
                        DRAINING,
                        "service is draining; no new dispatches",
                        retry_after=self.scheduler.queue.retry_after(),
                    ),
                )
            else:
                await self._send(writer, ok_frame(job=None))
            return
        job_id = frame.get("job")
        token = frame.get("token")
        if not isinstance(job_id, str) or not isinstance(token, str):
            await self._send(
                writer, error_frame(BAD_REQUEST, f"{op} needs 'job' and 'token'")
            )
            return
        if op == "worker_heartbeat":
            progress = frame.get("progress")
            accepted = self.scheduler.worker_heartbeat(
                worker, job_id, token, progress if isinstance(progress, dict) else None
            )
            if accepted:
                await self._send(writer, ok_frame(job=job_id, leased=True))
            else:
                await self._send(
                    writer,
                    error_frame(
                        CONFLICT,
                        "stale lease token; the job was requeued — abandon it",
                        job=job_id,
                    ),
                )
            return
        # worker_done
        result = frame.get("result")
        report = frame.get("report")
        accepted = self.scheduler.worker_done(
            worker,
            job_id,
            token,
            result=result if isinstance(result, dict) else None,
            report=report if isinstance(report, dict) else None,
            error=None if frame.get("error") is None else str(frame["error"]),
            crash=bool(frame.get("crash")),
        )
        if accepted:
            await self._send(writer, ok_frame(ACCEPTED, job=job_id, accepted=True))
        else:
            await self._send(
                writer,
                error_frame(
                    CONFLICT,
                    "stale lease token; the report was discarded",
                    job=job_id,
                ),
            )

    def _lookup(self, frame: dict) -> Job | None:
        job_id = frame.get("job")
        if not isinstance(job_id, str):
            return None
        return self.scheduler.jobs.get(job_id)

    def _final_frame(self, job: Job) -> dict:
        """The terminal frame of a wait/stream exchange."""
        fields: dict[str, Any] = {
            "job": job.id,
            "done": True,
            "state": job.state,
            "cached": job.cached,
        }
        if job.result is not None:
            fields["result"] = job.result
            fields["digest"] = fingerprint_digest(
                SimulationResult.from_dict(job.result)
            )
        if job.error is not None:
            fields["error"] = job.error
        return ok_frame(**fields)

    def _drain_notice(self, job: Job) -> dict:
        """Terminal frame for a job requeued by a drain: the daemon is
        going down, the job will resume when the next one loads the
        persisted queue."""
        return error_frame(
            DRAINING,
            "job requeued during drain; it resumes when the daemon restarts",
            job=job.id,
            state=job.state,
            retry_after=self.scheduler.queue.retry_after(),
        )

    async def _op_status(self, frame: dict, writer: asyncio.StreamWriter) -> None:
        job = self._lookup(frame)
        if job is None:
            await self._send(
                writer, error_frame(NOT_FOUND, f"unknown job {frame.get('job')!r}")
            )
            return
        fields = job.describe()
        if frame.get("result") and job.result is not None:
            fields["result"] = job.result
            fields["digest"] = fingerprint_digest(
                SimulationResult.from_dict(job.result)
            )
        await self._send(writer, ok_frame(**fields))

    async def _op_submit(self, frame: dict, writer: asyncio.StreamWriter) -> None:
        if self.draining:
            await self._send(
                writer,
                error_frame(
                    DRAINING,
                    "service is draining; resubmit after restart",
                    retry_after=self.scheduler.queue.retry_after(),
                ),
            )
            return
        client = str(frame.get("client") or "anon")
        try:
            spec = JobSpec.from_dict(frame)
        except ProtocolError as defect:
            await self._send(writer, error_frame(BAD_REQUEST, str(defect)))
            return
        try:
            job, extra = self.scheduler.submit(spec, client)
        except AdmissionRefused as refusal:
            await self._send(
                writer,
                error_frame(
                    TOO_MANY_JOBS, refusal.reason, retry_after=refusal.retry_after
                ),
            )
            return
        except ProtocolError as defect:
            await self._send(writer, error_frame(BAD_REQUEST, str(defect)))
            return
        await self._send(
            writer, ok_frame(ACCEPTED, job=job.id, state=job.state, **extra)
        )
        if frame.get("stream"):
            await self._stream(job, writer)
        elif frame.get("wait"):
            await self.scheduler.wait(job.id)
            if job.done:
                await self._send(writer, self._final_frame(job))
            else:  # unblocked by a drain-time requeue, not a result
                await self._send(writer, self._drain_notice(job))

    async def _op_subscribe(self, frame: dict, writer: asyncio.StreamWriter) -> None:
        job = self._lookup(frame)
        if job is None:
            await self._send(
                writer, error_frame(NOT_FOUND, f"unknown job {frame.get('job')!r}")
            )
            return
        await self._send(writer, ok_frame(job=job.id, state=job.state, subscribed=True))
        await self._stream(job, writer)

    async def _stream(self, job: Job, writer: asyncio.StreamWriter) -> None:
        """Replay history, then live events, ending with the final frame."""
        queue = self.scheduler.subscribe(job.id)
        try:
            while True:
                event = await queue.get()
                kind = event.get("event")
                if kind == "end":
                    await self._send(writer, self._final_frame(job))
                    return
                if kind == "requeued":
                    await self._send(writer, self._drain_notice(job))
                    return
                await self._send(writer, ok_frame(job=job.id, event=event))
        finally:
            self.scheduler.unsubscribe(job.id, queue)


async def run_server(
    config: ServiceConfig | None = None,
    *,
    store: ResultStore | str | os.PathLike | None = None,
) -> int:
    """Run one daemon until it drains; the ``repro serve`` body."""
    server = ServiceServer(config, store=store)
    await server.serve_forever()
    return 0
