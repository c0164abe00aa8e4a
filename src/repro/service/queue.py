"""Job queue: priority classes, per-client fairness, admission control.

The queue holds :class:`Job` records the scheduler has not dispatched
yet.  Three policies live here:

* **Priority classes** — ``high`` drains before ``normal`` before
  ``low`` (see :data:`~repro.service.protocol.PRIORITIES`).
* **Per-client fairness** — within one priority class, clients are
  served round-robin: a client that dumps fifty jobs cannot starve a
  client that submitted one.
* **Admission control** — :meth:`JobQueue.admit` refuses work (raising
  :class:`AdmissionRefused`, which the server turns into a 429 reply
  with a ``Retry-After`` hint) once queue depth or a single client's
  backlog exceeds its bounds.  Backpressure beats an unbounded queue:
  the client learns *now* that the service is saturated, with an
  estimate of when to come back, instead of waiting forever.
* **Per-tenant rate limits** — on top of the depth bounds, an optional
  token bucket per client (``rate`` submissions/second, ``burst``
  capacity) smooths floods into 429s with a precise refill hint, so one
  tenant's scripted storm cannot monopolise admission even when the
  queue still has room.

Fleet scheduling adds two Job facts: ``attempts`` counts *crashed*
dispatches (a worker died or its lease expired mid-job), and
``not_before`` holds the exponential-backoff eligibility time a crashed
job must wait out before :meth:`JobQueue.pop` will serve it again.  A
job whose attempts exhaust the scheduler's budget is *dead-lettered*
(state ``dead``): terminal, queryable, never retried.

The queue also snapshots to / restores from a JSON payload so a
draining daemon can persist still-queued jobs and a restarted one can
resume them (docs/service.md covers the lifecycle).
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.service.protocol import PRIORITIES, JobSpec, ProtocolError

#: Schema stamp of the persisted queue state.
QUEUE_STATE_VERSION = 1

#: Runtime estimate (seconds) used for Retry-After hints before the
#: first job completes and the moving average takes over.
DEFAULT_RUNTIME_ESTIMATE = 5.0

#: Progress frames retained per job for late subscribers.
EVENT_HISTORY_LIMIT = 64


class AdmissionRefused(RuntimeError):
    """The queue is refusing new work; come back in ``retry_after`` s."""

    def __init__(self, reason: str, retry_after: float) -> None:
        super().__init__(reason)
        self.reason = reason
        self.retry_after = retry_after


@dataclass
class Job:
    """One submitted simulation, from admission to terminal state."""

    id: str
    spec: JobSpec
    #: Canonical dedupe/store key (``JobSpec.key()``).
    key: str
    client: str = "anon"
    #: ``queued`` -> ``running`` -> ``done`` | ``failed`` | ``dead``; a
    #: drained in-flight job goes back to ``queued`` before being
    #: persisted, a crashed one goes back to ``queued`` with backoff
    #: until its attempt budget dead-letters it.
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    #: Terminal payload: a ``SimulationResult.to_dict()`` mapping.
    result: dict | None = None
    error: str | None = None
    #: Served straight from the persistent result store (never ran).
    cached: bool = False
    #: Duplicate submissions that attached to this job instead of
    #: re-running it.
    attached: int = 0
    #: Times the job was dispatched to a worker (drain/resume can make
    #: this exceed 1 even before worker-level retries).
    dispatches: int = 0
    #: Dispatches that *crashed* — worker death, lease expiry — counted
    #: against the scheduler's attempt budget (drain requeues are not
    #: crashes and do not count).
    attempts: int = 0
    #: Earliest wall-clock time :meth:`JobQueue.pop` may serve this job
    #: again (exponential backoff after a crash; 0 = immediately).
    not_before: float = 0.0
    #: Worker id currently (or last) running the job, if any.
    worker: str | None = None
    #: Bounded history of progress events for late subscribers.
    events: list = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.state in ("done", "failed", "dead")

    def record_event(self, event: dict) -> None:
        self.events.append(event)
        if len(self.events) > EVENT_HISTORY_LIMIT:
            del self.events[: len(self.events) - EVENT_HISTORY_LIMIT]

    def describe(self) -> dict:
        """Public status frame (what ``repro jobs`` renders)."""
        out: dict[str, Any] = {
            "job": self.id,
            "state": self.state,
            "spec": self.spec.to_dict(),
            "priority": self.spec.priority,
            "client": self.client,
            "submitted_at": self.submitted_at,
            "cached": self.cached,
            "attached": self.attached,
            "dispatches": self.dispatches,
            "attempts": self.attempts,
        }
        if self.worker is not None:
            out["worker"] = self.worker
        if self.started_at is not None:
            out["started_at"] = self.started_at
        if self.finished_at is not None:
            out["finished_at"] = self.finished_at
        if self.error is not None:
            out["error"] = self.error
        return out

    def snapshot(self) -> dict:
        """Persistable form of a *queued* job (results never persist
        here — finished work lives in the result store)."""
        return {
            "id": self.id,
            "spec": self.spec.to_dict(),
            "key": self.key,
            "client": self.client,
            "submitted_at": self.submitted_at,
            "dispatches": self.dispatches,
            "attempts": self.attempts,
        }

    @classmethod
    def from_snapshot(cls, data: dict) -> "Job":
        return cls(
            id=str(data["id"]),
            spec=JobSpec.from_dict(data["spec"]),
            key=str(data["key"]),
            client=str(data.get("client", "anon")),
            submitted_at=float(data.get("submitted_at", 0.0)),
            dispatches=int(data.get("dispatches", 0)),
            attempts=int(data.get("attempts", 0)),
        )


class JobQueue:
    """Priority + fairness queue with bounded admission.

    Structure: one ``OrderedDict[client, deque[Job]]`` per priority
    class.  :meth:`pop` serves priorities strictly in order; within a
    priority it takes the head of the *first* client's deque and then
    rotates that client to the back — round-robin fairness with O(1)
    operations.
    """

    def __init__(
        self,
        *,
        max_depth: int = 16,
        max_inflight: int = 2,
        max_client_depth: int = 8,
        rate: float | None = None,
        burst: int = 8,
        running: Callable[[], int] = lambda: 0,
    ) -> None:
        if max_inflight < 0:
            raise ValueError("max_inflight must be >= 0 (0 = no local workers)")
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive (or None to disable)")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.max_depth = max_depth
        self.max_inflight = max_inflight
        self.max_client_depth = max_client_depth
        #: Per-client token bucket: ``rate`` submissions/second refill,
        #: ``burst`` capacity.  None disables rate limiting.
        self.rate = rate
        self.burst = burst
        self._buckets: dict[str, tuple[float, float]] = {}
        self._lanes: dict[str, OrderedDict[str, deque[Job]]] = {
            priority: OrderedDict() for priority in PRIORITIES
        }
        self._depth = 0
        self._per_client: dict[str, int] = {}
        #: Jobs currently leased to workers; the scheduler's lease table
        #: owns that count, the queue only reads it.
        self.running = running
        #: Exponentially weighted mean job runtime, for Retry-After.
        self._runtime_ema: float | None = None
        #: Lifetime telemetry.
        self.admitted = 0
        self.refused = 0
        self.rate_limited = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return self._depth

    def client_depth(self, client: str) -> int:
        return self._per_client.get(client, 0)

    def __len__(self) -> int:
        return self._depth

    def __iter__(self) -> Iterator[Job]:
        """Queued jobs in the exact order :meth:`pop` would serve them."""
        lanes = {
            priority: OrderedDict(
                (client, deque(jobs)) for client, jobs in lane.items()
            )
            for priority, lane in self._lanes.items()
        }
        for priority in PRIORITIES:
            lane = lanes[priority]
            while lane:
                client, jobs = next(iter(lane.items()))
                yield jobs.popleft()
                del lane[client]
                if jobs:
                    lane[client] = jobs

    def info(self) -> dict:
        return {
            "depth": self._depth,
            "max_depth": self.max_depth,
            "inflight": self.running(),
            "max_inflight": self.max_inflight,
            "admitted": self.admitted,
            "refused": self.refused,
            "rate_limited": self.rate_limited,
            "per_priority": {
                priority: sum(len(jobs) for jobs in lane.values())
                for priority, lane in self._lanes.items()
            },
        }

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def retry_after(self) -> float:
        """Seconds until capacity plausibly frees up.

        Backlog ahead of a new arrival, divided across the worker
        slots, times the observed mean runtime — a hint, not a promise.
        """
        runtime = (
            self._runtime_ema
            if self._runtime_ema is not None
            else DEFAULT_RUNTIME_ESTIMATE
        )
        backlog = self._depth + self.running()
        waves = max(1.0, backlog / max(1, self.max_inflight))
        return round(max(0.1, waves * runtime), 1)

    def _take_token(self, client: str, now: float) -> None:
        """Charge one token-bucket token; refuse with the refill hint."""
        if self.rate is None:
            return
        tokens, last = self._buckets.get(client, (float(self.burst), now))
        tokens = min(float(self.burst), tokens + (now - last) * self.rate)
        if tokens < 1.0:
            self.refused += 1
            self.rate_limited += 1
            self._buckets[client] = (tokens, now)
            raise AdmissionRefused(
                f"client {client!r} exceeded {self.rate:g} submissions/s "
                f"(burst {self.burst})",
                round(max(0.1, (1.0 - tokens) / self.rate), 2),
            )
        self._buckets[client] = (tokens - 1.0, now)

    def admit(self, client: str, now: float | None = None) -> None:
        """Gate one submission; raises :class:`AdmissionRefused` on
        saturation (total backlog, one client's share, or a client
        outrunning its rate limit)."""
        self._take_token(client, time.time() if now is None else now)
        if self._depth >= self.max_depth:
            self.refused += 1
            raise AdmissionRefused(
                f"queue full ({self._depth}/{self.max_depth} jobs queued, "
                f"{self.running()}/{self.max_inflight} running)",
                self.retry_after(),
            )
        if self.client_depth(client) >= self.max_client_depth:
            self.refused += 1
            raise AdmissionRefused(
                f"client {client!r} already has "
                f"{self.client_depth(client)} jobs queued "
                f"(per-client bound {self.max_client_depth})",
                self.retry_after(),
            )
        self.admitted += 1

    def record_runtime(self, seconds: float) -> None:
        """Feed one completed job's wall-clock into the EMA."""
        if self._runtime_ema is None:
            self._runtime_ema = seconds
        else:
            self._runtime_ema = 0.7 * self._runtime_ema + 0.3 * seconds

    # ------------------------------------------------------------------
    # Queue operations
    # ------------------------------------------------------------------
    def push(self, job: Job) -> None:
        """Enqueue a job.

        ``push`` is also the re-entry point for drain-requeued and
        resumed jobs, so it does not count toward ``admitted`` — only
        :meth:`admit` (the actual admission decision) does.
        """
        lane = self._lanes[job.spec.priority]
        if job.client not in lane:
            lane[job.client] = deque()
        lane[job.client].append(job)
        self._depth += 1
        self._per_client[job.client] = self._per_client.get(job.client, 0) + 1

    def pop(self, now: float | None = None) -> Job | None:
        """Next *eligible* job by priority then client round-robin.

        A job still serving its crash backoff (``not_before`` in the
        future) is skipped — it keeps its queue position and becomes
        servable once the clock passes.  None when nothing is eligible
        (the queue may still be non-empty).
        """
        now = time.time() if now is None else now
        for priority in PRIORITIES:
            lane = self._lanes[priority]
            for client, jobs in list(lane.items()):
                if jobs[0].not_before > now:
                    continue  # head job is backing off; try the next client
                job = jobs.popleft()
                # Rotate: the served client goes to the back of its lane.
                del lane[client]
                if jobs:
                    lane[client] = jobs
                self._depth -= 1
                self._per_client[client] -= 1
                if not self._per_client[client]:
                    del self._per_client[client]
                return job
        return None

    # ------------------------------------------------------------------
    # Persistence (drain / resume)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON payload of every queued job, in service order."""
        return {
            "version": QUEUE_STATE_VERSION,
            "jobs": [job.snapshot() for job in self],
        }

    @classmethod
    def restore_jobs(cls, payload: dict) -> list[Job]:
        """Jobs from a :meth:`snapshot` payload, in service order.

        Raises :class:`~repro.service.protocol.ProtocolError` on a
        stale or malformed payload — a daemon should refuse to guess at
        half-understood state.
        """
        if not isinstance(payload, dict):
            raise ProtocolError("queue state must be a JSON object")
        if payload.get("version") != QUEUE_STATE_VERSION:
            raise ProtocolError(
                f"unsupported queue state version {payload.get('version')!r}"
            )
        try:
            return [Job.from_snapshot(entry) for entry in payload.get("jobs", [])]
        except (KeyError, TypeError, ValueError) as defect:
            raise ProtocolError(f"malformed queue state: {defect}") from None
