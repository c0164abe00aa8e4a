"""Job leases: time-bounded ownership of dispatched work.

Every job a scheduler hands to a worker host is covered by a
:class:`Lease`: *who* runs it, *which attempt* this is, and *until
when* the claim is valid.  Workers refresh the lease with every
heartbeat; a worker that dies (``kill -9``), wedges, or partitions away
simply stops refreshing, and the scheduler's reaper notices the expiry
and requeues the job for someone else.  No worker ack, no distributed
consensus — just a TTL that the healthy path keeps pushing forward.

Leases live only in the scheduler's memory: the lease table is the one
record of which jobs are running.  A scheduler crash loses it together
with the job table it indexes; a restarted daemon resumes only what a
drain persisted in the queue snapshot.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator


class LeaseHeld(RuntimeError):
    """A grant was refused because a live lease already covers the job."""

    def __init__(self, lease: "Lease") -> None:
        super().__init__(
            f"job {lease.job_id} is already leased to {lease.worker!r} "
            f"(attempt {lease.attempt}, expires in "
            f"{max(0.0, lease.expires_at - time.time()):.1f}s)"
        )
        self.lease = lease


@dataclass(frozen=True)
class Lease:
    """One worker's time-bounded claim on one job dispatch."""

    job_id: str
    worker: str
    #: Unguessable per-grant token; a worker must echo it on every
    #: heartbeat and on the terminal report, so a *stale* worker (whose
    #: lease expired and whose job was re-leased) can never refresh or
    #: complete the new owner's attempt.
    token: str
    #: Which dispatch this lease covers (1 = first attempt).
    attempt: int
    granted_at: float
    ttl: float
    expires_at: float

    def expired(self, now: float) -> bool:
        return now >= self.expires_at

    def remaining(self, now: float) -> float:
        return max(0.0, self.expires_at - now)


class LeaseManager:
    """Grants, refreshes, and expires job leases."""

    def __init__(
        self, *, ttl: float = 15.0, clock: Callable[[], float] = time.time
    ) -> None:
        if ttl <= 0:
            raise ValueError("lease ttl must be positive")
        self.ttl = ttl
        self.clock = clock
        self._by_job: dict[str, Lease] = {}
        #: Lifetime telemetry.
        self.granted = 0
        self.expired_total = 0

    # ------------------------------------------------------------------
    # Grant / refresh / release
    # ------------------------------------------------------------------
    def grant(self, job_id: str, worker: str, *, attempt: int = 1) -> Lease:
        """Claim ``job_id`` for ``worker``; :class:`LeaseHeld` if live.

        An expired lease the reaper has not swept yet is replaced
        rather than refused.
        """
        now = self.clock()
        current = self._by_job.get(job_id)
        if current is not None and not current.expired(now):
            raise LeaseHeld(current)
        lease = Lease(
            job_id=job_id,
            worker=worker,
            token=uuid.uuid4().hex,
            attempt=attempt,
            granted_at=now,
            ttl=self.ttl,
            expires_at=now + self.ttl,
        )
        self._by_job[job_id] = lease
        self.granted += 1
        return lease

    def refresh(self, job_id: str, token: str) -> Lease | None:
        """Push ``job_id``'s lease expiry forward; None if ``token`` is
        stale (lease expired, released, or re-granted elsewhere)."""
        lease = self._by_job.get(job_id)
        now = self.clock()
        if lease is None or lease.token != token or lease.expired(now):
            return None
        renewed = replace(lease, expires_at=now + lease.ttl)
        self._by_job[job_id] = renewed
        return renewed

    def release_job(self, job_id: str) -> bool:
        """Drop whatever lease covers ``job_id`` (terminal bookkeeping)."""
        return self._by_job.pop(job_id, None) is not None

    # ------------------------------------------------------------------
    # Expiry
    # ------------------------------------------------------------------
    def holder(self, job_id: str) -> Lease | None:
        return self._by_job.get(job_id)

    def active(self) -> list[Lease]:
        now = self.clock()
        return [lease for lease in self._by_job.values() if not lease.expired(now)]

    def expired(self) -> list[Lease]:
        """Leases past their TTL, for the reaper to sweep (not removed)."""
        now = self.clock()
        return [lease for lease in self._by_job.values() if lease.expired(now)]

    def expire_now(
        self, *, worker: str | None = None, job_id: str | None = None
    ) -> list[Lease]:
        """Force matching leases to expire immediately.

        The fast path for *known* deaths — a worker's connection dropped
        — so the reaper requeues on its next tick instead of waiting a
        full TTL for the silence to become visible.
        """
        now = self.clock()
        touched = []
        for key, lease in self._by_job.items():
            if worker is not None and lease.worker != worker:
                continue
            if job_id is not None and lease.job_id != job_id:
                continue
            if not lease.expired(now):
                self._by_job[key] = replace(lease, expires_at=now)
            touched.append(self._by_job[key])
        return touched

    def sweep(self, lease: Lease) -> bool:
        """Remove one expired lease (reaper bookkeeping); False if the
        job was re-granted in the meantime."""
        current = self._by_job.get(lease.job_id)
        if current is None or current.token != lease.token:
            return False
        del self._by_job[lease.job_id]
        self.expired_total += 1
        return True

    def __len__(self) -> int:
        return len(self._by_job)

    def __iter__(self) -> Iterator[Lease]:
        """Every lease in the table, expired ones included."""
        return iter(list(self._by_job.values()))


def describe_leases(leases: Iterable[Lease], now: float | None = None) -> list[dict]:
    """JSON-safe lease table (what ``stats`` ships to clients)."""
    now = time.time() if now is None else now
    return [
        {
            "job": lease.job_id,
            "worker": lease.worker,
            "attempt": lease.attempt,
            "remaining": round(lease.remaining(now), 3),
        }
        for lease in leases
    ]
