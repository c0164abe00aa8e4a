"""Request Distributor: assigns L2 TLB misses to SMs (Section 4.4).

Lives beside the L2 TLB.  A per-core counter tracks how many requests
are outstanding at each SM so walks are only dispatched to cores whose
PW Warp has room (counter < SoftPWB capacity); when every core is full,
requests wait in a global overflow queue and drain as FL2T completions
decrement the counters.  Selection policies are
:class:`SelectionPolicy` objects resolved by name through
:data:`repro.arch.registry.DISTRIBUTOR_POLICIES` — the paper compares
the built-in three in Figure 26 and adopts round-robin.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections import deque
from typing import Callable

from repro.arch.registry import DISTRIBUTOR_POLICIES
from repro.config import DistributorPolicy
from repro.ptw.request import WalkRequest
from repro.sim.stats import StatsRegistry


class SelectionPolicy:
    """Picks which available SM receives the next walk request.

    Subclasses implement :meth:`select`; ``available`` is the non-empty
    list of SM ids with SoftPWB room, in ascending order — the
    distributor's own live list, so policies read it and never mutate
    it — and
    ``distributor`` grants access to cursor-free machine state (core
    count, idleness probe).  Policies own any selection state they need
    (cursor, RNG) so a checkpointed machine deep-copies them along with
    everything else.  Set ``requires_idleness`` when the policy needs
    the distributor's idleness probe wired.
    """

    name = "?"
    requires_idleness = False

    def select(self, available: list[int], distributor: "RequestDistributor") -> int:
        raise NotImplementedError


class RoundRobinSelection(SelectionPolicy):
    """First available core at or after a rotating cursor (the default)."""

    name = DistributorPolicy.ROUND_ROBIN

    def __init__(self) -> None:
        self._cursor = 0

    def select(self, available: list[int], distributor: "RequestDistributor") -> int:
        # The first SM at or after the cursor, wrapping to the lowest:
        # the minimum of ``(sm - cursor) % num_sms`` over ``available``.
        index = bisect_left(available, self._cursor)
        sm = available[index] if index < len(available) else available[0]
        self._cursor = (sm + 1) % distributor.num_sms
        return sm


class RandomSelection(SelectionPolicy):
    """Uniform choice among available cores, seeded for determinism."""

    name = DistributorPolicy.RANDOM

    def __init__(self, *, seed: int = 97) -> None:
        self._rng = random.Random(seed)

    def select(self, available: list[int], distributor: "RequestDistributor") -> int:
        return self._rng.choice(available)


class StallAwareSelection(SelectionPolicy):
    """Prefer the most idle core, judged by the wired idleness probe."""

    name = DistributorPolicy.STALL_AWARE
    requires_idleness = True

    def select(self, available: list[int], distributor: "RequestDistributor") -> int:
        probe = distributor.idleness
        assert probe is not None
        return min(available, key=probe)


class RequestDistributor:
    """Per-core counters plus a pluggable core-selection policy."""

    def __init__(
        self,
        num_sms: int,
        capacity_per_sm: int,
        stats: StatsRegistry,
        *,
        policy: str | SelectionPolicy = DistributorPolicy.ROUND_ROBIN,
        idleness: Callable[[int], int] | None = None,
        seed: int = 97,
        clock: Callable[[], int] | None = None,
    ) -> None:
        if isinstance(policy, str):
            try:
                policy = DISTRIBUTOR_POLICIES.create(policy, seed=seed)
            except KeyError as miss:
                raise ValueError(str(miss)) from None
        if policy.requires_idleness and idleness is None:
            raise ValueError("stall-aware policy needs an idleness probe")
        self.num_sms = num_sms
        self.capacity = capacity_per_sm
        self.stats = stats
        #: The live policy object; ``policy`` stays the name string for
        #: introspection and anything that compared it historically.
        self.selection = policy
        self.policy = policy.name
        self.idleness = idleness
        self._idleness = idleness  # legacy alias
        self._trace = stats.obs.trace
        self._counts = stats.counters.live()
        #: Simulation-time probe for trace timestamps; falls back to each
        #: request's enqueue time when the backend wires no clock.
        self._clock = clock
        self._counters = [0] * num_sms
        #: Ascending SM ids whose counter is below capacity; updated only
        #: when a counter reaches or leaves capacity.
        self._available = list(range(num_sms)) if capacity_per_sm > 0 else []
        self._overflow: deque[WalkRequest] = deque()
        #: Wired by the backend: delivers a request to one SM's controller.
        self.dispatch: Callable[[int, WalkRequest], None] | None = None

    # ------------------------------------------------------------------
    # Selection (Figure 11, steps 1-3)
    # ------------------------------------------------------------------
    def _select(self) -> int | None:
        if not self._available:
            return None
        return self.selection.select(self._available, self)

    def _now(self, request: WalkRequest) -> int:
        return self._clock() if self._clock is not None else request.enqueue_time

    def submit(self, request: WalkRequest) -> None:
        """Assign ``request`` to a core, or park it until one frees up."""
        sm = self._select()
        if sm is None:
            self._overflow.append(request)
            self._counts["distributor.overflow"] += 1
            if self._trace.enabled:
                now = self._now(request)
                self._trace.instant(
                    "distributor", "distributor.overflow", now, vpn=request.vpn
                )
                self._trace.counter(
                    "distributor",
                    "distributor.overflow_depth",
                    now,
                    depth=len(self._overflow),
                )
            return
        self._send(sm, request)

    def _send(self, sm: int, request: WalkRequest) -> None:
        if self.dispatch is None:
            raise RuntimeError("RequestDistributor.dispatch not wired")
        self._counters[sm] += 1
        if self._counters[sm] == self.capacity:
            del self._available[bisect_left(self._available, sm)]
        self._counts["distributor.dispatched"] += 1
        if self._trace.enabled:
            self._trace.instant(
                "distributor",
                "distributor.dispatch",
                self._now(request),
                id=request.trace_id,
                sm=sm,
                vpn=request.vpn,
            )
        self.dispatch(sm, request)

    # ------------------------------------------------------------------
    # Completion (Figure 11, step 4: FL2T decrements the counter)
    # ------------------------------------------------------------------
    def complete(self, sm: int) -> None:
        if self._counters[sm] <= 0:
            raise ValueError(f"counter underflow for SM {sm}")
        self._counters[sm] -= 1
        if self._counters[sm] == self.capacity - 1:
            insort(self._available, sm)
        if self._overflow:
            target = self._select()
            if target is not None:
                self._send(target, self._overflow.popleft())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def register_metrics(self, metrics) -> None:
        """Expose dispatch backlog state as sampled gauges."""
        metrics.register_gauge("distributor.in_flight", lambda: self.in_flight)
        metrics.register_gauge(
            "distributor.overflow_depth", lambda: len(self._overflow)
        )

    def counter(self, sm: int) -> int:
        return self._counters[sm]

    @property
    def overflow_depth(self) -> int:
        return len(self._overflow)

    def overflow_requests(self) -> list[WalkRequest]:
        """Requests parked in the global overflow queue (audit support)."""
        return list(self._overflow)

    @property
    def in_flight(self) -> int:
        return sum(self._counters)
