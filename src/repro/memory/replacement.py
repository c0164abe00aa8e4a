"""Replacement policies shared by caches and TLBs.

Each policy manages recency metadata for one set and answers "which way
do I evict?".  Policies are deliberately tiny objects — a cache holds
one per set — so the hot update path stays cheap.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable


class ReplacementPolicy(ABC):
    """Victim selection within one set."""

    @abstractmethod
    def touch(self, way: int, tick: int) -> None:
        """Record a use of ``way`` at logical time ``tick``."""

    @abstractmethod
    def victim(self, candidate_ways: list[int]) -> int:
        """Choose which of ``candidate_ways`` to evict.

        Callers pass candidates in ascending way order; on a tie the
        first (lowest-numbered) minimal way wins.  The list may be shared
        by the caller across calls, so policies must not mutate it.
        """

    @abstractmethod
    def forget(self, way: int) -> None:
        """Drop metadata for an invalidated way."""


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used via last-touch timestamps."""

    def __init__(self) -> None:
        self._last_use: dict[int, int] = {}

    def touch(self, way: int, tick: int) -> None:
        self._last_use[way] = tick

    def victim(self, candidate_ways: list[int]) -> int:
        # Explicit loop instead of min(key=lambda ...): victim search is
        # on the TLB/cache eviction hot path and the lambda call per
        # candidate dominated it.  Strict < keeps min()'s first-wins
        # tie-break.
        if not candidate_ways:
            raise ValueError("no candidate ways to evict")
        last = self._last_use
        best = candidate_ways[0]
        best_tick = last.get(best, -1)
        for way in candidate_ways[1:]:
            tick = last.get(way, -1)
            if tick < best_tick:
                best = way
                best_tick = tick
        return best

    def forget(self, way: int) -> None:
        self._last_use.pop(way, None)


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out: eviction order follows insertion order."""

    def __init__(self) -> None:
        self._inserted: dict[int, int] = {}
        self._tick = 0

    def touch(self, way: int, tick: int) -> None:
        if way not in self._inserted:
            self._inserted[way] = self._tick
            self._tick += 1

    def victim(self, candidate_ways: list[int]) -> int:
        if not candidate_ways:
            raise ValueError("no candidate ways to evict")
        inserted = self._inserted
        best = candidate_ways[0]
        best_tick = inserted.get(best, -1)
        for way in candidate_ways[1:]:
            tick = inserted.get(way, -1)
            if tick < best_tick:
                best = way
                best_tick = tick
        return best

    def forget(self, way: int) -> None:
        self._inserted.pop(way, None)


def policy_factory(name: str) -> Callable[[], ReplacementPolicy]:
    """Resolve the named policy's factory via the component registry.

    Components that hold one policy per set resolve the factory once
    and call it per set.  Plugin-registered policies
    (``repro.arch.REPLACEMENT_POLICIES``) are selectable here by the
    same names.
    """
    from repro.arch.registry import REPLACEMENT_POLICIES

    try:
        return REPLACEMENT_POLICIES.factory(name)
    except KeyError as miss:
        raise ValueError(str(miss)) from None


def make_policy(name: str) -> ReplacementPolicy:
    """Build one instance of the named policy (see :func:`policy_factory`)."""
    return policy_factory(name)()
