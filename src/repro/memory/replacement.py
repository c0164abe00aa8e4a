"""Replacement policies shared by caches, TLBs and the PWC.

A component holds *one* policy for all of its sets.  The policy keeps
flat per-slot state, where ``slot = set_index * ways + way``, and
answers "which way of this set do I evict?".  Building one object per
component (not per set) keeps machine build cheap, and the hot update
path is a single list store.
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class ReplacementPolicy(ABC):
    """Victim selection over every set of one component.

    Built by its registry factory as ``factory(num_sets, ways)``, once
    per component.
    """

    @abstractmethod
    def touch(self, slot: int, tick: int) -> None:
        """Record a use of ``slot`` at logical time ``tick``."""

    @abstractmethod
    def victim(self, set_index: int, candidate_ways: list[int]) -> int:
        """Choose which of ``set_index``'s ``candidate_ways`` to evict.

        Callers pass candidates in ascending way order; on a tie the
        first (lowest-numbered) minimal way wins.  The list may be shared
        by the caller across calls, so policies must not mutate it.
        """

    @abstractmethod
    def forget(self, slot: int) -> None:
        """Drop metadata for an evicted or invalidated slot."""


class _SlotRanks(ReplacementPolicy):
    """Evicts the candidate with the lowest per-slot rank (-1 = empty)."""

    def __init__(self, num_sets: int, ways: int) -> None:
        self._ways = ways
        self._rank = [-1] * (num_sets * ways)

    def victim(self, set_index: int, candidate_ways: list[int]) -> int:
        if not candidate_ways:
            raise ValueError("no candidate ways to evict")
        rank = self._rank
        base = set_index * self._ways
        if len(candidate_ways) == self._ways:
            # Every way is a candidate: the set's ranks are one slice,
            # and list.index keeps the first-wins tie-break.
            ranks = rank[base : base + self._ways]
            return ranks.index(min(ranks))
        # Explicit loop instead of min(key=lambda ...): strict < keeps
        # min()'s first-wins tie-break without a call per candidate.
        best = candidate_ways[0]
        best_rank = rank[base + best]
        for way in candidate_ways[1:]:
            way_rank = rank[base + way]
            if way_rank < best_rank:
                best = way
                best_rank = way_rank
        return best

    def forget(self, slot: int) -> None:
        self._rank[slot] = -1


class LRUPolicy(_SlotRanks):
    """Least-recently-used via last-touch timestamps."""

    def touch(self, slot: int, tick: int) -> None:
        self._rank[slot] = tick


class FIFOPolicy(_SlotRanks):
    """First-in-first-out: eviction order follows insertion order.

    One insertion counter serves the whole component: victims are only
    ever compared within a set, where the counter preserves order.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self._inserted = 0

    def touch(self, slot: int, tick: int) -> None:
        if self._rank[slot] < 0:
            self._rank[slot] = self._inserted
            self._inserted += 1


def make_policy(name: str, num_sets: int, ways: int) -> ReplacementPolicy:
    """Build the named policy for a ``num_sets`` x ``ways`` component.

    Plugin-registered policies (``repro.arch.REPLACEMENT_POLICIES``) are
    selectable here by the same names.
    """
    from repro.arch.registry import REPLACEMENT_POLICIES

    try:
        factory = REPLACEMENT_POLICIES.factory(name)
    except KeyError as miss:
        raise ValueError(str(miss)) from None
    return factory(num_sets, ways)
