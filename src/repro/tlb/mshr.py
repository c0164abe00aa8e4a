"""Dedicated TLB MSHR file with miss merging.

Each entry tracks one in-flight VPN and up to ``merges`` requests that
collapsed onto it (Table 3: 32 entries x 192 merges at L1, 128 x 46 at
L2).  The file is state only: the translation service
(:class:`~repro.gpu.translation.TranslationService`) allocates, merges
and frees entries inline on its miss paths and counts each outcome
under ``<name>.allocated`` / ``.merged`` / ``.full`` / ``.merge_full``
/ ``.resolved``.  A request the file cannot hold is an *MSHR failure*,
the event In-TLB MSHR exists to absorb.  What stays here is the audit
and fault-injection surface.
"""

from __future__ import annotations

from typing import Any


class MSHRFile:
    """Fully associative miss-status holding registers for one TLB level.

    :class:`~repro.config.TLBConfig` checks the sizes (``entries >= 0``,
    ``merges >= 1``).
    """

    def __init__(self, entries: int, merges: int, *, name: str) -> None:
        #: Usable entry count; a new VPN is refused once ``occupancy``
        #: reaches it.
        self.capacity = entries
        #: As-built capacity.  ``capacity`` may be temporarily lowered
        #: (fault injection models MSHR-exhaustion bursts that way);
        #: invariant audits always check occupancy against this bound.
        self.nominal_capacity = entries
        #: Waiters one entry holds at most.
        self.merges = merges
        self.name = name
        #: vpn -> waiters merged onto its entry, in allocation order.
        self._entries: dict[int, list[Any]] = {}

    def set_capacity(self, entries: int) -> None:
        """Adjust the usable entry count (transient fault injection).

        Lowering below the current occupancy only refuses *new*
        allocations; existing entries drain normally.  Never raises the
        bound above ``nominal_capacity``.
        """
        self.capacity = max(0, min(entries, self.nominal_capacity))

    def tracked_vpns(self) -> list[int]:
        """VPNs with a live entry, in allocation order (audit support)."""
        return list(self._entries)

    def waiter_count(self, vpn: int) -> int:
        """Waiters merged onto ``vpn``'s entry (0 when not tracking)."""
        waiters = self._entries.get(vpn)
        return len(waiters) if waiters is not None else 0

    @property
    def occupancy(self) -> int:
        return len(self._entries)
