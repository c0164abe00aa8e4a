"""Streaming Multiprocessor: issue-port timing and stall accounting.

The SM model is deliberately abstract (DESIGN.md §3): it is an issue
port with a cursor.  User warps issue instructions back-to-back at one
per cycle; the gap between a warp becoming ready and the port being
free is contention, and the gap between port-idle periods is stall.
PW Warps issue with the highest scheduling priority (Section 4.2), so
their instructions start immediately and push user-warp issue back —
which is how SoftWalker's compute "cost" on busy SMs is charged.
"""

from __future__ import annotations

from repro.sim.stats import StatsRegistry


class SM:
    """One streaming multiprocessor's issue port and counters."""

    def __init__(self, sm_id: int, stats: StatsRegistry) -> None:
        self.sm_id = sm_id
        self.stats = stats
        self._port_free = 0
        self.user_issued = 0
        self.pw_issued = 0
        #: Integral of warp-cycles spent blocked on memory (Figure 8).
        self.memory_wait = 0
        #: The live buckets of the ``warp.mem_spread`` histogram, fetched
        #: by the first warp that records into it (fetching creates it,
        #: and an empty histogram enters the fingerprint).
        self.mem_spread = None

    # ------------------------------------------------------------------
    # Issue paths
    # ------------------------------------------------------------------
    def issue(self, instructions: int, when: int) -> int:
        """Issue ``instructions`` user-warp instructions starting at ``when``.

        Returns the cycle the last instruction issues (1 IPC port).
        """
        if instructions <= 0:
            return when
        start = max(when, self._port_free)
        self._port_free = start + instructions
        self.user_issued += instructions
        return self._port_free

    def issue_priority(self, instructions: int, when: int) -> int:
        """Issue PW-warp instructions with highest priority.

        The PW warp does not wait for the port (it preempts), but its
        slots still displace user-warp issue: the port cursor advances
        so the cost lands on co-resident user warps.
        """
        if instructions <= 0:
            return when
        self._port_free = max(self._port_free, when) + instructions
        self.pw_issued += instructions
        return when + instructions

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def record_memory_wait(self, cycles: int) -> None:
        if cycles > 0:
            self.memory_wait += cycles

    def port_busy_until(self) -> int:
        """Idleness probe for the stall-aware distributor policy."""
        return self._port_free
