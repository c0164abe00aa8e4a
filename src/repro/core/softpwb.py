"""SoftPWB: the per-SM software page-walk buffer and its status bitmap.

Section 4.4: each SM repurposes a slice of shared memory as a request
buffer (96 bits per entry: 33-bit VPN, 31-bit node PFN, 2-bit level) and
the SoftWalker Controller tracks entry state with a 2-bit-per-thread
bitmap — invalid (no request), valid (ready), processing (walk running).
"""

from __future__ import annotations

import enum
import heapq

from repro.ptw.request import WalkRequest

#: Bits per SoftPWB entry: VPN + page-table-base PFN + current level.
ENTRY_BITS = 33 + 31 + 2
#: Reserved per-entry storage, rounded to a power-of-two slot.
ENTRY_RESERVED_BITS = 96


class SlotState(enum.Enum):
    INVALID = 0
    VALID = 1
    PROCESSING = 2


class SoftPWB:
    """Fixed-capacity request buffer with a 2-bit status per slot.

    Free and valid slot indices live in two min-heaps, so filling a slot
    and launching a walk both take the lowest-numbered eligible slot —
    the order a scan of the status bitmap would find — in O(log n).
    """

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ValueError("SoftPWB needs at least one entry")
        self.capacity = entries
        self._slots: list[WalkRequest | None] = [None] * entries
        self._states: list[SlotState] = [SlotState.INVALID] * entries
        #: Min-heaps of INVALID and VALID slot indices.
        self._free: list[int] = list(range(entries))
        self._valid: list[int] = []

    # ------------------------------------------------------------------
    # Controller-side operations (Figure 11, steps 4-6)
    # ------------------------------------------------------------------
    def insert(self, request: WalkRequest) -> int | None:
        """Fill the lowest invalid slot with a request; returns its index."""
        if not self._free:
            return None
        index = heapq.heappop(self._free)
        self._slots[index] = request
        self._states[index] = SlotState.VALID
        heapq.heappush(self._valid, index)
        return index

    def take_valid(self) -> tuple[int, WalkRequest] | None:
        """Pick the lowest valid entry and mark it processing (walk launch)."""
        if not self._valid:
            return None
        index = heapq.heappop(self._valid)
        self._states[index] = SlotState.PROCESSING
        request = self._slots[index]
        assert request is not None
        return index, request

    def complete(self, index: int) -> None:
        """Walk finished: slot returns to invalid."""
        if self._states[index] is not SlotState.PROCESSING:
            raise ValueError(f"slot {index} is not processing")
        self._states[index] = SlotState.INVALID
        self._slots[index] = None
        heapq.heappush(self._free, index)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def state(self, index: int) -> SlotState:
        return self._states[index]

    def count(self, state: SlotState) -> int:
        if state is SlotState.INVALID:
            return len(self._free)
        if state is SlotState.VALID:
            return len(self._valid)
        return self.capacity - len(self._free) - len(self._valid)

    @property
    def occupied(self) -> int:
        return self.capacity - len(self._free)

    def requests(self) -> list[WalkRequest]:
        """Every buffered request (valid or processing), slot order."""
        return [request for request in self._slots if request is not None]
