"""Physical memory frame allocator.

Backs both data pages and page-table nodes.  Two regions are carved out
of the physical address space: a page-table region (low addresses, so PTE
accesses are easy to recognise in traces) and a data region.  Allocation
can optionally be scattered so that physically consecutive frames do not
correlate with virtually consecutive pages — the paper's irregular
workloads assume no OS-level contiguity help.  Scattering uses a lazy
multiplicative bijection (the region can span billions of frames, so a
materialised permutation is out of the question).
"""

from __future__ import annotations

import math


class OutOfMemoryError(RuntimeError):
    """Raised when a region has no free frames left."""


class FrameAllocator:
    """Bump (optionally scattered) allocator over a frame range."""

    def __init__(
        self,
        first_frame: int,
        num_frames: int,
        *,
        shuffle_seed: int | None = None,
    ) -> None:
        if num_frames <= 0:
            raise ValueError("allocator needs at least one frame")
        self._first = first_frame
        self._num = num_frames
        self._next = 0
        self._multiplier: int | None = None
        self._offset = 0
        if shuffle_seed is not None and num_frames > 1:
            # i -> (a*i + b) mod N is a bijection whenever gcd(a, N) == 1.
            candidate = (0x9E3779B9 ^ (shuffle_seed * 2654435761)) % num_frames
            candidate = max(1, candidate) | 1
            while math.gcd(candidate, num_frames) != 1:
                candidate += 2
                if candidate >= num_frames:
                    candidate = 1
                    break
            self._multiplier = candidate
            self._offset = (shuffle_seed * 40503) % num_frames

    def allocate(self) -> int:
        """Return the next free frame number."""
        if self._next >= self._num:
            raise OutOfMemoryError(
                f"region of {self._num} frames starting at {self._first} exhausted"
            )
        if self._multiplier is None:
            index = self._next
        else:
            index = (self._next * self._multiplier + self._offset) % self._num
        self._next += 1
        return self._first + index

    @property
    def capacity(self) -> int:
        return self._num

    @property
    def remaining(self) -> int:
        return self._num - self._next


class PhysicalMemoryMap:
    """Partitions physical frames into a page-table region and a data region."""

    #: Frames reserved for page-table nodes (4KB nodes inside 64KB frames are
    #: sub-allocated by the page table itself, so this is generous).
    DEFAULT_PT_FRAMES = 1 << 14

    def __init__(
        self,
        pfn_bits: int,
        *,
        pt_frames: int = DEFAULT_PT_FRAMES,
        shuffle_seed: int | None = 1234,
    ) -> None:
        total_frames = 1 << pfn_bits
        if pt_frames >= total_frames:
            raise ValueError("page-table region larger than physical memory")
        self.page_table_region = FrameAllocator(0, pt_frames)
        self.data_region = FrameAllocator(
            pt_frames, total_frames - pt_frames, shuffle_seed=shuffle_seed
        )
