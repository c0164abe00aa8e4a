"""Four-level radix page table with physically addressed table nodes.

Every table node occupies a real span of physical memory (512 PTEs of
8 bytes = 4KB), so a simulated page walk issues *genuine* physical memory
accesses: one PTE read per level at ``node_base + index * 8``.  This is
what lets the cache/DRAM model price each walk dynamically, exactly as
the paper's methodology describes.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.pagetable.address import RADIX_BITS_PER_LEVEL, AddressLayout
from repro.pagetable.allocator import FrameAllocator

#: Physical footprint of one table node.
NODE_BYTES = (1 << RADIX_BITS_PER_LEVEL) * 8
PTE_BYTES = 8


class PageFault(Exception):
    """Raised when translation reaches an invalid PTE."""

    def __init__(self, vpn: int, level: int) -> None:
        super().__init__(f"page fault for vpn={vpn:#x} at level {level}")
        self.vpn = vpn
        self.level = level


class WalkStep(NamedTuple):
    """One PTE read during a page walk."""

    level: int
    #: Physical byte address of the PTE being read.
    pte_address: int
    #: For non-leaf levels the next node's physical base; for the leaf the PFN.
    value: int
    is_leaf: bool
    #: False when the PTE is invalid (page fault at this level).
    valid: bool = True


class _Node:
    """One radix table node: sparse children plus its physical placement."""

    __slots__ = ("phys_base", "children", "leaves")

    def __init__(self, phys_base: int) -> None:
        self.phys_base = phys_base
        self.children: dict[int, _Node] = {}
        self.leaves: dict[int, int] = {}


class RadixPageTable:
    """A multi-level radix page table backed by physical frames.

    Table nodes are sub-allocated 4KB at a time out of frames taken from
    a dedicated page-table :class:`FrameAllocator`, mirroring how an OS
    places page-table pages in physical memory.
    """

    def __init__(self, layout: AddressLayout, pt_allocator: FrameAllocator) -> None:
        self.layout = layout
        #: ``(level, shift, mask)`` per level, root first: radix indexing
        #: inlined on the walk path, where ``layout.level_index`` would
        #: re-check the level on every PTE.
        self._radix = tuple(
            (
                level,
                RADIX_BITS_PER_LEVEL * (level - 1),
                (1 << layout.level_bits(level)) - 1,
            )
            for level in range(layout.levels, 0, -1)
        )
        self._allocator = pt_allocator
        self._frame_cursor: int | None = None
        self._frame_used = 0
        self._node_count = 0
        self._mapped_pages = 0
        self._root = self._new_node()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _new_node(self) -> _Node:
        if self._frame_cursor is None or self._frame_used + NODE_BYTES > self.layout.page_size:
            frame = self._allocator.allocate()
            self._frame_cursor = self.layout.physical_address(frame)
            self._frame_used = 0
        base = self._frame_cursor + self._frame_used
        self._frame_used += NODE_BYTES
        self._node_count += 1
        return _Node(base)

    def map(self, vpn: int, pfn: int) -> None:
        """Install a vpn -> pfn translation, creating intermediate nodes."""
        if vpn > self.layout.max_vpn():
            raise ValueError(f"vpn {vpn:#x} exceeds {self.layout.vpn_bits}-bit space")
        node = self._root
        for _level, shift, mask in self._radix[:-1]:
            index = (vpn >> shift) & mask
            child = node.children.get(index)
            if child is None:
                child = self._new_node()
                node.children[index] = child
            node = child
        leaf_index = vpn & self._radix[-1][2]
        if leaf_index not in node.leaves:
            self._mapped_pages += 1
        node.leaves[leaf_index] = pfn

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def translate(self, vpn: int) -> int:
        """Return the PFN for ``vpn`` or raise :class:`PageFault`."""
        node = self._root
        for level, shift, mask in self._radix[:-1]:
            child = node.children.get((vpn >> shift) & mask)
            if child is None:
                raise PageFault(vpn, level)
            node = child
        leaf_index = vpn & self._radix[-1][2]
        if leaf_index not in node.leaves:
            raise PageFault(vpn, 1)
        return node.leaves[leaf_index]

    def is_mapped(self, vpn: int) -> bool:
        try:
            self.translate(vpn)
        except PageFault:
            return False
        return True

    def unmap(self, vpn: int) -> bool:
        """Invalidate ``vpn``'s leaf PTE (driver eviction / corruption).

        Intermediate nodes stay allocated, exactly like a real driver
        clearing one PTE.  Returns False when the page was not mapped.
        """
        node = self._node_at(vpn, 1)
        if node is None:
            return False
        leaf_index = vpn & self._radix[-1][2]
        if leaf_index not in node.leaves:
            return False
        del node.leaves[leaf_index]
        self._mapped_pages -= 1
        return True

    def walk_path(self, vpn: int, start_level: int | None = None) -> list[WalkStep]:
        """The sequence of PTE reads a walk of ``vpn`` performs.

        Args:
            start_level: level of the first table to consult (a Page Walk
                Cache hit lets walks skip upper levels).  Defaults to the
                root.  The walk reads one PTE at each level from
                ``start_level`` down to 1, stopping early on a fault.
        """
        levels = self.layout.levels
        if start_level is None:
            start_level = levels
        if not 1 <= start_level <= levels:
            raise ValueError(f"start level {start_level} outside table")

        node = self._node_at(vpn, start_level)
        steps: list[WalkStep] = []
        if node is None:
            # The upper path is unmapped; report a fault at the entry level.
            steps.append(
                WalkStep(start_level, self._root.phys_base, 0, False, valid=False)
            )
            return steps

        for level, shift, mask in self._radix[levels - start_level : -1]:
            index = (vpn >> shift) & mask
            address = node.phys_base + index * PTE_BYTES
            child = node.children.get(index)
            if child is None:
                steps.append(WalkStep(level, address, 0, False, valid=False))
                return steps
            steps.append(WalkStep(level, address, child.phys_base, False))
            node = child

        leaf_index = vpn & self._radix[-1][2]
        address = node.phys_base + leaf_index * PTE_BYTES
        pfn = node.leaves.get(leaf_index)
        if pfn is None:
            steps.append(WalkStep(1, address, 0, True, valid=False))
        else:
            steps.append(WalkStep(1, address, pfn, True))
        return steps

    def node_base(self, vpn: int, level: int) -> int | None:
        """Physical base of the table node serving ``vpn`` at ``level``."""
        node = self._node_at(vpn, min(level, self.layout.levels))
        return node.phys_base if node is not None else None

    def _node_at(self, vpn: int, level: int) -> _Node | None:
        node = self._root
        for _level, shift, mask in self._radix[: self.layout.levels - level]:
            node = node.children.get((vpn >> shift) & mask)
            if node is None:
                return None
        return node

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def mapped_pages(self) -> int:
        return self._mapped_pages

    @property
    def node_count(self) -> int:
        return self._node_count

    @property
    def root_base(self) -> int:
        return self._root.phys_base
