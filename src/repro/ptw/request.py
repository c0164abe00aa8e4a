"""Page-walk request: the unit of work flowing from the L2 TLB to walkers."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(eq=False)
class WalkRequest:
    """One outstanding page table walk.

    Created by the L2 TLB controller on a tracked miss, after the Page
    Walk Cache probe decided the starting level (the Request Distributor
    "consults the PWC before dispatching page walk requests").

    Equality is identity: two live walks of the same VPN are still two
    walks, and ``list.remove`` on an owner's request list must take out
    the object that finished, not the first field-equal one.
    """

    vpn: int
    #: Cycle the L2 TLB miss was ready to be walked (end of L2 lookup).
    enqueue_time: int
    #: Level of the first page table node to read (root if PWC missed).
    start_level: int
    #: Physical base address of that node.
    node_base: int
    #: SM whose L1 TLB miss triggered the walk (the first requester).
    #: Warp-aware PWB scheduling (ref [85]) batches on this.
    requester_sm: int = -1
    #: VPNs coalesced onto this walk by NHA (excluding ``vpn`` itself).
    merged_vpns: list[int] = field(default_factory=list)
    #: Latency components filled in as the walk progresses.
    queueing: int = 0
    access: int = 0
    communication: int = 0
    execution: int = 0
    #: True when the walk hit an invalid PTE (page fault).
    faulted: bool = False
    fault_level: int = 0
    #: Async-span id following this walk through the trace (0 = untraced).
    trace_id: int = 0

    def all_vpns(self) -> list[int]:
        return [self.vpn, *self.merged_vpns]
