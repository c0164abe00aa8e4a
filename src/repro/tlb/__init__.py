"""TLB substrate: TLB arrays, MSHR files, page walk cache, speculation."""

from repro.tlb.coalesced import CoalescedTLB
from repro.tlb.speculation import ContiguityPredictor
from repro.tlb.mshr import MSHRFile
from repro.tlb.pwc import PageWalkCache
from repro.tlb.tlb import TLB

__all__ = [
    "CoalescedTLB",
    "ContiguityPredictor",
    "MSHRFile",
    "PageWalkCache",
    "TLB",
]
