"""Workload specification: one Table 4 row, with no trace machinery.

:class:`WorkloadSpec` lives apart from :mod:`repro.workloads.base` so
the catalog (and the CLI parser that offers its benchmark names) loads
without numpy or the machine model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.config import MB

IRREGULAR = "irregular"
REGULAR = "regular"


@dataclass(frozen=True)
class WorkloadSpec:
    """Static description of one benchmark (one Table 4 row)."""

    name: str
    abbr: str
    category: str
    #: Memory footprint in MB (Table 4).
    footprint_mb: int
    #: Access pattern generator name (see ``repro.workloads.patterns``).
    pattern: str
    #: Pattern keyword arguments.
    pattern_params: dict[str, Any] = field(default_factory=dict)
    #: Compute cycles issued between memory instructions.
    compute_per_mem: int = 40
    #: Concurrent warps per SM the kernel sustains.
    warps_per_sm: int = 8
    #: Memory instructions per warp at scale 1.0.
    mem_insts_per_warp: int = 8
    #: Paper-reported L2 TLB MPKI (Table 4), for shape comparison.
    paper_mpki: float = 0.0
    #: Paper-reported required number of PTWs (Table 4).
    paper_required_ptws: int = 32

    def __post_init__(self) -> None:
        if self.category not in (IRREGULAR, REGULAR):
            raise ValueError(f"category must be irregular/regular, got {self.category!r}")
        if self.footprint_mb <= 0:
            raise ValueError("footprint must be positive")

    @property
    def is_irregular(self) -> bool:
        return self.category == IRREGULAR

    def footprint_lines(self, footprint_scale: float = 1.0) -> int:
        from repro.gpu.warp import LINE_BYTES

        return max(1, int(self.footprint_mb * footprint_scale) * MB // LINE_BYTES)
