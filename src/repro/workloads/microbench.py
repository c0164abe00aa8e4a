"""The Figure 4 microbenchmark: tunable concurrent page walks.

The paper probes a real A2000 with warps of one active thread, each
touching a distinct cache line (one per page), and measures how memory
latency grows with the number of concurrent page walks — the signature
of PTW contention.  This module builds the same experiment for the
simulator: ``concurrency`` single-lane warps, each cycling through its
own set of far-apart pages so every access needs a fresh walk.
"""

from __future__ import annotations

from repro.config import GPUConfig
from repro.workloads.base import IRREGULAR, TraceWorkload, WorkloadSpec


def microbench_spec(
    concurrency: int, *, warps_per_sm: int = 1, accesses_per_warp: int = 8
) -> WorkloadSpec:
    """One warp per concurrent walk; every access touches a new page."""
    if concurrency < 1:
        raise ValueError("need at least one concurrent walk")
    return WorkloadSpec(
        name=f"microbench_{concurrency}",
        abbr=f"ubench{concurrency}",
        category=IRREGULAR,
        footprint_mb=2048,
        pattern="strided",
        # One lane; each access strides just past a page so no TLB reuse.
        pattern_params={"stride_lines": 512 + 7, "lanes": 1},
        compute_per_mem=2,
        warps_per_sm=warps_per_sm,
        mem_insts_per_warp=accesses_per_warp,
        paper_mpki=0.0,
    )


class MicrobenchWorkload(TraceWorkload):
    """Spread ``concurrency`` single-thread warps over the SMs."""

    def __init__(self, config: GPUConfig, concurrency: int, **kwargs) -> None:
        self.concurrency = concurrency
        warps_per_sm = -(-concurrency // config.num_sms)
        spec = microbench_spec(concurrency, warps_per_sm=warps_per_sm)
        super().__init__(spec, config, **kwargs)

    def _generate(self):  # type: ignore[override]
        # Keep exactly `concurrency` warps, interleaved across SMs so
        # pressure spreads like the paper's one-warp-per-block launch.
        num_sms = self.config.num_sms
        for sm_id, sm_traces in enumerate(super()._generate()):
            yield [
                trace
                for warp_index, trace in enumerate(sm_traces)
                if warp_index * num_sms + sm_id < self.concurrency
            ]
