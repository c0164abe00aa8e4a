#!/usr/bin/env python3
"""Graph analytics under translation pressure.

The paper's motivating domain: graph workloads (bfs, sssp, dc) touch
power-law-distributed vertices scattered across a >1GB footprint, so a
single warp instruction can need dozens of distinct page translations.
This example compares every technique of Figure 16 on the three graph
kernels and reports where the cycles went.

Usage:
    python examples/graph_analytics.py [scale]
"""

import sys

from repro import (
    Runner,
    baseline_config,
    ideal_config,
    nha_config,
    softwalker_config,
)
from repro.analysis.report import format_table

GRAPH_KERNELS = ["bfs", "sssp", "dc"]


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5
    configs = {
        "NHA": nha_config(),
        "SW w/o In-TLB": softwalker_config(in_tlb_mshr_entries=0),
        "SoftWalker": softwalker_config(),
        "Hybrid": softwalker_config(hybrid=True),
        "Ideal": ideal_config(),
    }

    rows = []
    for kernel in GRAPH_KERNELS:
        base = Runner().run(baseline_config(), kernel, scale=scale)
        row = [kernel, f"{base.l2_tlb_mpki:.1f}", f"{base.queueing_fraction:.0%}"]
        for config in configs.values():
            result = Runner().run(config, kernel, scale=scale)
            row.append(f"{result.speedup_over(base):.2f}x")
        rows.append(row)

    print(
        format_table(
            ["kernel", "L2 TLB MPKI", "queueing share"] + list(configs),
            rows,
            title="Graph analytics: speedup over the 32-PTW baseline",
        )
    )
    print(
        "\nTakeaway: queueing delay dominates the baseline's walk latency;\n"
        "software walkers remove it and land close to the ideal design."
    )


if __name__ == "__main__":
    main()
