#!/usr/bin/env python3
"""Quickstart: baseline hardware walkers vs SoftWalker on one workload.

Runs the GUPS random-update benchmark (the paper's most
translation-hostile regular-structure workload) under the baseline
32-PTW GPU and under SoftWalker, then prints the speedup and the
page-walk latency breakdown that explains it.

Usage:
    python examples/quickstart.py [benchmark] [scale]
"""

import sys

from repro import Runner, baseline_config, softwalker_config


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "gups"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.5

    print(f"Simulating '{benchmark}' (trace scale {scale}) ...")
    base = Runner().run(baseline_config(), benchmark, scale=scale)
    soft = Runner().run(softwalker_config(), benchmark, scale=scale)

    print(f"\nbaseline:   {base.cycles:>10,} cycles")
    print(f"SoftWalker: {soft.cycles:>10,} cycles")
    print(f"speedup:    {soft.speedup_over(base):>10.2f}x")

    print("\npage-walk latency (mean cycles per walk):")
    for label, result in (("baseline", base), ("SoftWalker", soft)):
        tracker = result.stats.latency("walk")
        print(
            f"  {label:<11} total={tracker.mean_total:8.0f}  "
            f"queueing={tracker.component_mean('queueing'):8.0f}  "
            f"access={tracker.component_mean('access'):6.0f}  "
            f"overhead={result.walk_overhead:6.0f}"
        )

    reduction = 1 - soft.walk_latency / base.walk_latency
    print(f"\nwalk latency reduced by {reduction:.1%} "
          f"(paper: 72.8% on average)")
    print(f"L2 TLB MSHR failures: {base.mshr_failures:,} -> {soft.mshr_failures:,}")


if __name__ == "__main__":
    main()
