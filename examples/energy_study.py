#!/usr/bin/env python3
"""Energy of walker scaling vs SoftWalker (the Section 5.3 power story).

Scaling hardware PTWs scales the PWB and L2 TLB MSHR CAMs with them, and
every CAM search touches every entry — so the *per-walk* search energy
grows with the scaling factor.  SoftWalker spends pipeline energy on PW
warp instructions instead, which stays flat.

Usage:
    python examples/energy_study.py [benchmark] [scale]
"""

import sys

from repro import Runner, baseline_config, softwalker_config
from repro.analysis.energy import energy_report, translation_energy_per_walk
from repro.analysis.report import format_table
from repro.harness.experiments import scaled_ptw_config


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "gups"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.5

    configs = {
        "baseline (32 PTWs)": baseline_config(),
        "128 PTWs": scaled_ptw_config(128),
        "512 PTWs": scaled_ptw_config(512),
        "SoftWalker": softwalker_config(),
    }
    base = Runner().run(baseline_config(), benchmark, scale=scale)

    rows = []
    for label, config in configs.items():
        result = Runner().run(config, benchmark, scale=scale)
        report = energy_report(result, config)
        rows.append(
            [
                label,
                f"{result.speedup_over(base):.2f}x",
                f"{translation_energy_per_walk(report, result.walks_completed):.1f}",
                f"{report.fraction('l2_tlb_mshr') + report.fraction('pwb'):.0%}",
                f"{report.fraction('pw_warp_pipeline'):.0%}",
            ]
        )
    print(
        format_table(
            ["configuration", "speedup", "nJ / walk", "CAM search share", "PW pipeline share"],
            rows,
            title=f"Translation-path energy on '{benchmark}'",
        )
    )
    print(
        "\nCAM search energy balloons as walkers (and their CAMs) scale;\n"
        "SoftWalker converts that into modest SM pipeline energy instead."
    )


if __name__ == "__main__":
    main()
