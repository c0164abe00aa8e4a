#!/usr/bin/env python3
"""Bring your own workload: define a spec, sweep the design space.

Shows the extension points a downstream user needs: a custom
:class:`~repro.WorkloadSpec` built on the pattern library, plus
configuration derivation (`with_ptw`, `with_softwalker`, `derive`) to
sweep hardware-walker counts against SoftWalker variants.

Usage:
    python examples/custom_workload.py
"""

from repro import GPUConfig, Runner, WorkloadSpec, baseline_config, softwalker_config
from repro.analysis.report import format_table

# A hash-join probe phase: one side streamed, the other side probed at
# random — somewhere between spmv and gups in translation behaviour.
HASH_JOIN = WorkloadSpec(
    name="hash_join_probe",
    abbr="hjoin",
    category="irregular",
    footprint_mb=512,
    pattern="sparse_gather",
    pattern_params={"row_fraction": 0.25},
    compute_per_mem=48,
    warps_per_sm=8,
    mem_insts_per_warp=6,
)


def sweep() -> list[list]:
    base = Runner().run(baseline_config(), HASH_JOIN, scale=0.5)
    rows = [["baseline (32 PTWs)", base.cycles, "1.00x", f"{base.queueing_fraction:.0%}"]]

    candidates: dict[str, GPUConfig] = {
        "128 hardware PTWs": baseline_config().with_ptw(num_walkers=128, pwb_entries=256),
        "SoftWalker (no In-TLB)": softwalker_config(in_tlb_mshr_entries=0),
        "SoftWalker": softwalker_config(),
        "SoftWalker hybrid": softwalker_config(hybrid=True),
    }
    for label, config in candidates.items():
        result = Runner().run(config, HASH_JOIN, scale=0.5)
        rows.append(
            [
                label,
                result.cycles,
                f"{result.speedup_over(base):.2f}x",
                f"{result.queueing_fraction:.0%}",
            ]
        )
    return rows


def main() -> None:
    print(f"workload: {HASH_JOIN.name} ({HASH_JOIN.footprint_mb} MB footprint)\n")
    print(
        format_table(
            ["configuration", "cycles", "speedup", "walk queueing share"],
            sweep(),
            title="Design-space sweep for a custom workload",
        )
    )


if __name__ == "__main__":
    main()
