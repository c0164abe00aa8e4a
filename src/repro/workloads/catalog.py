"""The Table 4 benchmark catalog.

All 20 workloads of the paper's evaluation, with footprints from
Table 4 and access patterns/compute intensities chosen so the measured
L2 TLB MPKI reproduces the paper's *ordering* (spmv >> gesv > gups >
sy2k > xsb > nw > sssp > dc > bfs > gc > bc > st2d >> regular suite).
``paper_mpki`` / ``paper_required_ptws`` carry the published values for
side-by-side reporting in the Table 4 bench.
"""

from __future__ import annotations

from repro.workloads.spec import IRREGULAR, REGULAR, WorkloadSpec

_SPECS = [
    # ----------------------------- irregular --------------------------
    WorkloadSpec(
        name="betweenness_centrality",
        abbr="bc",
        category=IRREGULAR,
        footprint_mb=1194,
        pattern="power_law",
        pattern_params={"alpha": 1.5, "sequential_fraction": 0.36},
        compute_per_mem=320,
        paper_mpki=9.0819,
        paper_required_ptws=256,
    ),
    WorkloadSpec(
        name="degree_centrality",
        abbr="dc",
        category=IRREGULAR,
        footprint_mb=1138,
        pattern="power_law",
        pattern_params={"alpha": 1.42, "sequential_fraction": 0.22},
        compute_per_mem=150,
        paper_mpki=26.17,
        paper_required_ptws=512,
    ),
    WorkloadSpec(
        name="sssp",
        abbr="sssp",
        category=IRREGULAR,
        footprint_mb=1788,
        pattern="power_law",
        pattern_params={"alpha": 1.4, "sequential_fraction": 0.22},
        compute_per_mem=130,
        paper_mpki=30.2808,
        paper_required_ptws=512,
    ),
    WorkloadSpec(
        name="graph_coloring",
        abbr="gc",
        category=IRREGULAR,
        footprint_mb=1294,
        pattern="power_law",
        pattern_params={"alpha": 1.44, "sequential_fraction": 0.26},
        compute_per_mem=240,
        paper_mpki=13.7029,
        paper_required_ptws=256,
    ),
    WorkloadSpec(
        name="needleman_wunsch",
        abbr="nw",
        category=IRREGULAR,
        footprint_mb=612,
        pattern="diagonal_wavefront",
        pattern_params={"matrix_rows": 24576},
        compute_per_mem=110,
        mem_insts_per_warp=6,
        paper_mpki=44.5329,
        paper_required_ptws=512,
    ),
    WorkloadSpec(
        name="stencil2d",
        abbr="st2d",
        category=IRREGULAR,
        footprint_mb=612,
        pattern="stencil",
        pattern_params={"halo": 1, "row_stride_lines": 8192, "step": 192},
        compute_per_mem=280,
        paper_mpki=4.8493,
        paper_required_ptws=256,
    ),
    WorkloadSpec(
        name="xsbench",
        abbr="xsb",
        category=IRREGULAR,
        footprint_mb=360,
        pattern="table_lookup",
        pattern_params={"tables": 64},
        compute_per_mem=430,
        mem_insts_per_warp=6,
        paper_mpki=57.9595,
        paper_required_ptws=512,
    ),
    WorkloadSpec(
        name="bfs",
        abbr="bfs",
        category=IRREGULAR,
        footprint_mb=1396,
        pattern="power_law",
        pattern_params={"alpha": 1.39, "sequential_fraction": 0.22},
        compute_per_mem=190,
        paper_mpki=22.1519,
        paper_required_ptws=256,
    ),
    WorkloadSpec(
        name="syr2k",
        abbr="sy2k",
        category=IRREGULAR,
        footprint_mb=192,
        pattern="strided",
        pattern_params={"stride_lines": 1664},
        compute_per_mem=160,
        paper_mpki=120.696,
        paper_required_ptws=1024,
    ),
    WorkloadSpec(
        name="spmv",
        abbr="spmv",
        category=IRREGULAR,
        footprint_mb=288,
        pattern="sparse_gather",
        pattern_params={"row_fraction": 0.125},
        compute_per_mem=12,
        mem_insts_per_warp=6,
        paper_mpki=2517.196,
        paper_required_ptws=512,
    ),
    WorkloadSpec(
        name="gesummv",
        abbr="gesv",
        category=IRREGULAR,
        footprint_mb=226,
        pattern="strided",
        pattern_params={"stride_lines": 1280},
        compute_per_mem=22,
        mem_insts_per_warp=6,
        paper_mpki=1320.543,
        paper_required_ptws=512,
    ),
    WorkloadSpec(
        name="gups",
        abbr="gups",
        category=IRREGULAR,
        footprint_mb=308,
        pattern="uniform_random",
        pattern_params={},
        compute_per_mem=95,
        mem_insts_per_warp=6,
        paper_mpki=318.8202,
        paper_required_ptws=1024,
    ),
    # ------------------------------ regular ---------------------------
    WorkloadSpec(
        name="connected_components",
        abbr="cc",
        category=REGULAR,
        footprint_mb=2306,
        pattern="hot_cold",
        pattern_params={"cold_fraction": 0.001, "lanes": 8},
        compute_per_mem=60,
        mem_insts_per_warp=48,
        paper_mpki=0.1309,
    ),
    WorkloadSpec(
        name="kcore",
        abbr="kc",
        category=REGULAR,
        footprint_mb=1152,
        pattern="hot_cold",
        pattern_params={"cold_fraction": 0.004, "lanes": 8},
        compute_per_mem=55,
        mem_insts_per_warp=48,
        paper_mpki=0.5271,
    ),
    WorkloadSpec(
        name="2dconv",
        abbr="2dc",
        category=REGULAR,
        footprint_mb=1120,
        pattern="streaming",
        pattern_params={"lines_per_inst": 4},
        compute_per_mem=45,
        mem_insts_per_warp=48,
        paper_mpki=0.0767,
    ),
    WorkloadSpec(
        name="fft",
        abbr="fft",
        category=REGULAR,
        footprint_mb=610,
        pattern="streaming",
        pattern_params={"lines_per_inst": 8},
        compute_per_mem=60,
        mem_insts_per_warp=48,
        paper_mpki=0.077,
    ),
    WorkloadSpec(
        name="histogram",
        abbr="histo",
        category=REGULAR,
        footprint_mb=1124,
        pattern="hot_cold",
        pattern_params={"cold_fraction": 0.001, "lanes": 4},
        compute_per_mem=40,
        mem_insts_per_warp=48,
        paper_mpki=0.0976,
    ),
    WorkloadSpec(
        name="reduction",
        abbr="red",
        category=REGULAR,
        footprint_mb=1124,
        pattern="streaming",
        pattern_params={"lines_per_inst": 8},
        compute_per_mem=30,
        mem_insts_per_warp=48,
        paper_mpki=0.3383,
    ),
    WorkloadSpec(
        name="scan",
        abbr="scan",
        category=REGULAR,
        footprint_mb=516,
        pattern="streaming",
        pattern_params={"lines_per_inst": 4},
        compute_per_mem=30,
        mem_insts_per_warp=48,
        paper_mpki=0.1458,
    ),
    WorkloadSpec(
        name="gemm",
        abbr="gemm",
        category=REGULAR,
        footprint_mb=288,
        pattern="streaming",
        pattern_params={"lines_per_inst": 4},
        compute_per_mem=80,
        mem_insts_per_warp=48,
        paper_mpki=0.0614,
    ),
]

CATALOG: dict[str, WorkloadSpec] = {spec.abbr: spec for spec in _SPECS}

#: Paper ordering for result tables.
ALL_ABBRS = [spec.abbr for spec in _SPECS]
IRREGULAR_ABBRS = [s.abbr for s in _SPECS if s.category == IRREGULAR]
REGULAR_ABBRS = [s.abbr for s in _SPECS if s.category == REGULAR]

#: The 10 workloads whose footprints scale beyond the 2MB-page L2 TLB
#: coverage (used for Figures 6 and 25).
SCALABLE_ABBRS = ["sssp", "nw", "xsb", "bfs", "sy2k", "spmv", "gesv", "gups", "dc", "gc"]


def get_spec(abbr: str) -> WorkloadSpec:
    try:
        return CATALOG[abbr]
    except KeyError:
        raise ValueError(f"unknown benchmark {abbr!r}; known: {ALL_ABBRS}") from None
