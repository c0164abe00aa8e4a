"""Declared totals: counters read as sums of the counters components bump.

A component declares a total (``Counter.declare_total``) instead of
bumping it on the path that bumps its parts.  The table below is this
file's own statement of every declared total; each run checks the
totals the machine reports against sums of the *bumped* counters (the
``live()`` mapping, which holds no total), mid-run through a metrics
gauge and at the end, so a declaration that drops or adds a part fails
here.  ``tests/test_memory_models.py`` and
``tests/test_walkpath_models.py`` still count every total explicitly in
their reference models.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import DEFAULT_CONFIGS
from repro.gpu.gpu import GPUSimulator
from repro.harness.runner import build_workload
from repro.obs import MetricsRegistry, Observability
from repro.sim.stats import Counter, StatsRegistry
from repro.tlb.tlb import TLB

_L1D = ("l1d.hits", "l1d.merges", "l1d.misses", "l1d.sector_misses")
_L2D = ("l2d.hits", "l2d.merges", "l2d.misses", "l2d.sector_misses")

#: Declared total -> (bumped counters added, bumped counters subtracted).
TOTALS = {
    "l1tlb.lookups": (("l1tlb.hits", "l1tlb.misses"), ()),
    "l2tlb.lookups": (("l2tlb.hits", "l2tlb.misses"), ()),
    "l1d.accesses": (_L1D, ()),
    "l2d.accesses": (_L2D, ()),
    "pwc.probes": (("pwc.hits", "pwc.root_fallbacks"), ()),
    "l1tlb.mshr_failures": (("l1tlb.mshr.full", "l1tlb.mshr.merge_full"), ()),
    "mem.data_accesses": (_L1D, ()),
    "mem.pte_accesses": (_L2D, ("l1d.misses", "l1d.sector_misses")),
}


def expected_total(live: dict[str, int], name: str) -> int:
    plus, minus = TOTALS[name]
    return sum(live.get(part, 0) for part in plus) - sum(
        live.get(part, 0) for part in minus
    )


def point(config_name: str, benchmark: str, scale: float, **changes):
    config = DEFAULT_CONFIGS.get(config_name)
    if "l1_mshr_merges" in changes:
        merges = changes.pop("l1_mshr_merges")
        changes["l1_tlb"] = dataclasses.replace(config.l1_tlb, mshr_merges=merges)
    config = dataclasses.replace(config, **changes)
    return config, build_workload(benchmark, config, scale=scale, seed=3)


POINTS = {
    # L1 TLB and L1D hits (a regular workload).
    "baseline/cc": ("baseline", "cc", 0.05, {}),
    # The SoftWalker walk path: PWC probes, PTE reads, L1 MSHR refusals.
    "softwalker/gups": ("softwalker", "gups", 0.02, {}),
    # Coalesced L2 TLB, refused L1 MSHR merges, L1D merges.
    "hybrid/sssp/span4": (
        "hybrid",
        "sssp",
        0.02,
        {"tlb_coalescing_span": 4, "l1_mshr_merges": 2},
    ),
}


class TestDeclaredTotalsInARun:
    @pytest.mark.parametrize("label", sorted(POINTS))
    def test_totals_are_sums_mid_run_and_at_the_end(self, label):
        config_name, benchmark, scale, changes = POINTS[label]
        config, workload = point(config_name, benchmark, scale, **changes)
        obs = Observability(metrics=MetricsRegistry(), sample_interval=500)
        sim = GPUSimulator(config, workload, obs=obs)
        counters = sim.stats.counters
        live = counters.live()
        for name in TOTALS:
            obs.metrics.register_gauge(
                f"gap.{name}",
                lambda name=name: counters.get(name) - expected_total(live, name),
            )
        result = sim.run()

        assert obs.metrics.samples_taken > 10
        for name in TOTALS:
            gaps = {value for _cycle, value in obs.metrics.series(f"gap.{name}")}
            assert gaps == {0.0}, name
        final = result.stats.counters.as_dict()
        for name in TOTALS:
            value = expected_total(live, name)
            assert value >= 0, name
            # A total is absent while it is zero, like a counter never bumped.
            assert final.get(name) == (value or None), name
            assert name not in live, f"{name} is bumped, not declared"
        # The run moved the totals it is here for.
        assert final["l1tlb.lookups"] and final["l2d.accesses"]

    def test_every_part_moves_in_some_run(self):
        """Each part of the table is nonzero in at least one point, so
        dropping it from a declaration changes a total above.  L1D
        sector misses are the exception: warps read whole lines at
        offset 0, so only the memory models reach them."""
        moved = set()
        for config_name, benchmark, scale, changes in POINTS.values():
            config, workload = point(config_name, benchmark, scale, **changes)
            sim = GPUSimulator(config, workload)
            sim.run()
            moved |= {name for name, value in sim.stats.counters.live().items() if value}
        parts = {part for plus, minus in TOTALS.values() for part in plus + minus}
        assert parts - moved == {"l1d.sector_misses"}


class TestDeclaredTotalUnits:
    def test_absent_while_zero_then_summed(self):
        stats = StatsRegistry()
        tlb = TLB(DEFAULT_CONFIGS.get("baseline").l1_tlb, stats, name="l1tlb")
        assert "l1tlb.lookups" not in stats.counters.as_dict()
        assert stats.counters.get("l1tlb.lookups") == 0
        tlb.lookup(7)
        tlb.fill(7, 70)
        tlb.lookup(7)
        assert stats.counters.as_dict()["l1tlb.lookups"] == 2
        assert stats.counters.get("l1tlb.lookups") == 2
        assert tlb.hit_rate() == 0.5

    def test_round_trip_keeps_the_value(self):
        counter = Counter()
        counter.declare_total("t.total", ("t.a", "t.b"), minus=("t.c",))
        counter.add("t.a", 5)
        counter.add("t.b", 3)
        counter.add("t.c", 2)
        assert counter.get("t.total") == 6
        restored = Counter.from_dict(counter.to_dict())
        assert restored.get("t.total") == 6
        assert restored.as_dict() == counter.as_dict()

        registry = StatsRegistry()
        registry.counters = counter
        assert StatsRegistry.from_dict(registry.to_dict()).counters.get("t.total") == 6

    def test_totals_nest(self):
        counter = Counter()
        counter.declare_total("inner", ("a", "b"))
        counter.declare_total("outer", ("inner",), minus=("c",))
        counter.add("a", 4)
        counter.add("b", 1)
        counter.add("c", 2)
        assert counter.as_dict() == {"a": 4, "b": 1, "c": 2, "inner": 5, "outer": 3}

    def test_redeclaring_otherwise_or_declaring_a_bumped_counter_is_refused(self):
        counter = Counter()
        counter.declare_total("t", ("a", "b"))
        counter.declare_total("t", ("a", "b"))  # another instance, same rule
        with pytest.raises(ValueError, match="declared otherwise"):
            counter.declare_total("t", ("a",))
        counter.add("bumped")
        with pytest.raises(ValueError, match="is bumped"):
            counter.declare_total("bumped", ("a",))
