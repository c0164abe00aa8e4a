#!/usr/bin/env python3
"""Trace walkthrough: record one run and fold the trace back into numbers.

Runs a benchmark with full observability — request-lifecycle tracing
plus periodically sampled gauges — then shows the three things a trace
is for:

1. **Visual inspection**: writes Chrome trace JSON you can open in
   ``chrome://tracing`` or https://ui.perfetto.dev to watch every walk
   move through SM -> L2 TLB -> PWB/distributor -> walker -> memory.
2. **Breakdown reconstruction**: sums the nested per-walk component
   spans and checks they reproduce the LatencyTracker aggregates the
   paper's Figure 7 reports (they match exactly, by construction).
3. **Time series**: prints the sampled queue-depth/occupancy gauges
   that explain *when* the queueing happened, not just how much.

Usage:
    python examples/trace_walkthrough.py [benchmark] [scale] [outdir]
"""

import sys
from pathlib import Path

from repro import Observability, Runner, softwalker_config
from repro.obs import WALK_COMPONENTS, validate_chrome_trace


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "gups"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.1
    outdir = Path(sys.argv[3]) if len(sys.argv) > 3 else Path(".")

    obs = Observability.full(interval=1000)
    print(f"Simulating '{benchmark}' (scale {scale}) with tracing on ...")
    result = Runner().run(softwalker_config(), benchmark, scale=scale, obs=obs)

    # 1. Export (validated first: an unloadable trace helps nobody).
    validate_chrome_trace(obs.trace.chrome_trace())
    trace_path = obs.trace.write_chrome(outdir / f"{benchmark}.trace.json")
    metrics_path = obs.metrics.write_json(outdir / f"{benchmark}.metrics.json")
    print(f"  {obs.trace.num_events:,} events -> {trace_path}")
    print(f"  {obs.metrics.samples_taken} samples -> {metrics_path}")

    # 2. Trace-derived breakdown vs the aggregate the simulator kept.
    spans = obs.trace.span_durations("walk.")
    tracker = result.stats.latency("walk")
    total = sum(spans.values())
    print("\nwalk latency breakdown (share of total walk cycles):")
    print(f"  {'component':<14} {'from trace':>10} {'aggregate':>10}")
    for component in WALK_COMPONENTS:
        from_trace = spans.get(f"walk.{component}", 0) / total if total else 0.0
        aggregate = tracker.component_shares().get(component, 0.0)
        print(f"  {component:<14} {from_trace:>10.1%} {aggregate:>10.1%}")

    # 3. The sampled gauges behind the queueing story.
    print("\nsampled gauges (mean / peak):")
    for name in ("distributor.in_flight", "l2tlb.mshr_occupancy", "l2tlb.hit_rate"):
        print(
            f"  {name:<24} {obs.metrics.mean(name):>10.2f} "
            f"/ {obs.metrics.peak(name):.2f}"
        )

    print(f"\nopen {trace_path} in chrome://tracing or https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
