#!/usr/bin/env python3
"""Executed bytecodes per ``repro`` package for one simulation point.

Builds one point (config, benchmark, scale, seed) untraced, then runs
its event loop under ``sys.settrace`` with opcode events on and counts
every bytecode the interpreter executes, grouped by the ``repro``
package whose source it belongs to (``sim``, ``memory``, ``tlb``, ...;
code outside ``repro`` is ``other``).  C functions (``heapq``, dict and
list methods) execute no bytecode and count nothing.

Usage:
    python3 tools/bytecodes.py softwalker gups --scale 0.1 [--seed 1]

The count is a property of the program, not of the host: it repeats
exactly, run after run, so two commits can be compared on it layer by
layer even where wall-clock timings drift.  It is a count, not a
speed-up: a bytecode's cost varies by kind, and the loop's C work is
not in it.  Tracing slows the loop by one to two orders of magnitude.

Stdlib only; it writes nothing.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def package_of(filename: str) -> str:
    """The ``repro`` subpackage a source file belongs to, or ``other``."""
    parts = Path(filename).parts
    if "repro" not in parts:
        return "other"
    inside = parts[len(parts) - parts[::-1].index("repro") :]
    return inside[0] if len(inside) > 1 else "repro"


def count_loop(config_name: str, benchmark: str, scale: float, seed: int):
    """Run one point's event loop traced; returns (per-package opcode
    counts, events processed)."""
    from repro.config import DEFAULT_CONFIGS
    from repro.gpu.gpu import GPUSimulator
    from repro.harness.runner import build_workload

    config = DEFAULT_CONFIGS.get(config_name)
    sim = GPUSimulator(config, build_workload(benchmark, config, scale=scale, seed=seed))
    per_code: Counter = Counter()

    def local(frame, event, _arg):
        if event == "opcode":
            per_code[frame.f_code] += 1
        return local

    def on_call(frame, _event, _arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        sim.run()
    finally:
        sys.settrace(None)
    per_package: Counter = Counter()
    for code, count in per_code.items():
        per_package[package_of(code.co_filename)] += count
    return per_package, sim.engine.events_processed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", help="config name, e.g. softwalker")
    parser.add_argument("benchmark", help="benchmark name, e.g. gups")
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))

    per_package, events = count_loop(args.config, args.benchmark, args.scale, args.seed)
    total = sum(per_package.values())
    print(
        f"{args.config}/{args.benchmark}/x{args.scale:g}/seed{args.seed}: "
        f"{events} events, {total} bytecodes ({total / max(events, 1):.1f} per event)"
    )
    print(f"{'package':<12} {'bytecodes':>12} {'share':>7}")
    for package, count in per_package.most_common():
        print(f"{package:<12} {count:>12} {count / total:>7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
