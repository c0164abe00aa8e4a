#!/usr/bin/env python3
"""Interleaved benchmark pairs: a parent checkout against a change.

Runs ``perfbench/run.py`` N times in each of two checkouts, alternating
which side runs first (the parent on odd pairs), and prints for every
metric each side's median and quartiles, how many pairs the change won
(ties count for neither side), and the gain verdict: the change wins at
least nine pairs in ten and the medians differ, in the change's favour,
by more than the distance between the parent's quartiles.  Metrics
with a ``bound`` in the change's ``BENCHMARK.json`` also show whether
the change's median is worse than the parent's by more than it.  Every
run's ``correct`` flag and ``failed`` count are printed as it finishes.

Usage:
    python3 tools/perf_pairs.py PARENT_DIR CHANGE_DIR --workload regular-sweep \\
        --seed 1 --pairs 10 [--trace 0] [--log runs.jsonl]

Each run lasts as long as perfbench's own run length, the same on both sides.

Stdlib only; it reads perfbench's last output line and edits nothing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

#: The verdict's win share: at least nine pairs in ten.
WIN_SHARE = 0.9


@dataclass(frozen=True)
class Summary:
    """One metric over every pair."""

    name: str
    better: str
    parent: tuple[float, float, float]  # q1, median, q3
    change: tuple[float, float, float]
    wins: int
    pairs: int
    bound: float | None

    @property
    def gap(self) -> float:
        """How far the change's median is better than the parent's
        (negative when worse)."""
        gap = self.change[1] - self.parent[1]
        return gap if self.better == "higher" else -gap

    @property
    def parent_iqr(self) -> float:
        return self.parent[2] - self.parent[0]

    @property
    def gain(self) -> bool:
        """Section 8 of the metrics guide: 9/10 wins and a gap past the IQR."""
        return (
            self.pairs > 0
            and self.wins >= WIN_SHARE * self.pairs
            and self.gap > self.parent_iqr
        )

    @property
    def beyond_bound(self) -> bool | None:
        """Whether the change's median is worse than the parent's by more
        than ``bound`` of the parent's median; None without a bound."""
        if self.bound is None:
            return None
        return -self.gap > self.bound * abs(self.parent[1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; one value is all three."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def parse_result(stdout: str) -> dict:
    """perfbench's result: the JSON object on the last non-empty line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def metric_directions(benchmark: dict) -> dict[str, tuple[str, float | None]]:
    """Metric name -> (``better``, ``bound`` or None) from BENCHMARK.json."""
    directions = {}
    for key in ("end_to_end", "per_layer"):
        for metric in benchmark.get(key, []):
            directions[metric["name"]] = (metric["better"], metric.get("bound"))
    return directions


def summarise(
    pairs: list[tuple[dict, dict]], directions: dict[str, tuple[str, float | None]]
) -> list[Summary]:
    """One :class:`Summary` per metric both sides report in every pair,
    in the order the first parent result lists them."""
    if not pairs:
        return []
    summaries = []
    for name in pairs[0][0]["metrics"]:
        if name not in directions:
            continue
        if not all(name in p["metrics"] and name in c["metrics"] for p, c in pairs):
            continue
        better, bound = directions[name]
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        if better == "higher":
            wins = sum(c > p for p, c in zip(parent, change))
        else:
            wins = sum(c < p for p, c in zip(parent, change))
        summaries.append(
            Summary(
                name, better, quartiles(parent), quartiles(change), wins,
                len(pairs), bound,
            )
        )
    return summaries


def format_table(summaries: list[Summary]) -> str:
    rows = [
        f"{'metric':<24} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} "
        f"{'delta':>8} {'wins':>6}  verdict"
    ]
    for s in summaries:
        delta = (s.change[1] / s.parent[1] - 1) * 100 if s.parent[1] else 0.0
        verdict = "gain" if s.gain else "no gain"
        beyond = s.beyond_bound
        if beyond is not None:
            verdict += f", {'BEYOND' if beyond else 'within'} bound {s.bound:g}"
        rows.append(
            f"{s.name:<24} {'/'.join(f'{v:.4g}' for v in s.parent):>30} "
            f"{'/'.join(f'{v:.4g}' for v in s.change):>30} "
            f"{delta:>+7.1f}% {s.wins:>3}/{s.pairs:<2}  {verdict}"
        )
    return "\n".join(rows)


def run_side(checkout: Path, args: argparse.Namespace) -> dict:
    command = [
        sys.executable, "perfbench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--trace", str(args.trace),
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(
            f"perfbench failed in {checkout} ({done.returncode}):\n{done.stderr}"
        )
    return parse_result(done.stdout)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--log", type=Path, help="append every result line here")
    args = parser.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    directions = metric_directions(benchmark)
    pairs = []
    for index in range(1, args.pairs + 1):
        order = ("parent", "change") if index % 2 else ("change", "parent")
        results = {}
        for side in order:
            result = run_side(getattr(args, side), args)
            results[side] = result
            print(
                f"pair {index} {side:<6} correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']}",
                flush=True,
            )
            if args.log:
                with args.log.open("a") as log:
                    record = {"pair": index, "side": side, "workload": args.workload,
                              "seed": args.seed, "result": result}
                    log.write(json.dumps(record) + "\n")
        pairs.append((results["parent"], results["change"]))
    print(f"== {args.workload} seed {args.seed}, {len(pairs)} pairs, "
          f"--trace {args.trace}")
    print(format_table(summarise(pairs, directions)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
