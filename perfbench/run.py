"""The repository benchmark: host time of the simulator, end to end and per layer.

    python3 perfbench/run.py --workload irregular-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --write-benchmark-json  # regenerate BENCHMARK.json

Each workload runs in its own fresh child process (``child.py``), so
set-up time and peak RSS belong to that workload alone.  Two more
set-up-only children give ``setup_s`` as a median of three.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import catalog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Wall-clock limits on the measuring child and on a set-up-only child;
#: a whole run must end within 180 s.
CHILD_TIMEOUT = 130.0
SETUP_TIMEOUT = 20.0
SETUP_SAMPLES = 3


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_child(args: list[str], timeout: float = CHILD_TIMEOUT) -> dict:
    """Run ``child.py`` in a fresh process; returns its JSON report."""
    spawned_at = time.monotonic()
    # A session of its own, so a timeout also takes down the daemon and
    # job workers a service child started.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args, "--spawned-at", repr(spawned_at)],
        env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:  # timeout, ^C or SIGTERM: stop the whole session
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    report = run_child(common + ["--seconds", str(seconds), "--trace", str(trace)])
    setups = [report["setup_s"]]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(run_child(common + ["--setup-only"], timeout=SETUP_TIMEOUT)["setup_s"])
    report["notes"].append(
        "setup_s is the median of " + ", ".join(f"{s:.3f}" for s in setups)
        + " host s, times the run's host-speed scale"
    )
    if not trace:
        # The set-ups run too briefly to time the kernel around them; the
        # measuring run's scale is the nearest reading of the host's speed.
        report["metrics"]["setup_s"] = statistics.median(setups) * report["host_scale"]
    return report


def print_report(report: dict, trace: int) -> None:
    table = catalog.PER_LAYER if trace else catalog.END_TO_END
    print(f"== {report['workload']} ({'traced, per layer' if trace else 'end to end'})")
    for metric in table:
        value = report["metrics"][metric.name]
        print(f"  {metric.name:<26} {value:>14.6g} {metric.unit:<7} ({metric.better} is better)")
    attempted, failed = report["attempted"], report["failed"]
    print(f"  {'fail_ratio':<26} {failed / attempted if attempted else 1.0:>14.6g} ratio   "
          f"({failed} failed of {attempted} attempted)")
    for note in report["notes"]:
        print(f"  {note}")
    for problem in report["problems"]:
        print(f"  FAILED {problem}")


def result_line(reports: list[dict], trace: int) -> dict:
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    table = catalog.PER_LAYER if trace else catalog.END_TO_END
    metrics = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else report["workload"] + "."
        for metric in table:
            metrics[prefix + metric.name] = {
                "value": report["metrics"][metric.name], "unit": metric.unit,
            }
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *catalog.WORKLOADS])
    parser.add_argument("--seed", type=int, default=catalog.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json from catalog.py and exit")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so run_child can stop its child session.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.write_benchmark_json:
        text = json.dumps(catalog.benchmark_manifest(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2

    names = list(catalog.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reports = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    except (RuntimeError, subprocess.TimeoutExpired) as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    for report in reports:
        print_report(report, args.trace)
    print(json.dumps(result_line(reports, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
