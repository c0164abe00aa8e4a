"""Discrimination self-check: the benchmark must see a walk-path slowdown
where walks dominate and nowhere else.

The *molasses* plugin (``examples/plugins/slow_backend.py``) in hijack
mode sleeps on the host once per page walk and changes no simulated
result.  ``irregular-sweep`` (thousands of walks per job) must then read
slower than its ``wall_s`` bound allows, ``regular-sweep`` (about a
hundred walks per job) must stay within its bound, and no output check
may fail, since every fingerprint is unchanged.  Plain and molasses runs
alternate, three of each per workload, and their medians are compared.

    python3 -m pytest perfbench/test_selfcheck.py -s   # about four minutes
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402

PLUGIN = ROOT / "examples" / "plugins" / "slow_backend.py"
#: Lets the example's hijack wrapper serve hybrid configs (see its docstring).
FORWARD = HERE / "molasses_forward.py"
#: Host seconds slept per walk (``time.sleep`` adds the timer slack):
#: roughly +50% on irregular-sweep and +2% on regular-sweep.
DELAY = "0.00003"
SECONDS = "10"
PAIRS = 3


def wall_s(workload: str, molasses: bool) -> float:
    env = dict(os.environ)
    for name in ("REPRO_PLUGINS", "REPRO_MOLASSES_HIJACK", "REPRO_MOLASSES_DELAY"):
        env.pop(name, None)
    if molasses:
        env.update(
            REPRO_PLUGINS=os.pathsep.join((str(PLUGIN), str(FORWARD))),
            REPRO_MOLASSES_HIJACK="1",
            REPRO_MOLASSES_DELAY=DELAY,
        )
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(catalog.DEFAULT_SEED), "--seconds", SECONDS, "--trace", "0"],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=300,
    )
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return result["metrics"]["wall_s"]["value"]


def test_molasses_flags_irregular_sweep_only():
    bound = next(m.bound for m in catalog.END_TO_END if m.name == "wall_s")
    for workload, flagged in (("irregular-sweep", True), ("regular-sweep", False)):
        plain, slowed = [], []
        for _ in range(PAIRS):
            plain.append(wall_s(workload, molasses=False))
            slowed.append(wall_s(workload, molasses=True))
        rise = statistics.median(slowed) / statistics.median(plain) - 1
        print(f"{workload}: wall_s {plain} -> {slowed} s, medians {rise:+.1%}")
        if flagged:
            assert rise > bound, f"{workload} rose only {rise:.1%}"
        else:
            assert rise <= bound, f"{workload} rose {rise:.1%}"


if __name__ == "__main__":
    test_molasses_flags_irregular_sweep_only()
