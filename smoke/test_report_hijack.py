"""``repro report``'s regression gate flags a host slowdown, and only that.

A real mini-sweep (2 configs x 2 benchmarks x 3 seeds, tiny scale) runs
twice into two stores: once plain, once with every walk backend wrapped
by the molasses plugin (``examples/plugins/slow_backend.py`` in hijack
mode), which sleeps on each walk without touching simulated time.
:func:`~repro.analysis.diff_resultsets` must flag every cell as a
significant wall-time regression while every cell's fingerprints stay
identical.  The verdict rests on real host wall times, so this test
lives outside tier-1; ``tests/test_resultset.py::TestReportCLI`` checks
the report CLI itself on synthetic stores.

Run: ``PYTHONPATH=src python -m pytest smoke/test_report_hijack.py -q``
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import ResultSet, diff_resultsets

REPO = Path(__file__).resolve().parent.parent

CONFIGS = ("baseline", "softwalker")
BENCHMARKS = ("gups", "spmv")
SEEDS = (1, 2, 3)
SCALE = 0.05

#: Mann-Whitney over 3 seeds floors the asymptotic p at ~0.0495, so the
#: gate must run above that once BH corrects across the 4-cell family.
ALPHA = 0.1

#: Host seconds the molasses wrapper sleeps per submitted walk.
MOLASSES_DELAY = "0.0005"

#: Runs the sweep in a child interpreter, so the hijack plugin's
#: registry changes never reach this process.  Hijack mode re-registers
#: names that already exist, so no registry miss would load it lazily.
SWEEP = """
import json
import sys
from repro.arch.registry import load_plugins
load_plugins(reload=True)
from repro.config import DEFAULT_CONFIGS
from repro.harness.pool import make_point
from repro.harness.runner import Runner
configs, benchmarks, seeds, scale, store = json.loads(sys.argv[1])
points = [
    make_point(DEFAULT_CONFIGS.get(config), benchmark, scale=scale, seed=seed)
    for config in configs
    for benchmark in benchmarks
    for seed in seeds
]
Runner(store=store).sweep(points)
"""


def sweep_into(store: Path, *, hijack: bool) -> None:
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
        ),
    )
    env.pop("REPRO_PLUGINS", None)
    env.pop("REPRO_MOLASSES_HIJACK", None)
    if hijack:
        env["REPRO_PLUGINS"] = str(REPO / "examples" / "plugins" / "slow_backend.py")
        env["REPRO_MOLASSES_HIJACK"] = "1"
        env["REPRO_MOLASSES_DELAY"] = MOLASSES_DELAY
    arguments = json.dumps([CONFIGS, BENCHMARKS, SEEDS, SCALE, str(store)])
    subprocess.run(
        [sys.executable, "-c", SWEEP, arguments], env=env, check=True, timeout=600
    )


def test_hijacked_sweep_is_a_significant_wall_regression_with_same_fingerprints(
    tmp_path,
):
    sweep_into(tmp_path / "plain", hijack=False)
    sweep_into(tmp_path / "hijacked", hijack=True)
    old = ResultSet.from_store(tmp_path / "plain")
    new = ResultSet.from_store(tmp_path / "hijacked")
    assert old.total_results() == len(CONFIGS) * len(BENCHMARKS) * len(SEEDS)

    for cell in old.cells():
        twin = new.cell(cell.key)
        assert twin is not None and twin.fingerprints() == cell.fingerprints(), (
            f"{cell.key} fingerprints drifted: the molasses wrapper must "
            "only burn host time"
        )
    report = diff_resultsets(old, new, metrics=["wall_seconds"], alpha=ALPHA)
    assert not report.fingerprint_drift
    assert len(report.regressions) == len(old.cells()), report.summary()
