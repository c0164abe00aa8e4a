"""Golden-fingerprint regression tests.

Pins :meth:`SimulationResult.fingerprint` for the three headline
configurations (baseline, softwalker, hybrid) on two small workloads,
plus baseline/gemm at a scale that evicts from the L2, plus one case
per translation-path variant the headline cases never reach (Avatar
speculation, NHA merged walks, SoftWalker without In-TLB MSHRs, and a
coalesced L2 TLB under lockstep PW warps), against stored golden
files.  The machine is deterministic in its inputs, so any
drift here means a refactor changed simulated behavior — the assembly
in ``GPUSimulator.__init__`` (with the walk backend resolved through
``repro.arch``) is contractually event-for-event identical to the
construction these goldens were recorded under.

Regenerate (only when behavior is *intentionally* changed)::

    PYTHONPATH=src python tests/test_golden_fingerprints.py --regen
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from typing import NamedTuple

import pytest

from repro.config import DEFAULT_CONFIGS, GPUConfig
from repro.harness.runner import Runner

GOLDEN_DIR = Path(__file__).parent / "golden"
REPO = Path(__file__).resolve().parent.parent

#: Small but non-trivial: dc is the paper's most walk-bound benchmark,
#: spmv the classic irregular sparse kernel.
SCALE = 0.05
SEED = 7


class Case(NamedTuple):
    config: str
    bench: str
    #: Inline override merged over the named config's ``to_dict()``
    #: form (nested sections merge key by key); None runs it as named.
    override: dict | None = None
    #: Names an overridden case in its test id and golden file.
    variant: str = ""

    @property
    def id(self) -> str:
        return "-".join(filter(None, (self.config, self.bench, self.variant)))


CASES = [
    Case(config, bench)
    for config in ("baseline", "softwalker", "hybrid")
    for bench in ("dc", "spmv")
] + [
    Case("baseline", "gemm"),
    # Speculation path of the L1 miss flow.
    Case("avatar", "dc"),
    # Merged neighbour walks resolved on one completion.
    Case("nha", "dc"),
    # L2 miss path with dedicated MSHRs only (failures, backpressure).
    Case("softwalker-no-intlb", "spmv"),
    # Coalesced L2 TLB way claims plus the lockstep PW-warp controller.
    Case(
        "softwalker",
        "dc",
        {"tlb_coalescing_span": 4, "softwalker": {"simt_lockstep": True}},
        "span4-lockstep",
    ),
    # A 4-entry PWC caching every upper level evicts on most fills,
    # which pins the PWC victim path.
    Case("softwalker", "dc", {"ptw": {"pwc_entries": 4, "pwc_min_level": 1}}, "pwc4-min1"),
]

#: Cases pinned at a larger scale.  The walk-bound cases above evict
#: nothing from either data cache; baseline/gemm at 0.5 streams enough
#: lines through the L2 to evict thousands of them, which pins the
#: data-side victim path.
SCALES = {("baseline", "gemm"): 0.5}


def golden_path(config_name: str, benchmark: str, variant: str = "") -> Path:
    suffix = f"_{variant}" if variant else ""
    return GOLDEN_DIR / f"{config_name}_{benchmark}{suffix}.json"


def _merged(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict):
            out[key] = _merged(base[key], value)
        else:
            out[key] = value
    return out


def make_config(config_name: str, override: dict | None = None) -> GPUConfig:
    config = DEFAULT_CONFIGS.get(config_name)
    if override is None:
        return config
    return GPUConfig.from_dict(_merged(config.to_dict(), override))


def compute_fingerprint(
    config_name: str, benchmark: str, override: dict | None = None
) -> dict:
    result = Runner().run(
        make_config(config_name, override),
        benchmark,
        scale=SCALES.get((config_name, benchmark), SCALE),
        seed=SEED,
    )
    # Round-trip through JSON so tuples normalise to lists exactly as
    # they do in the stored golden files.
    return json.loads(json.dumps(result.fingerprint()))


@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_fingerprint_matches_golden(case: Case) -> None:
    path = golden_path(case.config, case.bench, case.variant)
    expected = json.loads(path.read_text())
    actual = compute_fingerprint(case.config, case.bench, case.override)
    assert actual == expected, (
        f"{case.id} fingerprint drifted from {path.name}; "
        "if the behavior change is intentional, regenerate with "
        "`python tests/test_golden_fingerprints.py --regen`"
    )


#: Golden files owned by other test suites sharing the directory.
FOREIGN_GOLDENS = {"explore_tiny.json"}


def test_every_golden_file_is_covered() -> None:
    """No stale golden files lingering after a case rename."""
    expected = {golden_path(c.config, c.bench, c.variant).name for c in CASES}
    actual = {p.name for p in GOLDEN_DIR.glob("*.json")} - FOREIGN_GOLDENS
    assert actual == expected


def test_molasses_hijack_keeps_the_hybrid_golden() -> None:
    """The slow-backend example in hijack mode wraps every standard walk
    backend — hybrid's hardware half included — and may only cost host
    time: the hybrid run must match its golden fingerprint.  Runs in a
    child so the hijacked registry never leaks into other tests."""
    script = f"""
import json, sys
from repro.arch import load_plugins
load_plugins()
sys.path.insert(0, {str(Path(__file__).parent)!r})
import repro_plugin_slow_backend as plugin
from test_golden_fingerprints import compute_fingerprint
walks = []
submit = plugin._SleepyBackend.submit
plugin._SleepyBackend.submit = lambda self, r: (walks.append(r), submit(self, r))
print(json.dumps({{"fingerprint": compute_fingerprint("hybrid", "dc"), "walks": len(walks)}}))
"""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_STORE"}
    env.update(
        PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])),
        REPRO_PLUGINS=str(REPO / "examples" / "plugins" / "slow_backend.py"),
        REPRO_MOLASSES_HIJACK="1",
        REPRO_MOLASSES_DELAY="0",
    )
    child = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert child.returncode == 0, child.stderr
    outcome = json.loads(child.stdout.splitlines()[-1])
    assert outcome["walks"] > 0  # the wrapper really sat in the walk path
    assert outcome["fingerprint"] == json.loads(golden_path("hybrid", "dc").read_text())


def _regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in CASES:
        path = golden_path(case.config, case.bench, case.variant)
        fingerprint = compute_fingerprint(case.config, case.bench, case.override)
        path.write_text(json.dumps(fingerprint, indent=1, sort_keys=True))
        print(f"wrote {path}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
