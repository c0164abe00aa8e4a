"""The benchmark's sweep jobs still simulate exactly what they recorded.

``perfbench/expected.json`` holds the fingerprint digest of every job
the benchmark runs at its default seed.  A host-speed change must leave
each one as it is; this test reruns the ``irregular-sweep`` and
``regular-sweep`` jobs at their catalog scales and compares digests, so
a drift fails the test suite and not only a benchmark run.  It reads
``perfbench/`` and writes nothing there.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.config import DEFAULT_CONFIGS
from repro.harness.runner import Runner
from repro.harness.store import fingerprint_digest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_catalog():
    spec = importlib.util.spec_from_file_location(
        "perfbench_catalog", PERFBENCH / "catalog.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Registered first: its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


catalog = _load_catalog()
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())
JOBS = [
    (config, bench, workload.scale, catalog.DEFAULT_SEED)
    for workload in catalog.WORKLOADS.values()
    if workload.kind == "sweep"
    for config, bench in catalog.sweep_jobs(workload)
]


def test_every_sweep_job_has_a_digest() -> None:
    labels = [catalog.job_label(*job) for job in JOBS]
    assert len(labels) == 12
    assert set(labels) <= set(EXPECTED)


@pytest.mark.parametrize(
    "config,bench,scale,seed", JOBS, ids=[catalog.job_label(*job) for job in JOBS]
)
def test_sweep_digest_matches_expected(
    config: str, bench: str, scale: float, seed: int
) -> None:
    result = Runner(jobs=1).run(
        DEFAULT_CONFIGS.get(config), bench, scale=scale, seed=seed
    )
    label = catalog.job_label(config, bench, scale, seed)
    assert fingerprint_digest(result) == EXPECTED[label], label
