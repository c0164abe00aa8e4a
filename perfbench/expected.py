"""Recompute ``expected.json``: the fingerprint digest of every job the
benchmark can run at the default seed.

    PYTHONPATH=src python3 perfbench/expected.py

Only a change that is meant to alter simulated results should ever
need this; a host-speed change must leave every digest as it is.
"""

from __future__ import annotations

import json
import sys

import catalog
from child import EXPECTED_PATH


def main() -> int:
    from repro.config import DEFAULT_CONFIGS
    from repro.harness.runner import Runner
    from repro.harness.store import fingerprint_digest

    runner = Runner(jobs=1)
    jobs = []
    for workload in catalog.WORKLOADS.values():
        if workload.kind == "sweep":
            jobs += [
                (c, b, workload.scale, catalog.DEFAULT_SEED)
                for c, b in catalog.sweep_jobs(workload)
            ]
        else:
            for round_jobs in catalog.service_rounds(workload, catalog.DEFAULT_SEED):
                jobs += [(j.config, j.benchmark, j.scale, j.seed)
                         for j in round_jobs if not j.repeat]
    digests = {}
    for config, benchmark, scale, seed in jobs:
        result = runner.run(DEFAULT_CONFIGS.get(config), benchmark, scale=scale, seed=seed)
        label = catalog.job_label(config, benchmark, scale, seed)
        digests[label] = fingerprint_digest(result)
        print(label, digests[label][:16], flush=True)
    EXPECTED_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
