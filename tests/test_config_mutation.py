"""Bounded config mutation: every config ``from_dict`` accepts runs.

A seeded draw changes one to three leaves of the baseline, softwalker
and hybrid ``to_dict()``s (at 4 SMs).  Each drawn dict must either be
refused with ``ValueError`` by :meth:`GPUConfig.from_dict`, or run gups
at scale 0.01 to completion, executing instructions, with an
:class:`InvariantChecker` attached and clean.  A config that crashes is
fixed by a rule on the dataclass that owns the field, never by
narrowing the draws.
"""

from __future__ import annotations

import random

import pytest

from repro.arch.registry import DISTRIBUTOR_POLICIES, PAGE_TABLE_KINDS, PWB_POLICIES
from repro.config import GPUConfig, baseline_config, softwalker_config
from repro.gpu.gpu import GPUSimulator
from repro.harness.runner import build_workload
from repro.harness.supervised import SupervisionPolicy, run_supervised

SEED = 20
DRAWS = 60
#: Far above any accepted draw (the largest takes ~450k events), so only
#: a runaway config hits it.
MAX_EVENTS = 3_000_000

#: Registered names a string leaf may take, besides an unknown one.
NAMES = {
    "page_table_kind": PAGE_TABLE_KINDS.names(),
    "pwb_policy": PWB_POLICIES.names(),
    "distributor_policy": DISTRIBUTOR_POLICIES.names(),
}

BASES = {
    "baseline": baseline_config(),
    "softwalker": softwalker_config(),
    "hybrid": softwalker_config(hybrid=True),
}


def leaf_paths(data: dict, prefix: tuple = ()) -> list[tuple]:
    paths = []
    for key, value in data.items():
        if isinstance(value, dict):
            paths += leaf_paths(value, prefix + (key,))
        else:
            paths.append(prefix + (key,))
    return paths


def mutated(value, key: str, rng: random.Random):
    """A new value of the leaf's own type: flipped, halved, doubled,
    stepped, zeroed or negative; another registered name or an unknown
    one; an integer where None stood."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return rng.choice([0, 1, -1, value // 2, value * 2, value + 1, value - 1])
    if isinstance(value, str):
        return rng.choice([*NAMES.get(key, []), "unknown"])
    if value is None:
        return rng.choice([0, 1, 100, -1])
    raise TypeError(f"no mutation for leaf {key}={value!r}")


def draws() -> list[tuple[str, dict, list]]:
    rng = random.Random(SEED)
    out = []
    for _ in range(DRAWS):
        name = rng.choice(sorted(BASES))
        data = dict(BASES[name].to_dict(), num_sms=4)  # a fresh nested copy
        changes = []
        for path in rng.sample(leaf_paths(data), rng.randint(1, 3)):
            node = data
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = mutated(node[path[-1]], path[-1], rng)
            changes.append((".".join(path), node[path[-1]]))
        out.append((name, data, changes))
    return out


DRAWN = draws()


def test_draws_cover_both_outcomes():
    refused = 0
    for _, data, _ in DRAWN:
        try:
            GPUConfig.from_dict(data)
        except ValueError:
            refused += 1
    assert 0 < refused < len(DRAWN)


@pytest.mark.parametrize(
    "name,data,changes", DRAWN, ids=[f"draw{i}" for i in range(len(DRAWN))]
)
def test_accepted_config_runs_clean(name, data, changes):
    try:
        config = GPUConfig.from_dict(data)
    except ValueError:
        return
    report = run_supervised(
        GPUSimulator(config, build_workload("gups", config, scale=0.01)),
        policy=SupervisionPolicy(max_events=MAX_EVENTS, audit_every=500),
    )
    result = report.result
    assert result.complete, (name, changes)
    assert result.instructions > 0, (name, changes)
