"""Successive-halving (ASHA-style) search over a :class:`SearchSpace`.

The driver climbs a ladder of *rungs* of escalating fidelity.  Early
rungs run every surviving candidate cheaply — at a reduced trace scale
and, optionally, under a truncated event budget (the supervised
runner's :class:`~repro.gpu.gpu.SimulationTruncated` degrade path, so a
partial result still carries everything it measured).  Each rung ranks
candidates by the geomean over benchmarks of their median-over-seeds
metric and promotes the top ``keep`` fraction, plus any near-tie that
:func:`repro.analysis.stat_tests.relative_verdict` refuses to call a
regression against the cutoff.  Only the finalists reach the full-
fidelity last rung, whose scores feed the Pareto front.

Reproducibility invariants (the acceptance bar of this subsystem):

* **Any ``--jobs N`` is byte-identical.**  Candidate order, rung
  ledgers, and scores are computed from the deterministic simulation
  results in first-seen point order; nothing reads a wall clock.
* **Kill + resume is bit-identical.**  After every rung the driver
  atomically persists a state file (ledger + survivors, fingerprinted
  against the space and options).  A restart replays completed rungs
  from state, re-enters the interrupted rung, and — because every run
  is deduped through the :class:`~repro.harness.store.ResultStore` —
  re-executes only what never finished.  Truncated-rung results are
  stored under a key augmented with ``max_events``, so a partial-
  fidelity entry can never be mistaken for a full-fidelity one.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import statistics
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.analysis.report import geomean
from repro.analysis.resultset import METRICS
from repro.analysis.stat_tests import relative_verdict
from repro.explore.pareto import (
    ParetoPoint,
    config_relative_area,
    knee_point,
    pareto_front,
)
from repro.explore.space import Candidate, SearchSpace, seeded_sample
from repro.harness.pool import SweepPoint, run_sweep
from repro.harness.runner import Runner, default_runner, default_scale

#: Version stamped into the explore artifact and the state file.
ARTIFACT_VERSION = 1
STATE_VERSION = 1

#: Narration callback: one human-readable progress line.
LogFn = Callable[[str], None]


class ExploreError(ValueError):
    """A printable configuration/usage error of the explore driver."""


# ----------------------------------------------------------------------
# Rungs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Rung:
    """One fidelity level of the ladder."""

    #: Fraction of the target trace scale simulated at this rung.
    scale: float
    #: Fraction of candidates promoted out (the final rung ignores it).
    keep: float = 0.5
    #: Per-run event budget; exceeding it degrades to a partial result.
    max_events: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.scale <= 1.0:
            raise ExploreError(f"rung scale must be in (0, 1], got {self.scale}")
        if not 0.0 < self.keep <= 1.0:
            raise ExploreError(f"rung keep must be in (0, 1], got {self.keep}")
        if self.max_events is not None and self.max_events < 1:
            raise ExploreError(f"rung max_events must be >= 1, got {self.max_events}")

    def to_dict(self) -> dict:
        return {"scale": self.scale, "keep": self.keep, "max_events": self.max_events}


#: The stock ladder: quarter-scale triage, half-scale refinement, full
#: fidelity for the survivors.
DEFAULT_RUNGS: tuple[Rung, ...] = (
    Rung(scale=0.25, keep=0.34),
    Rung(scale=0.5, keep=0.5),
    Rung(scale=1.0),
)


def parse_rungs(text: str) -> tuple[Rung, ...]:
    """Parse ``"scale[:keep[:max_events]],..."`` (e.g. ``0.25:0.34,1``)."""
    rungs: list[Rung] = []
    for token in (t.strip() for t in text.split(",") if t.strip()):
        fields = token.split(":")
        if len(fields) > 3:
            raise ExploreError(
                f"rung {token!r} has too many fields; expected "
                "scale[:keep[:max_events]]"
            )
        try:
            scale = float(fields[0])
            keep = float(fields[1]) if len(fields) > 1 and fields[1] else 1.0
            max_events = int(fields[2]) if len(fields) > 2 and fields[2] else None
        except ValueError as failure:
            raise ExploreError(f"bad rung {token!r}: {failure}") from None
        rungs.append(Rung(scale=scale, keep=keep, max_events=max_events))
    if not rungs:
        raise ExploreError("at least one rung is required")
    return tuple(rungs)


def _validate_rungs(rungs: Sequence[Rung]) -> tuple[Rung, ...]:
    rungs = tuple(rungs)
    if not rungs:
        raise ExploreError("at least one rung is required")
    final = rungs[-1]
    if final.scale != 1.0 or final.max_events is not None:
        raise ExploreError(
            "the final rung must be full fidelity (scale 1.0, no event "
            "budget) — its scores feed the Pareto front"
        )
    return rungs


# ----------------------------------------------------------------------
# Options
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExploreOptions:
    """Everything that shapes a search (and fingerprints its state)."""

    benchmarks: tuple[str, ...] = ("dc",)
    #: Workload seed replicates per (candidate, benchmark).
    seeds: tuple = (None,)
    #: Full-fidelity trace scale; None defers to ``REPRO_SCALE``.
    scale: float | None = None
    rungs: tuple[Rung, ...] = DEFAULT_RUNGS
    #: Search only a seeded subset of this many candidates (None = all).
    sample: int | None = None
    #: Seed for the subset sampler (and nothing else — the simulation
    #: itself is deterministic in the workload seeds).
    search_seed: int = 0
    #: Near-tie promotion tolerance fed to ``relative_verdict``.
    tolerance: float = 0.0
    #: Ranking metric; must be simulation-derived (not host-perf) so
    #: the artifact stays byte-reproducible.
    metric: str = "cycles"

    def __post_init__(self) -> None:
        object.__setattr__(self, "benchmarks", tuple(self.benchmarks))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "rungs", _validate_rungs(self.rungs))
        if not self.benchmarks:
            raise ExploreError("at least one benchmark is required")
        if not self.seeds:
            raise ExploreError("at least one seed replicate is required")
        if self.sample is not None and self.sample < 1:
            raise ExploreError(f"sample must be >= 1, got {self.sample}")
        if self.tolerance < 0:
            raise ExploreError(f"tolerance must be >= 0, got {self.tolerance}")
        if self.metric not in METRICS:
            known = ", ".join(sorted(METRICS))
            raise ExploreError(
                f"unknown metric {self.metric!r}; known metrics: {known}"
            )
        if self.metric in ("wall_seconds", "events_per_sec"):
            raise ExploreError(
                f"metric {self.metric!r} is host-perf metadata; ranking on "
                "it would make the artifact non-reproducible"
            )

    def effective_scale(self) -> float:
        return self.scale if self.scale is not None else default_scale()

    def to_dict(self) -> dict:
        return {
            "benchmarks": list(self.benchmarks),
            "seeds": list(self.seeds),
            "scale": self.effective_scale(),
            "rungs": [rung.to_dict() for rung in self.rungs],
            "sample": self.sample,
            "search_seed": self.search_seed,
            "tolerance": self.tolerance,
            "metric": self.metric,
        }


# ----------------------------------------------------------------------
# Promotion
# ----------------------------------------------------------------------
def select_survivors(
    scores: Mapping[str, float],
    order: Sequence[str],
    *,
    keep: float,
    tolerance: float = 0.0,
) -> list[str]:
    """Promote the top ``keep`` fraction plus verdict-judged near-ties.

    ``order`` breaks score ties deterministically (enumeration order).
    The cutoff is the worst promoted score; a candidate beyond the cut
    still survives when :func:`relative_verdict` refuses to call its
    score a regression against the cutoff at ``tolerance`` — the
    statistically honest version of "don't kill a coin flip".
    Survivors come back in ``order``.
    """
    rank = {cid: position for position, cid in enumerate(order)}
    ranked = sorted(order, key=lambda cid: (scores[cid], rank[cid]))
    count = max(1, math.ceil(len(ranked) * keep))
    promoted = set(ranked[:count])
    cutoff = scores[ranked[count - 1]]
    for cid in ranked[count:]:
        verdict, _ratio = relative_verdict(
            cutoff, scores[cid], tolerance=tolerance
        )
        if verdict != "regression":
            promoted.add(cid)
    return [cid for cid in order if cid in promoted]


# ----------------------------------------------------------------------
# Truncated-rung execution
# ----------------------------------------------------------------------
def _truncated_store_key(point: SweepPoint, max_events: int) -> dict:
    """The point's store key *augmented* with its event budget.

    Keeping ``max_events`` in the key means a truncated rung can never
    collide with (or be served from) a full-fidelity entry for the same
    point — and vice versa.  ``ResultSet`` surfaces the extra key field
    in the cell label, so partial-fidelity entries stay visibly
    separate in ``repro report`` too.
    """
    key = point.store_key()
    key["max_events"] = max_events
    return key


def _execute_truncated(point: SweepPoint, max_events: int) -> dict:
    """Worker body for a budgeted rung: supervised run, degrade to partial.

    Module-level (and driven through :func:`functools.partial`) so the
    fork pool can pickle it.
    """
    from repro.harness.pool import run_point_supervised
    from repro.harness.supervised import SupervisionPolicy

    policy = SupervisionPolicy(
        slice_events=min(20_000, max_events),
        max_events=max_events,
    )
    report = run_point_supervised(point, policy=policy)
    return report.result.to_dict()


# ----------------------------------------------------------------------
# State persistence
# ----------------------------------------------------------------------
def _fingerprint(space: SearchSpace, options: ExploreOptions) -> str:
    payload = json.dumps(
        {"space": space.to_dict(), "options": options.to_dict()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _write_state(path: str, state: dict) -> None:
    """Atomic write: a mid-write kill leaves the previous state intact."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(state, handle, sort_keys=True, indent=2)
        handle.write("\n")
    os.replace(tmp, path)


def _load_state(path: str, fingerprint: str, log: LogFn) -> list[dict]:
    """Completed-rung entries from a matching state file, else nothing."""
    try:
        with open(path, encoding="utf-8") as handle:
            state = json.load(handle)
    except FileNotFoundError:
        return []
    except (OSError, json.JSONDecodeError) as failure:
        log(f"explore: ignoring unreadable state {path}: {failure}")
        return []
    if state.get("version") != STATE_VERSION:
        log(f"explore: ignoring state {path} (version mismatch)")
        return []
    if state.get("fingerprint") != fingerprint:
        log(
            f"explore: ignoring state {path} (space/options changed since "
            "it was written)"
        )
        return []
    rungs = state.get("rungs")
    return list(rungs) if isinstance(rungs, list) else []


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
def run_explore(
    space: SearchSpace,
    options: ExploreOptions | None = None,
    *,
    runner: Runner | None = None,
    jobs: int | None = None,
    state_path: str | None = None,
    fresh: bool = False,
    log: LogFn | None = None,
    progress=None,
) -> dict:
    """Run the full search and return the versioned artifact dict.

    ``state_path`` enables crash-safe resume: completed rungs replay
    from the file, and the interrupted rung re-executes with every
    already-simulated point served from the runner's result store.
    ``fresh=True`` ignores (and overwrites) any existing state.
    """
    options = options or ExploreOptions()
    runner = runner or default_runner()
    log = log or (lambda _line: None)
    metric = METRICS[options.metric]
    base_scale = options.effective_scale()

    candidates, skipped = space.materialize()
    if options.sample is not None:
        candidates = seeded_sample(
            candidates, options.sample, options.search_seed, salt="explore.space"
        )
    by_cid = {candidate.cid: candidate for candidate in candidates}
    if skipped:
        log(
            f"explore: skipped {len(skipped)} invalid combination(s) "
            "(cross-field config constraints)"
        )

    fingerprint = _fingerprint(space, options)
    completed: list[dict] = []
    if state_path and not fresh:
        completed = _load_state(state_path, fingerprint, log)
        if completed:
            log(
                f"explore: resuming from {state_path} "
                f"({len(completed)}/{len(options.rungs)} rungs done)"
            )
    completed = completed[: len(options.rungs)]

    survivors = [candidate.cid for candidate in candidates]
    for entry in completed:
        survivors = list(entry["survivors"])

    for rung_index, rung in enumerate(options.rungs):
        if rung_index < len(completed):
            continue
        active = [by_cid[cid] for cid in survivors]
        rung_scale = base_scale * rung.scale
        points = [
            SweepPoint(
                config=candidate.config,
                benchmark=benchmark,
                scale=rung_scale,
                seed=seed,
            )
            for candidate in active
            for benchmark in options.benchmarks
            for seed in options.seeds
        ]
        log(
            f"explore: rung {rung_index + 1}/{len(options.rungs)} — "
            f"{len(active)} candidate(s), {len(points)} run(s) at "
            f"scale {rung_scale:g}"
            + (
                f", budget {rung.max_events} events"
                if rung.max_events is not None
                else ""
            )
        )
        results = _run_rung(runner, points, rung, jobs=jobs, progress=progress)

        scores: dict[str, float] = {}
        per_benchmark: dict[str, dict[str, float]] = {}
        cursor = 0
        for candidate in active:
            medians: dict[str, float] = {}
            for benchmark in options.benchmarks:
                values = []
                for _seed in options.seeds:
                    value = metric.extract(results[points[cursor]])
                    cursor += 1
                    if value is not None:
                        values.append(float(value))
                if not values:
                    raise ExploreError(
                        f"metric {options.metric!r} produced no value for "
                        f"{candidate.cid} on {benchmark}"
                    )
                medians[benchmark] = statistics.median(values)
            per_benchmark[candidate.cid] = medians
            scores[candidate.cid] = geomean(list(medians.values()))

        if rung_index + 1 < len(options.rungs):
            survivors = select_survivors(
                scores,
                [candidate.cid for candidate in active],
                keep=rung.keep,
                tolerance=options.tolerance,
            )

        entry = {
            "rung": rung_index,
            "scale": rung_scale,
            "max_events": rung.max_events,
            "candidates": len(active),
            "runs": len(points),
            # Simulated work actually charged to this rung — summed from
            # the results themselves, so cached/replayed runs cost the
            # ledger exactly what the original runs did (this is what
            # makes resume and any --jobs N byte-identical).
            "simulated_cycles": sum(
                results[point].cycles for point in points
            ),
            "complete_runs": sum(
                1 for point in points if results[point].complete
            ),
            "scores": scores,
            "per_benchmark": per_benchmark,
            "survivors": list(survivors),
        }
        completed.append(entry)
        if state_path:
            _write_state(
                state_path,
                {
                    "version": STATE_VERSION,
                    "fingerprint": fingerprint,
                    "rungs": completed,
                },
            )

    return _assemble_artifact(
        space, options, candidates, skipped, completed, fingerprint
    )


def _run_rung(
    runner: Runner,
    points: Sequence[SweepPoint],
    rung: Rung,
    *,
    jobs: int | None,
    progress,
):
    """Full-fidelity rungs ride the runner; budgeted rungs go supervised."""
    if rung.max_events is None:
        return runner.sweep(points, jobs=jobs, progress=progress)

    store = runner.store
    max_events = rung.max_events

    def lookup(point: SweepPoint):
        if store is None:
            return None
        return store.load(_truncated_store_key(point, max_events))

    def publish(point: SweepPoint, result) -> None:
        if store is not None:
            store.store(_truncated_store_key(point, max_events), result)

    return run_sweep(
        points,
        jobs=jobs if jobs is not None else runner.jobs,
        lookup=lookup,
        publish=publish,
        progress=progress,
        execute=functools.partial(_execute_truncated, max_events=max_events),
    )


def _assemble_artifact(
    space: SearchSpace,
    options: ExploreOptions,
    candidates: Sequence[Candidate],
    skipped: Sequence[dict],
    rungs: Sequence[dict],
    fingerprint: str,
) -> dict:
    final = rungs[-1]
    by_cid = {candidate.cid: candidate for candidate in candidates}
    areas = {
        candidate.cid: config_relative_area(candidate.config)
        for candidate in candidates
    }

    points = [
        ParetoPoint(candidate=cid, performance=score, cost=areas[cid])
        for cid, score in sorted(final["scores"].items())
    ]
    front = pareto_front(points)
    knee = knee_point(front)

    def described(point: ParetoPoint) -> dict:
        payload = point.to_dict()
        payload["assignment"] = by_cid[point.candidate].assignment_dict()
        return payload

    # The ledger's proof of economy: what the search actually simulated
    # versus what an exhaustive full-fidelity grid over the same pool
    # would have cost (estimated from this search's own full-fidelity
    # runs, so the comparison is apples-to-apples).
    spent = sum(entry["simulated_cycles"] for entry in rungs)
    mean_full_run = final["simulated_cycles"] / final["runs"]
    grid_runs = len(candidates) * len(options.benchmarks) * len(options.seeds)
    exhaustive = mean_full_run * grid_runs
    savings = 1.0 - (spent / exhaustive) if exhaustive > 0 else 0.0

    return {
        "version": ARTIFACT_VERSION,
        "fingerprint": fingerprint,
        "space": space.to_dict(),
        "options": options.to_dict(),
        "candidates": [
            {
                "id": candidate.cid,
                "assignment": candidate.assignment_dict(),
                "area": areas[candidate.cid],
            }
            for candidate in candidates
        ],
        "skipped": list(skipped),
        "rungs": list(rungs),
        "pareto_front": [described(point) for point in front],
        "knee": described(knee) if knee is not None else None,
        "budget": {
            "spent_cycles": spent,
            "exhaustive_estimate_cycles": exhaustive,
            "savings_fraction": savings,
        },
    }


def artifact_json(artifact: dict) -> str:
    """The canonical byte encoding of an artifact (sorted keys)."""
    return json.dumps(artifact, sort_keys=True, indent=2) + "\n"
