"""Successive-halving driver tests (repro.explore.search).

The end-to-end tests run real (tiny) simulations; the acceptance
properties of the subsystem — ``--jobs N`` byte-identity and
bit-identical resume after an interrupted search — are asserted on the
canonical artifact bytes, not on any parsed subset.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.explore import (
    ARTIFACT_VERSION,
    CategoricalDim,
    ExploreError,
    ExploreOptions,
    Rung,
    SearchSpace,
    artifact_json,
    explore_html,
    explore_markdown,
    parse_rungs,
    run_explore,
    select_survivors,
)
from repro.harness.runner import Runner

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Tiny but real: two candidates, one benchmark, two rungs.
TINY_SCALE = 0.03


def tiny_space() -> SearchSpace:
    return SearchSpace(
        base="baseline",
        dimensions=(CategoricalDim(path="ptw.num_walkers", values=(8, 32)),),
    )


def tiny_options() -> ExploreOptions:
    return ExploreOptions(
        benchmarks=("gups",),
        seeds=(None,),
        scale=TINY_SCALE,
        rungs=parse_rungs("0.5:0.5:4000,1"),
    )


def run_tiny(tmp_path, *, jobs=1, sub="store", state="state.json", fresh=False):
    runner = Runner(store=tmp_path / sub)
    return run_explore(
        tiny_space(),
        tiny_options(),
        runner=runner,
        jobs=jobs,
        state_path=str(tmp_path / state),
        fresh=fresh,
    )


class TestParseRungs:
    def test_full_form(self):
        rungs = parse_rungs("0.25:0.34:5000,0.5:0.5,1")
        assert rungs == (
            Rung(scale=0.25, keep=0.34, max_events=5000),
            Rung(scale=0.5, keep=0.5),
            Rung(scale=1.0, keep=1.0),
        )

    def test_defaults_keep_one_and_no_budget(self):
        (rung,) = parse_rungs("1")
        assert rung == Rung(scale=1.0, keep=1.0, max_events=None)

    def test_empty_fields_fall_back(self):
        (rung,) = parse_rungs("0.5::3000")
        assert rung == Rung(scale=0.5, keep=1.0, max_events=3000)

    def test_rejects_garbage(self):
        with pytest.raises(ExploreError, match="bad rung"):
            parse_rungs("fast")
        with pytest.raises(ExploreError, match="too many fields"):
            parse_rungs("1:1:1:1")
        with pytest.raises(ExploreError, match="at least one rung"):
            parse_rungs(" , ")

    def test_rung_validation(self):
        with pytest.raises(ExploreError, match="scale"):
            Rung(scale=0.0)
        with pytest.raises(ExploreError, match="scale"):
            Rung(scale=1.5)
        with pytest.raises(ExploreError, match="keep"):
            Rung(scale=1.0, keep=0.0)
        with pytest.raises(ExploreError, match="max_events"):
            Rung(scale=1.0, max_events=0)


class TestExploreOptions:
    def test_final_rung_must_be_full_fidelity(self):
        with pytest.raises(ExploreError, match="final rung"):
            ExploreOptions(rungs=parse_rungs("0.25:0.5,0.5"))
        with pytest.raises(ExploreError, match="final rung"):
            ExploreOptions(rungs=parse_rungs("0.5:0.5,1:1:4000"))

    def test_rejects_empty_benchmarks_and_seeds(self):
        with pytest.raises(ExploreError, match="benchmark"):
            ExploreOptions(benchmarks=())
        with pytest.raises(ExploreError, match="seed"):
            ExploreOptions(seeds=())

    def test_rejects_unknown_metric(self):
        with pytest.raises(ExploreError, match="known metrics"):
            ExploreOptions(metric="cycle")

    def test_rejects_host_perf_metrics(self):
        with pytest.raises(ExploreError, match="non-reproducible"):
            ExploreOptions(metric="wall_seconds")

    def test_rejects_bad_sample_and_tolerance(self):
        with pytest.raises(ExploreError, match="sample"):
            ExploreOptions(sample=0)
        with pytest.raises(ExploreError, match="tolerance"):
            ExploreOptions(tolerance=-0.1)


class TestSelectSurvivors:
    ORDER = ["a", "b", "c", "d"]

    def test_keeps_top_fraction_by_score(self):
        scores = {"a": 4.0, "b": 1.0, "c": 3.0, "d": 2.0}
        assert select_survivors(scores, self.ORDER, keep=0.5) == ["b", "d"]

    def test_always_keeps_at_least_one(self):
        scores = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}
        assert select_survivors(scores, self.ORDER, keep=0.01) == ["a"]

    def test_exact_ties_with_the_cutoff_all_survive(self):
        # "Don't kill a coin flip": a score indistinguishable from the
        # cutoff is never a regression, so an all-equal rung promotes
        # everyone rather than guessing.
        scores = {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}
        assert select_survivors(scores, self.ORDER, keep=0.5) == self.ORDER

    def test_result_is_in_enumeration_order(self):
        scores = {"a": 9.0, "b": 1.0, "c": 8.0, "d": 2.0}
        assert select_survivors(scores, self.ORDER, keep=0.75) == ["b", "c", "d"]

    def test_near_tie_survives_with_tolerance(self):
        scores = {"a": 100.0, "b": 101.0, "c": 200.0, "d": 300.0}
        strict = select_survivors(scores, self.ORDER, keep=0.25)
        assert strict == ["a"]
        lenient = select_survivors(scores, self.ORDER, keep=0.25, tolerance=0.02)
        assert lenient == ["a", "b"]


class TestRunExplore:
    def test_artifact_shape_and_ladder(self, tmp_path):
        artifact = run_tiny(tmp_path)
        assert artifact["version"] == ARTIFACT_VERSION
        assert [c["id"] for c in artifact["candidates"]] == ["c0000", "c0001"]
        assert artifact["skipped"] == []

        first, last = artifact["rungs"]
        assert first["candidates"] == 2
        assert first["max_events"] == 4000
        assert first["scale"] == pytest.approx(TINY_SCALE * 0.5)
        assert len(first["survivors"]) == 1
        assert last["candidates"] == 1
        assert last["max_events"] is None
        assert last["scale"] == pytest.approx(TINY_SCALE)

        front = artifact["pareto_front"]
        assert front, "finalists must produce a non-empty front"
        assert artifact["knee"]["candidate"] in {p["candidate"] for p in front}
        assert artifact["budget"]["spent_cycles"] == sum(
            entry["simulated_cycles"] for entry in artifact["rungs"]
        )

    def test_more_walkers_win_and_renderers_accept_artifact(self, tmp_path):
        artifact = run_tiny(tmp_path)
        # 32 walkers strictly beat 8 on an irregular benchmark.
        winner = artifact["rungs"][-1]["survivors"]
        assert winner == ["c0001"]
        markdown = explore_markdown(artifact)
        assert "ptw.num_walkers=32" in markdown
        assert "Halving ledger" in markdown
        html = explore_html(artifact)
        assert "<table>" in html and "Pareto front" in html

    def test_truncated_rung_results_are_partial_and_separately_keyed(
        self, tmp_path
    ):
        from repro.explore.search import _truncated_store_key
        from repro.harness.pool import make_point

        run_tiny(tmp_path)
        store = Runner(store=tmp_path / "store").store
        point = make_point(
            tiny_space().materialize()[0][0].config,
            "gups",
            scale=TINY_SCALE * 0.5,
        )
        truncated = store.load(_truncated_store_key(point, 4000))
        assert truncated is not None
        assert truncated.complete is False
        # The same point WITHOUT the budget key is absent: a partial
        # result can never shadow (or be served as) a full-fidelity one.
        assert store.load(point.store_key()) is None

    def test_jobs_do_not_change_artifact_bytes(self, tmp_path):
        serial = run_tiny(tmp_path, jobs=1, sub="store-serial", state="s1.json")
        parallel = run_tiny(
            tmp_path, jobs=4, sub="store-parallel", state="s2.json"
        )
        assert artifact_json(serial) == artifact_json(parallel)

    def test_warm_store_replay_is_byte_identical(self, tmp_path):
        first = run_tiny(tmp_path)
        # Same store, state ignored: every run is served from the store.
        second = run_tiny(tmp_path, state="other-state.json")
        assert artifact_json(first) == artifact_json(second)

    def test_resume_after_interrupted_search_is_bit_identical(self, tmp_path):
        reference = run_tiny(tmp_path)
        state_path = tmp_path / "state.json"
        # Simulate a kill after the first rung: drop the final rung from
        # the persisted state and resume in a COLD store, so the final
        # rung genuinely re-executes.
        state = json.loads(state_path.read_text(encoding="utf-8"))
        assert len(state["rungs"]) == 2
        state["rungs"] = state["rungs"][:1]
        state_path.write_text(json.dumps(state), encoding="utf-8")
        resumed = run_explore(
            tiny_space(),
            tiny_options(),
            runner=Runner(store=tmp_path / "store-resume"),
            jobs=1,
            state_path=str(state_path),
        )
        assert artifact_json(resumed) == artifact_json(reference)

    def test_mismatched_state_fingerprint_is_ignored(self, tmp_path):
        state_path = tmp_path / "state.json"
        state_path.write_text(
            json.dumps({"version": 1, "fingerprint": "bogus", "rungs": [[]]}),
            encoding="utf-8",
        )
        artifact = run_tiny(tmp_path)
        assert len(artifact["rungs"]) == 2  # ran from scratch

    def test_fresh_ignores_valid_state(self, tmp_path):
        reference = run_tiny(tmp_path)
        state_path = tmp_path / "state.json"
        # Poison the persisted ledger; --fresh must not believe it.
        state = json.loads(state_path.read_text(encoding="utf-8"))
        state["rungs"][0]["simulated_cycles"] = 1
        state_path.write_text(json.dumps(state), encoding="utf-8")
        fresh = run_tiny(tmp_path, fresh=True)
        assert artifact_json(fresh) == artifact_json(reference)

    def test_sample_restricts_the_pool(self, tmp_path):
        space = SearchSpace(
            base="baseline",
            dimensions=(
                CategoricalDim(path="ptw.num_walkers", values=(8, 16, 32)),
            ),
        )
        options = ExploreOptions(
            benchmarks=("gups",),
            seeds=(None,),
            scale=TINY_SCALE,
            rungs=parse_rungs("1"),
            sample=2,
        )
        artifact = run_explore(
            space, options, runner=Runner(store=tmp_path / "store"), jobs=1
        )
        assert len(artifact["candidates"]) == 2

    def test_golden_artifact_snapshot(self, tmp_path):
        """The tiny explore artifact is byte-stable across changes.

        Regenerate deliberately after verifying the diff is intended:
        write ``artifact_json(run_tiny(...))`` over
        ``tests/golden/explore_tiny.json``.
        """
        artifact = run_tiny(tmp_path)
        golden_path = GOLDEN_DIR / "explore_tiny.json"
        assert artifact_json(artifact) == golden_path.read_text(encoding="utf-8")


# ----------------------------------------------------------------------
# `repro explore` end to end, on a space whose answer is planted
# ----------------------------------------------------------------------
REPO = Path(__file__).resolve().parent.parent

#: The oracle walk backend models unlimited walk concurrency, so it is
#: strictly faster than any hardware walker count.
PLANTED_SPACE = {
    "version": 1,
    "base": "baseline",
    "dimensions": [
        {"kind": "categorical", "path": "walk_backend", "values": [None, "oracle"]},
        {"kind": "pow2", "path": "ptw.num_walkers", "low": 16, "high": 32},
    ],
}


def explore_argv(workdir: Path, sub: str) -> list[str]:
    """``repro explore`` over the planted space, writing under ``workdir/sub``."""
    (workdir / sub).mkdir(exist_ok=True)
    return [
        sys.executable, "-m", "repro", "explore",
        "--space", str(workdir / "space.json"),
        "--benchmarks", "gups",
        "--scale", "0.05",
        "--rungs", "0.5:0.5:3000,1",
        "--store", str(workdir / sub / "store"),
        "--out", str(workdir / sub / "explore.json"),
        "--state", str(workdir / sub / "state.json"),
    ]


def explore_env() -> dict:
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
        ),
        REPRO_PLUGINS=str(REPO / "examples" / "plugins" / "toy_backend.py"),
    )


def explore_cli(workdir: Path, sub: str) -> str:
    """Run the search to completion; returns the artifact's bytes."""
    proc = subprocess.run(
        explore_argv(workdir, sub),
        env=explore_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return (workdir / sub / "explore.json").read_text(encoding="utf-8")


class TestPlantedOptimum:
    @pytest.fixture(scope="class")
    def planted(self, tmp_path_factory):
        """``(workdir, artifact bytes)`` of one uninterrupted search."""
        workdir = tmp_path_factory.mktemp("planted")
        (workdir / "space.json").write_text(json.dumps(PLANTED_SPACE))
        return workdir, explore_cli(workdir, "reference")

    def test_oracle_owns_every_front_point_and_the_knee(self, planted):
        artifact = json.loads(planted[1])
        assignments = {c["id"]: c["assignment"] for c in artifact["candidates"]}
        front = {point["candidate"] for point in artifact["pareto_front"]}
        assert front
        for candidate in front:
            assert assignments[candidate].get("walk_backend") == "oracle"
        assert artifact["knee"]["candidate"] in front

    def test_search_spends_less_than_the_exhaustive_grid(self, planted):
        budget = json.loads(planted[1])["budget"]
        assert budget["spent_cycles"] < budget["exhaustive_estimate_cycles"]

    def test_sigkilled_search_resumes_to_identical_bytes(self, planted):
        workdir, reference = planted
        state = workdir / "killed" / "state.json"
        victim = subprocess.Popen(
            explore_argv(workdir, "killed"),
            env=explore_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while not state.exists() and victim.poll() is None:
                assert time.monotonic() < deadline, "no rung was ever saved"
                time.sleep(0.05)
        finally:
            victim.kill()
            victim.wait(timeout=30)
        # Killed mid-ladder: after its first rung, before the artifact.
        assert victim.returncode == -signal.SIGKILL
        assert len(json.loads(state.read_text(encoding="utf-8"))["rungs"]) == 1
        assert explore_cli(workdir, "killed") == reference
