"""Shared benchmark plumbing.

Every benchmark runs its experiment exactly once (simulations are
deterministic; statistical repetition buys nothing), prints the rendered
table so ``pytest benchmarks/ --benchmark-only -s`` doubles as the
results report, and saves it under ``results/``.

Figures share points through the default runner's in-memory memo, so
one session simulates each unique point once.  The persistent result
store is used only when ``REPRO_STORE`` names it: its key does not name
the code, so a store left from an older model would serve stale tables.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.harness.runner import cache_info, clear_cache

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(autouse=True, scope="session")
def drop_memo_cache():
    """Release memoised SimulationResults once the bench session ends.

    Figure experiments share runs through the runner's two-tier cache;
    the telemetry line makes cache effectiveness visible in bench logs.
    """
    yield
    info = cache_info()
    print(
        f"\nrunner cache: {info['hits']} hits / {info['misses']} misses "
        f"({info['entries']} entries held); "
        f"{info['simulations']} simulations this session"
    )
    if info["store_path"]:
        print(
            f"result store at {info['store_path']}: "
            f"{info['disk_hits']} hits / {info['disk_misses']} misses / "
            f"{info['disk_stores']} stores"
        )
        # Load the store back through the one sanctioned analysis path
        # (never by scraping entry files) and point at the report CLI.
        from repro.analysis import ResultSet

        resultset = ResultSet.from_store(info["store_path"])
        if resultset:
            print(
                f"analysis view: {resultset.describe()} — run "
                f"`python -m repro report --store {info['store_path']}` "
                "for medians, CIs, and significance"
            )
    clear_cache()


def run_experiment(benchmark, experiment_fn, **kwargs):
    """Run one experiment under pytest-benchmark and report it."""
    table = benchmark.pedantic(
        lambda: experiment_fn(**kwargs), rounds=1, iterations=1
    )
    print("\n" + table.render())
    table.save(RESULTS_DIR)
    return table
