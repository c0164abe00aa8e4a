"""Every figure's row logic, pinned on one tiny point per cell.

Runs each entry of :data:`repro.cli.EXPERIMENT_FUNCTIONS` in one
process with a fresh default runner and no result store, on gups at
scale 0.01 wherever the experiment takes ``abbrs``/``scale``, and
compares the concatenated rendered tables with
``tests/golden/figures_tiny.txt``.  A second pass over the same
experiments must be served entirely from the runner's memo.

Regenerate (only when a table is *intentionally* changed)::

    PYTHONPATH=src python tests/test_figures_golden.py --regen
"""

import inspect
import os
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "figures_tiny.txt"
ABBRS = ["gups"]
SCALE = 0.01


def render_all() -> str:
    from repro.cli import EXPERIMENT_FUNCTIONS, _experiment

    tables = []
    for name in EXPERIMENT_FUNCTIONS:
        experiment = _experiment(name)
        params = inspect.signature(experiment).parameters
        kwargs = {}
        if "abbrs" in params:
            kwargs["abbrs"] = ABBRS
        if "scale" in params:
            kwargs["scale"] = SCALE
        tables.append(f"== {name}\n{experiment(**kwargs).render()}\n")
    return "\n".join(tables)


@pytest.fixture
def fresh_runner(monkeypatch):
    from repro.harness import runner

    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.setattr(runner, "_DEFAULT_RUNNER", None)
    return runner.default_runner


def test_every_figure_matches_golden_and_reruns_from_memo(fresh_runner):
    text = render_all()
    assert text == GOLDEN.read_text(), (
        "a figure's rendered table changed; if intentional, regenerate "
        "with `python tests/test_figures_golden.py --regen`"
    )
    simulations = fresh_runner().cache_info()["simulations"]
    assert simulations > 0
    assert render_all() == text
    assert fresh_runner().cache_info()["simulations"] == simulations


@pytest.mark.parametrize("name", ["fig03_access_patterns", "fig04_microbench"])
def test_figure_without_scale_runs_at_repro_scale(name, monkeypatch):
    """Figures that build their own workloads read ``REPRO_SCALE`` too."""
    from repro.harness import experiments

    experiment = getattr(experiments, name)
    monkeypatch.setenv("REPRO_SCALE", str(SCALE))
    assert experiment().render() == experiment(scale=SCALE).render()


if __name__ == "__main__":
    if "--regen" in sys.argv:
        os.environ.pop("REPRO_STORE", None)
        os.environ.pop("REPRO_TRACE", None)
        GOLDEN.write_text(render_all())
        print(f"wrote {GOLDEN}")
