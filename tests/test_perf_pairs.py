"""The statistics of ``tools/perf_pairs.py``, on canned perfbench lines."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import perf_pairs  # noqa: E402

DIRECTIONS = perf_pairs.metric_directions(
    {
        "end_to_end": [
            {"name": "events_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        ],
        "per_layer": [{"name": "gpu.self_s", "unit": "s", "better": "lower"}],
    }
)


def line(**values) -> str:
    """One perfbench result line, with a chatty line above it."""
    metrics = {name: {"value": value, "unit": "x"} for name, value in values.items()}
    result = {"correct": True, "attempted": 36, "failed": 0, "metrics": metrics}
    return "== regular-sweep (end to end)\n" + json.dumps(result) + "\n\n"


def pairs_of(parent_values, change_values, name="events_per_s"):
    return [
        (
            perf_pairs.parse_result(line(**{name: p})),
            perf_pairs.parse_result(line(**{name: c})),
        )
        for p, c in zip(parent_values, change_values)
    ]


def only(summaries):
    (summary,) = summaries
    return summary


def test_parse_result_reads_the_last_line():
    assert perf_pairs.parse_result(line(wall_s=1.5))["metrics"]["wall_s"]["value"] == 1.5
    with pytest.raises(ValueError):
        perf_pairs.parse_result("\n \n")


def test_quartiles_are_inclusive():
    assert perf_pairs.quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    assert perf_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_clear_gain_is_claimed():
    parent = [80, 81, 82, 83, 84, 80, 81, 82, 83, 84]
    change = [v + 8 for v in parent]
    summary = only(perf_pairs.summarise(pairs_of(parent, change), DIRECTIONS))
    assert summary.wins == 10 and summary.pairs == 10
    assert summary.parent == (81.0, 82.0, 83.0)
    assert summary.gap == 8
    assert summary.gain
    assert summary.beyond_bound is False


def test_two_losses_in_ten_block_the_claim():
    parent = [80] * 10
    change = [90] * 8 + [79, 80]  # one loss, one tie: 8 wins of 10
    summary = only(perf_pairs.summarise(pairs_of(parent, change), DIRECTIONS))
    assert summary.wins == 8
    assert not summary.gain


def test_gap_inside_the_parent_iqr_blocks_the_claim():
    parent = [70, 75, 80, 85, 90, 70, 75, 80, 85, 90]
    change = [v + 3 for v in parent]  # wins every pair; IQR is 10
    summary = only(perf_pairs.summarise(pairs_of(parent, change), DIRECTIONS))
    assert summary.wins == 10
    assert summary.parent_iqr == 10
    assert not summary.gain


def test_lower_is_better_and_the_bound():
    parent = [1.0] * 10
    faster = only(perf_pairs.summarise(pairs_of(parent, [0.9] * 10, "wall_s"), DIRECTIONS))
    assert faster.wins == 10 and faster.gain
    slower = only(perf_pairs.summarise(pairs_of(parent, [1.3] * 10, "wall_s"), DIRECTIONS))
    assert slower.wins == 0 and not slower.gain
    assert slower.beyond_bound is True
    unbounded = only(
        perf_pairs.summarise(pairs_of(parent, [1.3] * 10, "gpu.self_s"), DIRECTIONS)
    )
    assert unbounded.beyond_bound is None


def test_unknown_metrics_are_skipped_and_the_table_prints():
    pairs = [
        (
            perf_pairs.parse_result(line(events_per_s=80, mystery=1)),
            perf_pairs.parse_result(line(events_per_s=90, mystery=2)),
        )
    ]
    summaries = perf_pairs.summarise(pairs, DIRECTIONS)
    assert [s.name for s in summaries] == ["events_per_s"]
    table = perf_pairs.format_table(summaries)
    assert "events_per_s" in table and "+12.5%" in table and "1/1" in table
