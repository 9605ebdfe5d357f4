"""The gain rule of tools/benchpair.py, on made-up pairs of runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "benchpair.py"
_SPEC = importlib.util.spec_from_file_location("benchpair", _PATH)
benchpair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(benchpair)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "rate", "unit": "1/s", "better": "higher"}


def runs(a_values, b_values, name="wall_s", b_failed=0):
    """Pairs of runs of 100 operations each; B's first run fails b_failed of them."""
    return [
        {
            "a": {"metrics": {name: a}, "attempted": 100, "failed": 0},
            "b": {"metrics": {name: b}, "attempted": 100, "failed": b_failed if i == 0 else 0},
        }
        for i, (a, b) in enumerate(zip(a_values, b_values))
    ]


PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.03, 0.97]


def test_nine_wins_and_a_median_gap_past_the_iqr_is_a_gain():
    change = [0.80] * 9 + [1.05]
    s = benchpair.summarize(runs(PARENT, change), [WALL])["wall_s"]
    assert s["b_wins"] == 9 and s["gain"]
    assert s["a"]["median"] == pytest.approx(1.0)
    assert s["change"] == pytest.approx(-0.2)


def test_eight_wins_is_no_gain():
    change = [0.80] * 8 + [1.05, 1.05]
    s = benchpair.summarize(runs(PARENT, change), [WALL])["wall_s"]
    assert s["b_wins"] == 8 and not s["gain"]


def test_a_gap_inside_the_parent_iqr_is_no_gain():
    change = [a - 0.005 for a in PARENT]
    s = benchpair.summarize(runs(PARENT, change), [WALL])["wall_s"]
    assert s["b_wins"] == 10 and not s["gain"]


def test_higher_is_better_counts_the_other_way_and_ties_count_for_neither():
    s = benchpair.summarize(runs([1.0, 1.0, 1.0], [2.0, 2.0, 1.0], "rate"), [RATE])["rate"]
    assert s["b_wins"] == 2 and not s["gain"]


@pytest.mark.parametrize("pairs", [1, 9])
def test_fewer_than_ten_pairs_is_no_gain_however_they_fall(pairs):
    s = benchpair.summarize(runs(PARENT[:pairs], [0.5] * pairs), [WALL])["wall_s"]
    assert s["b_wins"] == pairs and not s["gain"]


def test_a_larger_share_of_failed_operations_is_no_gain():
    change = [0.80] * 10
    assert benchpair.summarize(runs(PARENT, change), [WALL])["wall_s"]["gain"]
    s = benchpair.summarize(runs(PARENT, change, b_failed=1), [WALL])["wall_s"]
    assert s["b_wins"] == 10 and not s["gain"]


def test_a_failed_share_no_larger_than_the_parents_still_counts():
    pairs = runs(PARENT, [0.80] * 10, b_failed=1)
    pairs[0]["a"]["failed"] = 1
    pairs[1]["b"]["attempted"] = 200
    assert benchpair.summarize(pairs, [WALL])["wall_s"]["gain"]


def test_one_pair_has_degenerate_quartiles():
    assert benchpair.quartiles([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0}
