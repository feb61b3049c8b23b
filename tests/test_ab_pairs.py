"""The table of tools/ab_pairs.py, fed canned benchmark results: the rule by which a
performance change is called a gain."""

import importlib.util
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _path)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

LOWER = [{"name": "solve_s.bpg", "unit": "s", "better": "lower", "bound": 0.25}]
HIGHER = [{"name": "solve_s.bpg", "unit": "s", "better": "higher", "bound": 0.25}]
BASE = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # q1 1.0225, q3 1.0675


def _runs(values, correct=True, failed=0):
    return [{"metrics": {"solve_s.bpg": {"value": v}}, "correct": correct, "failed": failed}
            for v in values]


def _row(base, head, metrics=LOWER):
    """(change, wins, gain) of the table's one metric row."""
    lines = ab_pairs.report({"base": _runs(base), "head": _runs(head)}, metrics)
    assert len(lines) == 3 and lines[1].split()[0] == "solve_s.bpg"
    return tuple(lines[1].split()[-3:])


def test_nine_wins_in_ten_and_a_gap_above_the_base_iqr_is_a_gain():
    head = [b - 0.2 for b in BASE[:9]] + [BASE[9] + 0.1]
    assert _row(BASE, head) == ("-19.1%", "9/10", "yes")


def test_eight_wins_in_ten_is_no_gain_however_large_the_gap():
    head = [b - 0.5 for b in BASE[:8]] + [b + 0.1 for b in BASE[8:]]
    assert _row(BASE, head)[1:] == ("8/10", "-")


def test_a_gap_no_larger_than_the_base_iqr_is_no_gain():
    base = [1.0] * 5 + [2.0] * 5  # q1 1, median 1.5, q3 2
    assert _row(base, [b - 1.0 for b in base]) == ("-66.7%", "10/10", "-")  # gap 1 = iqr
    assert _row(base, [b - 1.25 for b in base])[1:] == ("10/10", "yes")


def test_ties_count_for_neither_side():
    head = [b - 0.2 for b in BASE]
    assert _row(BASE, BASE[:1] + head[1:])[1:] == ("9/10", "yes")
    assert _row(BASE, BASE[:2] + head[2:])[1:] == ("8/10", "-")
    assert _row(BASE, BASE) == ("+0.0%", "0/10", "-")


def test_better_higher_flips_the_sign():
    lower = [b - 0.2 for b in BASE]
    assert _row(BASE, lower, HIGHER) == ("-19.1%", "0/10", "-")
    assert _row(lower, BASE, HIGHER)[1:] == ("10/10", "yes")


def test_a_metric_missing_from_any_run_gets_no_row():
    results = {"base": _runs(BASE), "head": _runs(BASE)}
    del results["head"][3]["metrics"]["solve_s.bpg"]
    assert ab_pairs.report(results, LOWER)[1].startswith("base: ")


def test_the_health_line_sums_correct_runs_and_failed_operations():
    results = {"base": _runs([1.0, 1.0, 1.0], failed=2),
               "head": _runs([1.0, 1.0], failed=0) + _runs([1.0], correct=False, failed=5)}
    assert ab_pairs.report(results, LOWER)[-1] == (
        "base: 3/3 correct, 6 failed operations, head: 2/3 correct, 5 failed operations")


@pytest.mark.parametrize("value", [0.0, 2.5])
def test_quartiles_of_one_value(value):
    assert ab_pairs.quartiles([value]) == (value, value, value)


def test_quartiles_are_inclusive():
    assert ab_pairs.quartiles(BASE) == pytest.approx((1.0225, 1.045, 1.0675))
