"""The aggregation of tools/bench.py, fed canned ``benchmarks/run.py`` output: no subprocess."""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

_path = Path(__file__).resolve().parent.parent / "tools" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", _path)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _stdout(solve_s, grad_evals, correct=True, failed=0):
    """What run.py prints: a report line, then the result line."""
    report = {"workload": "quartic-50", "environment": {"python": "3.11.7"}}
    result = {"correct": correct, "attempted": 7, "failed": failed,
              "metrics": {"solve_s.gd": {"value": solve_s, "unit": "s"},
                          "grad_evals.gd": {"value": grad_evals, "unit": "count"}}}
    return "progress\n" + json.dumps(report) + "\n" + json.dumps(result) + "\n"


def _traced_stdout(gradient_us, correct=True):
    """What run.py --trace 1 prints: a report line, then a result line of per-layer figures."""
    result = {"correct": correct, "attempted": 14, "failed": 0,
              "metrics": {"problems.gradient.us": {"value": gradient_us, "unit": "us"},
                          "slo.iters": {"value": 500, "unit": "count"}}}
    return json.dumps({"workload": "net-ae"}) + "\n" + json.dumps(result) + "\n"


def test_parse_reads_the_last_two_lines():
    report, result = bench.parse(_stdout(0.5, 100))
    assert report["environment"] == {"python": "3.11.7"}
    assert result["metrics"]["solve_s.gd"] == {"value": 0.5, "unit": "s"}


def test_aggregate_gives_medians_quartiles_and_the_runs():
    times = [0.9, 0.8, 1.0, 0.7, 1.1]
    results = {seed: bench.parse(_stdout(t, 107696))[1] for seed, t in zip(range(1, 6), times)}
    agg = bench.aggregate(results)
    solve = agg["end_to_end"]["solve_s.gd"]
    assert (solve["median"], solve["n"], solve["unit"]) == (0.9, 5, "s")
    assert (solve["q1"], solve["q3"]) == pytest.approx((0.8, 1.0))
    assert agg["end_to_end"]["grad_evals.gd"] == {"median": 107696, "q1": 107696,
                                                  "q3": 107696, "n": 5, "unit": "count"}
    assert [r["seed"] for r in agg["runs"]] == [1, 2, 3, 4, 5]
    assert agg["correct"] is True and agg["failed"] == 0


def test_one_incorrect_run_makes_the_workload_incorrect():
    results = {1: bench.parse(_stdout(0.5, 10))[1],
               2: bench.parse(_stdout(0.6, 10, correct=False, failed=2))[1]}
    agg = bench.aggregate(results)
    assert agg["correct"] is False and agg["failed"] == 2
    assert [(r["correct"], r["failed"]) for r in agg["runs"]] == [(True, 0), (False, 2)]
    assert agg["end_to_end"]["solve_s.gd"]["median"] == pytest.approx(0.55)


def test_exact_counts_sum_the_rounds_of_each_experiment():
    def experiments(tmp):  # output_digest.experiments' tuples, canned
        for seed, name, method, rounds, errors in [
                (7, "quartic-50", "gd", [(3, 4), (5, 6)], {}),
                (7, "net-ae", "gd", [(1, 0)], {"gd/round1": "EvaluationError: f"}),
                (3, "quartic-50", "ls", [], {})]:
            results = [SimpleNamespace(grad_evals=g, value_evals=v) for g, v in rounds]
            yield seed, name, method, tmp / name, {"errors": errors}, results
    assert bench.exact_counts(experiments) == {
        "quartic-50": {7: {"gd": {"grad_evals": 8, "value_evals": 10, "errors": {}}},
                       3: {"ls": {"grad_evals": 0, "value_evals": 0, "errors": {}}}},
        "net-ae": {7: {"gd": {"grad_evals": 1, "value_evals": 0,
                              "errors": {"gd/round1": "EvaluationError: f"}}}}}


def test_traced_runs_aggregate_to_layer_quartiles():
    us = [13.2, 22.3, 24.1, 16.5, 8.8]
    layers = bench.aggregate({seed: bench.parse(_traced_stdout(u))[1]
                              for seed, u in zip(bench.TRACED_SEEDS, us)})
    assert layers["end_to_end"]["problems.gradient.us"] == pytest.approx(
        {"median": 16.5, "q1": 13.2, "q3": 22.3, "n": 5, "unit": "us"})
    assert layers["end_to_end"]["slo.iters"]["median"] == 500
    assert [r["seed"] for r in layers["runs"]] == [1, 3, 5, 7, 9] and layers["correct"]


def test_main_traces_five_seeds_each_next_to_its_untraced_run(tmp_path, monkeypatch):
    calls = []

    def run(workload, seed, trace):  # canned run.py output: no subprocess
        calls.append((workload, seed, trace))
        return _traced_stdout(float(seed), correct=seed != 9) if trace else _stdout(0.5, 100)

    def experiments(tmp):  # one canned output_digest experiment per workload
        from workloads import WORKLOADS
        return ((7, name, "gd", tmp, {"errors": {}}, []) for name in WORKLOADS)

    monkeypatch.setattr(bench, "run", run)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "output_digest",
                        SimpleNamespace(SEEDS=(7, 3), experiments=experiments))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    assert bench.main(["--out", str(tmp_path / "BENCH.json")]) == 0
    out = json.loads((tmp_path / "BENCH.json").read_text())
    names = list(dict.fromkeys(w for w, _, _ in calls))  # WORKLOADS' order; the file sorts
    assert sorted(names) == list(out["workloads"]) and len(names) == 3
    assert calls == [(name, seed, trace) for seed in range(1, 11) for name in names
                     for trace in ((0, 1) if seed % 2 else (0,))]
    assert out["traced_seeds"] == [1, 3, 5, 7, 9] and "traced_seed" not in out
    for w in out["workloads"].values():
        assert w["layers"]["problems.gradient.us"] == {"median": 5.0, "q1": 3.0, "q3": 7.0,
                                                       "n": 5, "unit": "us"}
        assert w["layers_correct"] is False  # the seed-9 traced run failed its checks
        assert w["end_to_end"]["solve_s.gd"]["n"] == 10
