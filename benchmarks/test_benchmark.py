"""Tests of the benchmark itself: tiny runs through the real code path, and
every output check fed a deliberately corrupted output.

    python3 -m pytest benchmarks -q
"""

import csv
import io
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
from sloopt import harness  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Instrument  # noqa: E402
from workloads import (METHODS, WORKLOADS, check_solve, read_trace,  # noqa: E402
                       reference)

SEED = 7
# The benchmark's instances with a looser tolerance and one round, so that a
# repetition takes a second or two.
TINY = {name: replace(wl, rounds=1, epsilon=1e-6 if wl.problem == "quartic" else 1e-3)
        for name, wl in WORKLOADS.items()}
# At eps = 1e-3 the agp ball on the tensor is 6 * eps^(1/4) = 1.07 wide, and
# agp runs into its evaluation budget there, for minutes.
TINY_METHODS = {"tensor-k5": tuple(m for m in METHODS if m != "agp")}


def solve_once(wl, method, out_dir):
    """One run_experiment call for one round: (CSV text, RunResult, oracle gradient calls)."""
    inst = Instrument(traced=True)
    spec = harness.ExperimentSpec(methods=(method,), output_dir=str(out_dir),
                                  **wl.spec_kwargs(SEED))
    with inst.call(method):
        summary = harness.run_experiment(spec)
    assert not summary["errors"]
    return (Path(out_dir) / f"{method}_round01.csv").read_text(), inst.results[1], inst.grad_calls[1]


def edit_last_row(text, column, value):
    rows = list(csv.reader(io.StringIO(text)))
    rows[-1][column] = value
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_repetition_passes_every_check(name, traced, tmp_path):
    methods = TINY_METHODS.get(name, METHODS)
    with SpeedProbe() as probe:
        rep = measure.run_repetition(TINY[name], SEED, methods, tmp_path, traced)
    rep.time_calls(probe)
    assert [(s.method, s.round) for s in rep.solves] == [(m, 1) for m in methods]
    for s in rep.solves:
        assert s.error is None and s.failures == [], (s.method, s.error, s.failures)
        assert s.termination == "gradient_tolerance" and s.grad_evals > 0
    assert set(rep.solve_s) == set(methods)
    if traced:
        layers = rep.layers
        assert layers["problems.gradient.calls"] == sum(s.grad_evals for s in rep.solves)
        assert layers["harness.trace_rows"] == sum(s.rows for s in rep.solves)
        assert layers["slo.iters"] > 0 and layers["baselines.bpg_subproblem.calls"] > 0
        assert layers["slo.value_calls"] == sum(s.rows for s in rep.solves
                                                if s.method not in ("gd", "bpg"))
        assert (layers["lipschitz.grad_evals"] == 0) == (name == "quartic-50")
        assert (tmp_path / "spans.csv").is_file()


def test_main_prints_the_declared_metrics(tmp_path, monkeypatch, capsys):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    (tmp_path / "src").symlink_to(ROOT / "src")
    monkeypatch.setitem(measure.WORKLOADS, "quartic-50", TINY["quartic-50"])
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        assert measure.main(["--workload", "quartic-50", "--seconds", "0",
                             "--trace", str(trace)], tmp_path) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == len(TINY["quartic-50"].repetition()) * (1 + trace)
        units = {m["name"]: m["unit"] for m in declared[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "net-ae",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


OUTPUT_METHOD = {"quartic-50": "pgd", "net-ae": "gd", "tensor-k5": "ls"}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A genuine (workload, method) -> (CSV text, RunResult, gradient calls) set."""
    return {name: solve_once(TINY[name], method, tmp_path_factory.mktemp(name))
            for name, method in OUTPUT_METHOD.items()}


def checks(name, text, point=None, grad_calls=None, outputs=None):
    _, result, genuine_calls = outputs[name]
    wl = TINY[name]
    return check_solve(wl, reference(wl, SEED), OUTPUT_METHOD[name], 1, read_trace(text),
                       result.final_point if point is None else point,
                       genuine_calls if grad_calls is None else grad_calls)


@pytest.mark.parametrize("name", ["quartic-50", "net-ae", "tensor-k5"])
def test_genuine_outputs_pass(name, outputs):
    assert checks(name, outputs[name][0], outputs=outputs) == []


def test_rejects_final_grad_norm_above_tolerance(outputs):
    text = edit_last_row(outputs["net-ae"][0], 6, "0.2")
    assert any("not below sqrt(eps)" in f for f in checks("net-ae", text, outputs=outputs))


def test_rejects_grad_evals_off_by_one(outputs):
    text, _, calls = outputs["tensor-k5"]
    fails = checks("tensor-k5", text, grad_calls=calls + 1, outputs=outputs)
    assert any("oracle gradient calls" in f for f in fails)


def test_rejects_f_below_eckart_young_bound(outputs):
    bound = reference(TINY["net-ae"], SEED).lower_bound
    text = edit_last_row(outputs["net-ae"][0], 5, repr(bound * (1 - 1e-6)))
    assert any("below the lower bound" in f for f in checks("net-ae", text, outputs=outputs))


def test_rejects_grad_norm_that_finite_differences_contradict(outputs):
    text = outputs["net-ae"][0]
    g = float(list(csv.reader(io.StringIO(text)))[-1][6])
    fails = checks("net-ae", edit_last_row(text, 6, repr(g * 0.9)), outputs=outputs)
    assert any("finite differences" in f for f in fails)


def test_rejects_final_point_that_does_not_match_the_trace(outputs):
    point = outputs["tensor-k5"][1].final_point * 1.01
    fails = checks("tensor-k5", outputs["tensor-k5"][0], point=point, outputs=outputs)
    assert any("!= f(final point)" in f for f in fails)


def test_rejects_ascent_from_x0(outputs):
    x0 = reference(TINY["quartic-50"], SEED).x0(1)
    fails = checks("quartic-50", outputs["quartic-50"][0], point=1.1 * x0, outputs=outputs)
    assert any("exceeds f(x0)" in f for f in fails)


def test_rejects_first_row_that_is_not_f_x0(outputs):
    rows = list(csv.reader(io.StringIO(outputs["quartic-50"][0])))
    rows[1][5] = repr(float(rows[1][5]) * 1.001)
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    assert any("!= f(x0)" in f for f in checks("quartic-50", out.getvalue(), outputs=outputs))


def test_rejects_quartic_grad_norm_other_than_norm_cubed(outputs):
    text = outputs["quartic-50"][0]
    g = float(list(csv.reader(io.StringIO(text)))[-1][6])
    fails = checks("quartic-50", edit_last_row(text, 6, repr(g * (1 + 1e-9))), outputs=outputs)
    assert any("||x||^3" in f for f in fails)


def test_rejects_row_outside_the_epoch_ball(outputs):
    text = edit_last_row(outputs["quartic-50"][0], 7, "0.2")
    assert any("exceeds D" in f for f in checks("quartic-50", text, outputs=outputs))


def test_rejects_wrong_csv_header(outputs):
    text = outputs["quartic-50"][0].replace("grad_norm", "gradnorm", 1)
    assert checks("quartic-50", text, outputs=outputs)[0].startswith("CSV header")


def test_rejects_trace_that_differs_from_the_first_repetition():
    first = measure.Repetition(False, [measure.Solve("gd", 1, digest="a")])
    same = measure.Repetition(True, [measure.Solve("gd", 1, digest="a")])
    other = measure.Repetition(True, [measure.Solve("gd", 1, digest="b")])
    measure.compare_to_first([first, same, other])
    assert not same.solves[0].failed
    assert other.solves[0].failed and "traced solve differs" in other.solves[0].failures[0]


def test_elapsed_column_is_left_out_of_the_digest(outputs):
    text = outputs["quartic-50"][0]
    assert read_trace(edit_last_row(text, 4, "99.0")).digest == read_trace(text).digest
    assert read_trace(edit_last_row(text, 3, "1")).digest != read_trace(text).digest


def test_reference_objectives_match_the_program():
    for wl in WORKLOADS.values():
        ref = reference(wl, SEED)
        spec = harness.ExperimentSpec(methods=("ls",), **wl.spec_kwargs(SEED))
        oracle, _ = harness.build_problem(spec)
        x0 = ref.x0(1)
        assert math.isclose(ref.f(x0), oracle.value(x0), rel_tol=1e-12)
