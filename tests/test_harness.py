import csv
import dataclasses
import math
import os
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sloopt import baselines, harness, problems
from sloopt.cli import main, parse_config_file
from sloopt.core import IterationRecord, ObjectiveOracle, Termination
from sloopt.harness import (CSV_HEADER, ExperimentSpec, _write_csv,
                            build_problem, run_experiment, summarize)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def strip_elapsed(rows):
    i = CSV_HEADER.index("elapsed_s")
    return [row[:i] + row[i + 1:] for row in rows]


def test_single_round_quartic_gd(tmp_path):
    spec = ExperimentSpec(problem="quartic", methods=("gd",), rounds=1,
                          budget_evals=10, init_c=1.5, gd_step=0.05,
                          output_dir=str(tmp_path))
    summary = run_experiment(spec)
    rows = read_rows(tmp_path / "gd_round01.csv")
    assert rows[0] == CSV_HEADER
    assert len(rows) >= 2
    stats = summary["methods"]["gd"]
    assert stats["best_grad_norm"] == stats["avg_grad_norm"]
    assert stats["best_f_gap"] == stats["avg_f_gap"]
    assert os.path.exists(tmp_path / "summary.txt")
    assert os.path.exists(tmp_path / "summary.csv")


def test_grad_evals_nondecreasing_in_csv(tmp_path):
    spec = ExperimentSpec(problem="quartic", methods=("pgd",), rounds=1,
                          init_c=1.5, budget_evals=500,
                          output_dir=str(tmp_path))
    run_experiment(spec)
    rows = read_rows(tmp_path / "pgd_round01.csv")[1:]
    evals = [int(r[3]) for r in rows]
    assert evals == sorted(evals)


def test_determinism_excluding_elapsed(tmp_path):
    kw = dict(problem="tensor", methods=("ls", "pgd"), rounds=2,
              budget_evals=2000, init_c=0.5, seed=3)
    a = ExperimentSpec(output_dir=str(tmp_path / "a"), **kw)
    b = ExperimentSpec(output_dir=str(tmp_path / "b"), **kw)
    run_experiment(a)
    run_experiment(b)
    for name in sorted(os.listdir(tmp_path / "a")):
        if not name.endswith(".csv") or name == "summary.csv":
            continue
        ra = strip_elapsed(read_rows(tmp_path / "a" / name))
        rb = strip_elapsed(read_rows(tmp_path / "b" / name))
        assert ra == rb, name


def test_rounds_share_initial_point_across_methods(tmp_path):
    spec = ExperimentSpec(problem="quartic", methods=("gd", "ls"), rounds=1,
                          init_c=1.5, budget_evals=100, gd_step=0.05,
                          output_dir=str(tmp_path))
    run_experiment(spec)
    f0_gd = read_rows(tmp_path / "gd_round01.csv")[1][5]
    f0_ls = read_rows(tmp_path / "ls_round01.csv")[1][5]
    assert f0_gd == f0_ls


def test_summarize_two_round_minima(tmp_path):
    for r, gmin in ((1, 1e-6), (2, 3e-6)):
        path = tmp_path / f"stub_round{r:02d}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_HEADER)
            w.writerow([r, 1, 0, 1, "0.0", 2.0, gmin * 5, 0.0])
            w.writerow([r, 1, 1, 2, "0.0", 1.0, gmin, 0.0])
    table = summarize([str(tmp_path / "stub_round01.csv"),
                       str(tmp_path / "stub_round02.csv")], f_star=0.0)
    stats = table["methods"]["stub"]
    assert stats["best_grad_norm"] == pytest.approx(1e-6)
    assert stats["avg_grad_norm"] == pytest.approx(2e-6)
    assert stats["best_f_gap"] == 1.0
    assert stats["avg_f_gap"] == 1.0


@pytest.mark.parametrize("kw,diverged", [
    (dict(problem="quartic", rounds=2, init_c=1.5, gd_step=0.05, budget_evals=300), []),
    (dict(problem="supervised"), ["gd/round1"]),  # gd diverges on the default instance
])
def test_summary_equals_summarize_of_written_csvs(tmp_path, kw, diverged):
    spec = ExperimentSpec(methods=("gd", "pgd"), output_dir=str(tmp_path), **kw)
    summary = run_experiment(spec)
    assert summary["diverged"] == diverged
    kept = [f"{m}_round{r:02d}.csv" for r in range(1, spec.rounds + 1) for m in spec.methods
            if f"{m}/round{r}" not in diverged]
    from_csv = summarize([str(tmp_path / name) for name in kept], f_star=build_problem(spec)[1])
    assert summary["f_star"] == from_csv["f_star"]
    assert summary["methods"] == from_csv["methods"]
    assert set(summary["methods"]) == {"gd", "pgd"} - {d.split("/")[0] for d in diverged}


def test_write_csv_bytes_equal_csv_writer(tmp_path):
    values = (-0.0, 5e-324, 1e300, 0.1, -2.5e-17, math.inf)
    trace = [IterationRecord(epoch=1 + i // 3, iter=i, f_value=values[i],
                             grad_norm=values[-1 - i], dist_from_anchor=values[i - 2],
                             cum_grad_evals=1_234_567 + i, elapsed_s=1e-7 * 10 ** i)
             for i in range(len(values))]
    _write_csv(tmp_path / "fast.csv", 3, trace)
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in trace:
            writer.writerow([3, rec.epoch, rec.iter, rec.cum_grad_evals,
                             "%.6f" % rec.elapsed_s, "%.17g" % rec.f_value,
                             "%.17g" % rec.grad_norm, "%.17g" % rec.dist_from_anchor])
    expected = (tmp_path / "reference.csv").read_bytes()
    assert b"\r\n" in expected and b"1234567" in expected and b"-0," in expected
    assert (tmp_path / "fast.csv").read_bytes() == expected


def test_record_fields_follow_the_csv_columns():
    # _write_csv formats a record positionally, so its fields must be the CSV's columns
    assert [{"cum_grad_evals": "grad_evals"}.get(f, f) for f in IterationRecord._fields] \
        == CSV_HEADER[1:]
    rec = IterationRecord(elapsed_s=0.5, dist_from_anchor=0.25, grad_norm=2.0, f_value=3.0,
                          cum_grad_evals=7, iter=1, epoch=2)
    assert (rec.epoch, rec.iter, rec.cum_grad_evals, rec.elapsed_s, rec.f_value,
            rec.grad_norm, rec.dist_from_anchor) == (2, 1, 7, 0.5, 3.0, 2.0, 0.25)
    assert tuple(rec) == (2, 1, 7, 0.5, 3.0, 2.0, 0.25)


@pytest.mark.parametrize("method", sorted(harness.METHODS))
def test_drive_rows_are_records_that_match_their_csv_rows(tmp_path, method):
    spec = ExperimentSpec(problem="quartic", methods=(method,), init_c=1.5, budget_evals=60,
                          bpg_n=4, bpg_l=10.0, output_dir=str(tmp_path))
    results, runner = [], spec.runners[method]
    spec.runners[method] = lambda oracle, x0: results.append(runner(oracle, x0)) or results[-1]
    run_experiment(spec)
    rows = read_rows(tmp_path / f"{method}_round01.csv")
    trace = results[0].trace
    assert len(trace) == len(rows) - 1 > 1
    for rec, row in zip(trace, rows[1:]):
        assert type(rec) is IterationRecord
        fields = rec._asdict()
        assert [str(fields[f]) for f in ("epoch", "iter", "cum_grad_evals")] == row[1:4]
        assert "%.6f" % rec.elapsed_s == row[4]
        assert [fields[f] for f in ("f_value", "grad_norm", "dist_from_anchor")] \
            == [float(v) for v in row[5:]]


def test_summarize_rejects_bad_schema(tmp_path):
    path = tmp_path / "bad_round01.csv"
    with open(path, "w") as fh:
        fh.write("round,oops\n1,2\n")
    with pytest.raises(ValueError):
        summarize([str(path)])


@pytest.mark.parametrize("name, text, read, message", [
    ("bad.cfg", "problem = quartic\nrounds 2\n", parse_config_file,
     "{path}:2: expected key=value, got 'rounds 2\\n'"),
    ("gd_round01.csv", ",".join(CSV_HEADER) + "\r\n", lambda path: summarize([path]),
     "{path}: no records"),
], ids=["config-line-without-equals", "csv-without-rows"])
def test_file_rejections_name_the_file_and_cause(tmp_path, name, text, read, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        read(str(path))
    assert str(info.value) == message.format(path=path)


def test_failed_method_recorded_and_others_proceed(tmp_path, monkeypatch, capsys):
    # a method that raises at run time is recorded as failed; gd must still run
    def fail(oracle, x0):
        raise RuntimeError("no step")

    monkeypatch.setitem(harness.METHODS, "bpg", lambda spec: fail)
    spec = ExperimentSpec(problem="quartic", methods=("bpg", "gd"), rounds=1,
                          init_c=1.5, budget_evals=20, gd_step=0.05, bpg_n=4, bpg_l=1.0,
                          output_dir=str(tmp_path / "api"))
    summary = run_experiment(spec)
    assert summary["errors"] == {"bpg/round1": "RuntimeError: no step"}
    assert "gd" in summary["methods"]
    assert not os.path.exists(tmp_path / "api" / "bpg_round01.csv")
    monkeypatch.setitem(harness.METHODS, "ls", lambda spec: fail)
    code = main(["--problem", "quartic", "--method", "ls,pgd", "--budget-evals", "200",
                 "--out", str(tmp_path / "cli")])
    assert code == 2
    out = capsys.readouterr().out
    assert "FAILED ls/round1: RuntimeError: no step" in out
    assert out == (tmp_path / "cli" / "summary.txt").read_text()
    assert os.path.exists(tmp_path / "cli" / "pgd_round01.csv")


def test_overflowing_start_fails_alike_with_warnings_as_errors(tmp_path):
    # ||x0||^2 overflows at init_c = 1e200: the value is inf and the gradient is not finite,
    # and no overflow warning turns that error into another
    spec = ExperimentSpec(problem="quartic", methods=tuple(harness.METHODS), init_c=1e200,
                          bpg_n=4, bpg_l=1.0, output_dir=str(tmp_path),
                          problem_params={"quartic_dim": 5})
    errors = []
    for action in ("default", "error"):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            errors.append(run_experiment(spec)["errors"])
    assert errors[0] == errors[1] == {
        f"{m}/round1": "EvaluationError: gradient contains NaN or infinite entries"
        for m in harness.METHODS}


def test_spec_settings_cannot_change_after_its_runners_are_built():
    # pgd's runner holds the SloConfig built from them, so a changed budget would reach gd only
    spec = ExperimentSpec(methods=("pgd", "gd"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.budget_evals = 5


def test_gp_descent_test_that_never_passes_is_a_failed_run(tmp_path, monkeypatch):
    class Rising(ObjectiveOracle):
        """Gradient of ||x||^2 / 2, but each value is above every earlier one."""
        dim, calls = 3, 0

        def value(self, x):
            self.calls += 1
            return float(self.calls)

        def gradient(self, x):
            return np.array(x, dtype=float)

    oracle = Rising()
    monkeypatch.setattr(harness, "build_problem", lambda spec: (oracle, None))
    summary = run_experiment(ExperimentSpec(methods=("pgd", "ls"), output_dir=str(tmp_path)))
    # each run gives up after its 201st trial point, and the experiment goes on
    errors = {run: msg.partition(" (")[0] for run, msg in summary["errors"].items()}
    assert errors == {f"{m}/round1": f"BacktrackBudgetError: {test} condition not met after 200"
                      f" backtracks" for m, test in (("pgd", "descent"), ("ls", "Armijo"))}
    assert oracle.calls == 2 * (1 + 201)
    assert "FAILED pgd/round1: BacktrackBudgetError" in (tmp_path / "summary.txt").read_text()


def test_diverged_run_is_reported_not_summarized(tmp_path, capsys):
    # gd with the default step blows up on the default supervised instance
    spec = ExperimentSpec(problem="supervised", methods=("gd", "pgd"),
                          output_dir=str(tmp_path / "api"))
    summary = run_experiment(spec)
    assert summary["diverged"] == ["gd/round1"]
    assert summary["errors"] == {}
    assert set(summary["methods"]) == {"pgd"}
    assert os.path.exists(tmp_path / "api" / "gd_round01.csv")
    assert "DIVERGED gd/round1" in (tmp_path / "api" / "summary.txt").read_text()
    code = main(["--problem", "supervised", "--method", "gd", "--out", str(tmp_path / "cli")])
    assert code == 0
    out = capsys.readouterr().out
    assert "DIVERGED gd/round1" in out
    assert out == (tmp_path / "cli" / "summary.txt").read_text()


def test_svg_chart_written_without_extra_csv(tmp_path):
    spec = ExperimentSpec(problem="quartic", methods=("gd",), init_c=1.5,
                          budget_evals=50, gd_step=0.05, svg=True,
                          output_dir=str(tmp_path))
    run_experiment(spec)
    root = ET.parse(tmp_path / "gd_round01.svg").getroot()
    assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == 2
    csvs = {name for name in os.listdir(tmp_path) if name.endswith(".csv")}
    assert csvs == {"gd_round01.csv", "summary.csv"}


def test_svg_chart_of_runs_without_a_finite_value(tmp_path):
    # from 1e100 the quartic's value and gradient overflow at the start: both runs
    # diverge at their first row, and each chart is written with empty series
    spec = ExperimentSpec(problem="quartic", methods=("gd", "pgd"), init_c=1e100, svg=True,
                          output_dir=str(tmp_path), problem_params={"quartic_dim": 50})
    summary = run_experiment(spec)
    assert summary["diverged"] == ["gd/round1", "pgd/round1"]
    assert (tmp_path / "summary.txt").read_text().splitlines()[1:] == [
        "DIVERGED gd/round1", "DIVERGED pgd/round1"]
    for method in ("gd", "pgd"):
        root = ET.parse(tmp_path / f"{method}_round01.svg").getroot()
        assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == 2


def test_ngd_run_whose_analytic_constant_overflows_fails_instead_of_stalling(tmp_path):
    # growth1(1e200) = 3e400 overflows: a step with L1 = inf would return its start, which
    # the gradient memo answers, so a_ng rejects the constant before the run stalls
    spec = ExperimentSpec(problem="quartic", methods=("ngd",), radius=1e200, init_c=1.0,
                          budget_seconds=5.0, output_dir=str(tmp_path),
                          problem_params={"quartic_dim": 5})
    summary = run_experiment(spec)
    assert summary["errors"] == {"ngd/round1": "ValueError: require a finite l1 >= 1 and d > 0"}


def test_steps_below_half_an_ulp_stall_instead_of_spinning(tmp_path, capsys):
    # at radius 1e10 the analytic L1 = 3(||x0|| + D)^2 is about 3e20, and gd's step is 1e-20:
    # each step returns its start, which the gradient memo answers without an evaluation,
    # so neither the evaluation budget nor the epoch ends these runs (budget_seconds is a
    # backstop)
    common = dict(problem="quartic", init_c=1.0, gd_step=1e-20, budget_seconds=10.0)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**common, "quartic_dim": 5}.items()))
    assert main(["--config", str(cfg), "--method", "pgd,ngd,gd", "--radius", "1e10",
                 "--out", str(tmp_path)]) == 0
    for method in ("pgd", "ngd", "gd"):
        rows = read_rows(tmp_path / f"{method}_round01.csv")[1:]
        assert [row[CSV_HEADER.index("grad_evals")] for row in rows] == ["1", "1"]
    # a stalled run is summarized like a budget stop
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == [
        "method", "gd", "ngd", "pgd"]
    spec = ExperimentSpec(methods=("pgd", "ngd", "gd"), radius=1e10, **common,
                          problem_params={"quartic_dim": 5})
    oracle, _ = build_problem(spec)
    x0 = problems.uniform_init(oracle.dim, spec.init_c, spec.seed + 1)
    assert {run(oracle, x0).termination for run in spec.runners.values()} == {Termination.Stalled}


def test_harness_runs_stop_at_their_evaluation_budget_not_a_hidden_cap(monkeypatch):
    spec = ExperimentSpec(problem="quartic", methods=("ngd", "gd", "bpg"), epsilon=1e-12,
                          radius=1e-6, init_c=0.5, budget_evals=25_000, bpg_n=4, bpg_l=1.0,
                          problem_params={"quartic_dim": 2})
    oracle, _ = build_problem(spec)
    x0 = problems.uniform_init(oracle.dim, spec.init_c, spec.seed + 1)
    # SloConfig's default of 10,000 epochs ended this run at 20,001 evaluations
    result = spec.runners["ngd"](oracle, x0)
    assert (result.termination, result.grad_evals) == (Termination.EvalBudget, 25_000)
    caps = {}
    monkeypatch.setattr(baselines, "gd_fixed", lambda *a, **kw: caps.update(gd=kw["max_iters"]))
    monkeypatch.setattr(baselines, "run_bpg",
                        lambda oracle, x0, config, **kw: caps.update(bpg=config.max_iters))
    spec.runners["gd"](oracle, x0)
    spec.runners["bpg"](oracle, x0)
    assert caps == {"gd": 25_000, "bpg": 25_000}


# the problems of tools/fault_scan.py
FAULT_SCAN_PROBLEMS = (("supervised", {}), ("autoencoder", {}), ("tensor", {}),
                       ("tensor", {"tensor_d": 8, "tensor_k": 5, "tensor_m": 3}),
                       ("quartic", {"quartic_dim": 50}))


@settings(max_examples=40, deadline=None)
@given(problem=st.sampled_from(FAULT_SCAN_PROBLEMS),
       method=st.sampled_from(sorted(harness.METHODS)), seed=st.integers(0, 3))
def test_every_row_after_the_first_costs_an_evaluation_unless_the_run_stalls(problem, method,
                                                                            seed):
    # what lets budget_evals cap a harness run's steps and epochs too
    name, params = problem
    spec = ExperimentSpec(problem=name, methods=(method,), epsilon=1e-6, radius=0.1, bpg_n=10,
                          bpg_l=10.0, seed=seed, budget_evals=2_000, budget_seconds=10.0,
                          problem_params=dict(params))
    oracle, _ = build_problem(spec)
    result = spec.runners[method](oracle, problems.uniform_init(oracle.dim, spec.init_c, seed + 1))
    assert len(result.trace) <= result.grad_evals + (result.termination is Termination.Stalled)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(rounds=0)
    with pytest.raises(ValueError):
        ExperimentSpec(methods=("nope",))
    with pytest.raises(ValueError):
        ExperimentSpec(problem="nope")
    with pytest.raises(ValueError, match="tensor_d"):
        ExperimentSpec(problem="quartic", problem_params={"tensor_d": 4})


@pytest.mark.parametrize("kw, message", [
    (dict(methods=("gd",), budget_evals=math.nan), "rounds and budget_evals must be >= 1"),
    (dict(methods=("bpg",), bpg_n=10, bpg_l=10.0, budget_evals=math.nan),
     "rounds and budget_evals must be >= 1"),
    (dict(rounds=1.5), "rounds must be an integer, got 1.5"),
    (dict(seed=1.5), "seed must be an integer, got 1.5"),
], ids=["budget-nan-gd", "budget-nan-bpg", "rounds-fraction", "seed-fraction"])
def test_spec_rejects_a_nan_budget_and_rounds_or_seed_that_are_not_integers(kw, message):
    # each of these used to be accepted, then failed as a run error or as a TypeError
    # inside run_experiment
    with pytest.raises(ValueError) as info:
        ExperimentSpec(**kw)
    assert str(info.value) == message
    ExperimentSpec(rounds=np.int64(2), seed=np.int64(3), budget_evals=1e5)
    ExperimentSpec(budget_evals=math.inf)


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# experiment\n"
        "problem = quartic\n"
        "method = gd,ls\n"
        "rounds = 2   # two rounds\n"
        "gd_step = 0.05\n"
        "quartic_dim = 2\n"
    )
    values = parse_config_file(str(cfg))
    assert values["problem"] == "quartic"
    assert values["rounds"] == "2"
    assert values["quartic_dim"] == "2"


def test_cli_rejects_config_keys_the_problem_does_not_read(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("problem = quartic\nbudget_eval = 5\nquartic_dimm = 7\n")
    code = main(["--config", str(cfg), "--method", "gd", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "budget_eval" in err and "quartic_dimm" in err
    assert not os.path.exists(tmp_path / "gd_round01.csv")


def test_cli_end_to_end(tmp_path, capsys):
    code = main(["--problem", "quartic", "--method", "ls", "--rounds", "1",
                 "--budget-evals", "200", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "ls" in out and "best_grad" in out
    assert out == (tmp_path / "summary.txt").read_text()
    assert os.path.exists(tmp_path / "ls_round01.csv")


def test_cli_budget_is_a_hard_cap(tmp_path, monkeypatch, capsys):
    # ngd on the default supervised net: at 5000 the budget falls inside an
    # L1 estimate; a budget checked only between steps would end at 5003
    from sloopt import problems, slo
    from sloopt.core import Termination

    calls, results = [], []
    gradient, run_slo = problems.LinearNetProblem.gradient, slo.run_slo
    monkeypatch.setattr(problems.LinearNetProblem, "gradient",
                        lambda self, w: calls.append(1) or gradient(self, w))
    monkeypatch.setattr(slo, "run_slo", lambda *a: results.append(run_slo(*a)) or results[-1])
    code = main(["--problem", "supervised", "--method", "ngd", "--budget-evals", "5000",
                 "--out", str(tmp_path)])
    assert code == 0
    assert [r.termination for r in results] == [Termination.EvalBudget]
    last = read_rows(tmp_path / "ngd_round01.csv")[-1]
    assert int(last[CSV_HEADER.index("grad_evals")]) <= len(calls) == 5000
    # the trace misses the interrupted estimate's evaluations; the result does not
    assert results[0].grad_evals == len(calls) == 5000


def test_cli_agp_on_the_default_supervised_net_exits_zero(tmp_path, capsys):
    # a too-small starting L1 on this net must be doubled, not end the run with AgpError
    code = main(["--problem", "supervised", "--method", "agp", "--seed", "0",
                 "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0 and "FAILED" not in out and "agp" in out


def test_cli_reports_errors_with_nonzero_exit(tmp_path, capsys):
    code = main(["--problem", "quartic", "--method", "bpg", "--rounds", "1",
                 "--out", str(tmp_path)])
    assert code != 0


def test_cli_bad_flag_value(tmp_path, capsys):
    code = main(["--problem", "quartic", "--method", "gd", "--rounds", "0",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


CONFIG_FILES = {"layers.cfg": "net_layers = 6\n", "gd_step.cfg": "gd_step = -1\n",
                "gd_nan.cfg": "gd_step = nan\n", "bpg_n.cfg": "bpg_n = 1\nbpg_l = 1.0\n",
                "gd_inf.cfg": "gd_step = inf\n", "bpg_l.cfg": "bpg_n = 4\nbpg_l = nan\n",
                "bpg_l_inf.cfg": "bpg_n = 4\nbpg_l = inf\n", "init_nan.cfg": "init_c = nan\n",
                "init_inf.cfg": "init_c = inf\n", "init_negative.cfg": "init_c = -1\n"}


@pytest.mark.parametrize("args, message", [
    (["--problem", "autoencoder", "--config", "layers.cfg"],
     "ValueError: layer_dims must list at least one layer"),
    (["--problem", "supervised", "--config", "layers.cfg"],
     "ValueError: layer_dims must list at least one layer"),
    (["--problem", "quartic", "--epsilon", "-1"], "ValueError: epsilon must be positive"),
    (["--problem", "quartic", "--budget-evals", "0"],
     "ValueError: rounds and budget_evals must be >= 1"),
    (["--problem", "quartic", "--budget-seconds", "0"],
     "ValueError: budget_seconds must be positive"),
    (["--problem", "quartic", "--budget-seconds", "nan"],
     "ValueError: budget_seconds must be positive"),
    (["--problem", "quartic", "--config", "gd_step.cfg"], "ValueError: gd_step must be positive"),
    (["--problem", "quartic", "--config", "gd_nan.cfg"], "ValueError: gd_step must be positive"),
    (["--problem", "quartic", "--config", "gd_inf.cfg"], "ValueError: gd_step must be positive"),
    (["--problem", "quartic", "--method", "bpg,gd"],
     "ValueError: bpg requires bpg_n and bpg_l"),
    (["--problem", "quartic", "--method", "bpg,gd", "--config", "bpg_n.cfg"],
     "ValueError: poly_degree_n must be >= 2"),
    (["--problem", "quartic", "--method", "bpg,gd", "--config", "bpg_l.cfg"],
     "ValueError: l_relative must be positive"),
    (["--problem", "quartic", "--method", "bpg,gd", "--config", "bpg_l_inf.cfg"],
     "ValueError: l_relative must be positive"),
    # ngd with a budget, so that a run these settings reach fails instead of hanging
    *[(["--problem", "quartic", "--method", "ngd", "--budget-seconds", "5", flag, "inf"],
       "ValueError: epsilon, radius and margin must be finite")
      for flag in ("--epsilon", "--radius", "--margin")],
    # a finite margin whose NGD epoch ball overflows: D = sqrt(eps)/2 + 2 * 1e308 = inf
    (["--problem", "quartic", "--method", "ngd,pgd", "--budget-seconds", "5", "--margin", "1e308"],
     "ValueError: radius_D must be positive and finite"),
    *[(["--problem", "quartic", "--config", name], "ValueError: init_c must be finite and >= 0")
      for name in ("init_nan.cfg", "init_inf.cfg", "init_negative.cfg")],
    (["--problem", "tensor", "--method", "pgd", "--seed", "-1"], "ValueError: seed must be >= 0"),
    (["--problem", "quartic", "--method", "pgd,pgd"], "ValueError: duplicate methods: ['pgd']"),
], ids=["net-one-width-autoencoder", "net-one-width-supervised", "epsilon", "budget-evals",
        "budget-seconds-zero", "budget-seconds-nan", "gd-step-negative", "gd-step-nan",
        "gd-step-inf", "bpg-missing-constants", "bpg-degree-one", "bpg-l-nan", "bpg-l-inf",
        "epsilon-inf", "radius-inf", "margin-inf", "margin-overflows-the-ball", "init-c-nan",
        "init-c-inf", "init-c-negative", "seed-negative", "method-repeated"])
def test_cli_reports_configuration_errors_before_any_run(tmp_path, capsys, args, message):
    for name, text in CONFIG_FILES.items():
        (tmp_path / name).write_text(text)
    args = [str(tmp_path / a) if a in CONFIG_FILES else a for a in args]
    if "--method" not in args:
        args += ["--method", "gd,pgd"]
    code = main(args + ["--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list((tmp_path / "out").glob("*.csv"))
