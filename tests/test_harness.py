import csv
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from sloopt.cli import main, parse_config_file
from sloopt.harness import (CSV_HEADER, ExperimentSpec, run_experiment,
                            summarize)


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


def test_summarize_rejects_bad_schema(tmp_path):
    path = tmp_path / "bad_round01.csv"
    with open(path, "w") as fh:
        fh.write("round,oops\n1,2\n")
    with pytest.raises(ValueError):
        summarize([str(path)])


def test_failed_method_recorded_and_others_proceed(tmp_path):
    # bpg without its required constants must fail; gd must still run
    spec = ExperimentSpec(problem="quartic", methods=("bpg", "gd"), rounds=1,
                          init_c=1.5, budget_evals=20, gd_step=0.05,
                          output_dir=str(tmp_path))
    summary = run_experiment(spec)
    assert "bpg/round1" in summary["errors"]
    assert "gd" in summary["methods"]
    assert not os.path.exists(tmp_path / "bpg_round01.csv")


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
    assert "DIVERGED gd/round1" in capsys.readouterr().out


def test_svg_chart_written_without_extra_csv(tmp_path):
    spec = ExperimentSpec(problem="quartic", methods=("gd",), init_c=1.5,
                          budget_evals=50, gd_step=0.05, svg=True,
                          output_dir=str(tmp_path))
    run_experiment(spec)
    root = ET.parse(tmp_path / "gd_round01.svg").getroot()
    assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == 2
    csvs = {name for name in os.listdir(tmp_path) if name.endswith(".csv")}
    assert csvs == {"gd_round01.csv", "summary.csv"}


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(rounds=0)
    with pytest.raises(ValueError):
        ExperimentSpec(methods=("nope",))
    with pytest.raises(ValueError):
        ExperimentSpec(problem="nope")


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


def test_cli_end_to_end(tmp_path, capsys):
    code = main(["--problem", "quartic", "--method", "ls", "--rounds", "1",
                 "--budget-evals", "200", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "ls" in out and "best_grad" in out
    assert os.path.exists(tmp_path / "ls_round01.csv")


def test_cli_reports_errors_with_nonzero_exit(tmp_path, capsys):
    code = main(["--problem", "quartic", "--method", "bpg", "--rounds", "1",
                 "--out", str(tmp_path)])
    assert code != 0


def test_cli_bad_flag_value(tmp_path, capsys):
    code = main(["--problem", "quartic", "--method", "gd", "--rounds", "0",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
