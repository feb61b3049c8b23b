"""Experiment runner: multi-round benchmarks with per-run CSV traces and
best/average summaries."""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import baselines, problems, slo
from .core import SloConfig, Subroutine, Termination

CSV_HEADER = ["round", "epoch", "iter", "grad_evals", "elapsed_s",
              "f_value", "grad_norm", "dist_from_anchor"]


@dataclass
class ExperimentSpec:
    problem: str = "quartic"
    methods: tuple = ("pgd",)
    rounds: int = 1
    epsilon: float = 1e-6
    radius: float = 0.1
    margin: float = 0.0
    init_c: float = 0.1
    seed: int = 0
    budget_evals: int = 10_000
    budget_seconds: float | None = None
    output_dir: str = "results"
    gd_step: float = 1e-3
    bpg_n: int | None = None
    bpg_l: float | None = None
    svg: bool = False
    problem_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem: {self.problem}")


def _tensor_problem(spec: ExperimentSpec, p: dict):
    prob, _ = problems.generate_planted_tensor(
        int(p.get("tensor_d", 4)), int(p.get("tensor_k", 3)), int(p.get("tensor_m", 2)),
        float(p.get("scale_low", 0.5)), float(p.get("scale_high", 1.5)), spec.seed)
    return prob, 0.0


def _net_problem(spec: ExperimentSpec, p: dict):
    # net_layers lists the layer widths input-first, e.g. "6,4,4,6"
    widths = [int(v) for v in str(p.get("net_layers", "6,4,4,6")).split(",")]
    shapes = [(widths[i + 1], widths[i]) for i in range(len(widths) - 1)]
    n_samples = int(p.get("net_samples", 50))
    rng = np.random.default_rng(spec.seed)
    data_x = rng.standard_normal((widths[0], n_samples))
    if spec.problem == "autoencoder":
        return problems.LinearNetProblem(data_x, shapes, "autoencoder"), None
    labels, _ = problems.generate_planted_labels(shapes, data_x, spec.seed + 1)
    return problems.LinearNetProblem(data_x, shapes, "supervised", labels), 0.0


# The problem names: each maps (spec, problem_params) to (oracle, f_star or None).
PROBLEMS = {"tensor": _tensor_problem, "autoencoder": _net_problem, "supervised": _net_problem,
            "quartic": lambda spec, p: (problems.QuarticProblem(int(p.get("quartic_dim", 1))), 0.0)}


def build_problem(spec: ExperimentSpec):
    """Instantiate the oracle; returns (oracle, f_star or None)."""
    return PROBLEMS[spec.problem](spec, spec.problem_params)


def _run_gd(spec: ExperimentSpec, oracle, x0):
    return baselines.gd_fixed(
        oracle, x0, spec.gd_step, stop_grad_tol=math.sqrt(spec.epsilon),
        max_grad_evals=spec.budget_evals, time_budget_s=spec.budget_seconds)


def _run_bpg(spec: ExperimentSpec, oracle, x0):
    if spec.bpg_l is None or spec.bpg_n is None:
        raise ValueError("bpg requires bpg_n and bpg_l")
    config = baselines.BpgConfig(spec.bpg_n, spec.bpg_l, stop_grad_tol=math.sqrt(spec.epsilon))
    return baselines.run_bpg(oracle, x0, config, max_grad_evals=spec.budget_evals,
                             time_budget_s=spec.budget_seconds)


def _run_slo(sub: Subroutine):
    """Runner of the epoch solver with subroutine ``sub``; the spec's radius
    and margin are widened to what the subroutine requires."""
    def run(spec: ExperimentSpec, oracle, x0):
        eps, D, d = spec.epsilon, spec.radius, spec.margin
        root_eps = math.sqrt(eps)
        if sub is Subroutine.GP:
            D, d = max(D, root_eps / 2), 0.0
        elif sub is Subroutine.NGD:
            d = max(d, root_eps)
            D = max(D, root_eps / 2 + 2 * d)
        elif sub is Subroutine.LS:
            D = d = max(D, 2 * root_eps)
        else:
            d = 2.0 * eps ** 0.25
            D = max(D, 3 * d)
        return slo.run_slo(oracle, x0, SloConfig(
            epsilon=eps, radius_D=D, margin_d=d, subroutine=sub, ls_delta_bar=D,
            seed=spec.seed, max_total_grad_evals=spec.budget_evals,
            time_budget_s=spec.budget_seconds))
    return run


# The method names: each maps (spec, oracle, x0) to a RunResult.
METHODS = {"gd": _run_gd, "bpg": _run_bpg, "pgd": _run_slo(Subroutine.GP),
           "ngd": _run_slo(Subroutine.NGD), "ls": _run_slo(Subroutine.LS),
           "agp": _run_slo(Subroutine.AGP)}


def _write_csv(path, round_idx, trace):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in trace:
            writer.writerow([
                round_idx, rec.epoch, rec.iter, rec.cum_grad_evals,
                "%.6f" % rec.elapsed_s, "%.17g" % rec.f_value,
                "%.17g" % rec.grad_norm, "%.17g" % rec.dist_from_anchor,
            ])


def run_experiment(spec: ExperimentSpec):
    """Execute every (round, method) run, write trace CSVs, and return the
    summary dict (also written to summary.txt / summary.csv)."""
    os.makedirs(spec.output_dir, exist_ok=True)
    oracle, f_star = build_problem(spec)
    csv_paths = []
    diverged = []
    errors = {}
    for r in range(1, spec.rounds + 1):
        x0 = problems.uniform_init(oracle.dim, spec.init_c, spec.seed + r)
        for method in spec.methods:
            path = os.path.join(spec.output_dir, f"{method}_round{r:02d}.csv")
            try:
                result = METHODS[method](spec, oracle, x0)
            except Exception as exc:  # record and move on
                errors[(method, r)] = f"{type(exc).__name__}: {exc}"
                continue
            _write_csv(path, r, result.trace)
            # a diverged run keeps its trace but stays out of best/avg and f_star
            if result.termination is Termination.Diverged:
                diverged.append(f"{method}/round{r}")
            else:
                csv_paths.append(path)
            if spec.svg and r == 1:
                write_svg(os.path.join(spec.output_dir, f"{method}_round01.svg"),
                          result.trace)
    summary = summarize(csv_paths, f_star=f_star)
    summary["diverged"] = sorted(diverged)
    summary["errors"] = {f"{m}/round{r}": msg for (m, r), msg in errors.items()}
    _write_summary(spec.output_dir, summary)
    return summary


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected CSV header {header}")
        return [dict(zip(header, row)) for row in reader]


def summarize(csv_paths, f_star=None):
    """Best/average over rounds of the per-round minima of grad_norm and the
    function-value gap. Method and round are parsed from the file names
    (<method>_round<NN>.csv)."""
    per_round_g = {}
    per_round_f = {}
    for path in csv_paths:
        stem = os.path.splitext(os.path.basename(path))[0]
        method, _, round_tag = stem.rpartition("_round")
        key = (method, int(round_tag))
        rows = _read_csv(path)
        if not rows:
            raise ValueError(f"{path}: no records")
        per_round_g[key] = min(float(r["grad_norm"]) for r in rows)
        per_round_f[key] = min(float(r["f_value"]) for r in rows)
    if f_star is None:
        f_star = min(per_round_f.values()) if per_round_f else 0.0
    methods = sorted({m for m, _ in per_round_g})
    table = {}
    for m in methods:
        gmins = [v for (mm, _), v in sorted(per_round_g.items()) if mm == m]
        fgaps = [v - f_star for (mm, _), v in sorted(per_round_f.items()) if mm == m]
        table[m] = {
            "best_grad_norm": min(gmins),
            "avg_grad_norm": sum(gmins) / len(gmins),
            "best_f_gap": min(fgaps),
            "avg_f_gap": sum(fgaps) / len(fgaps),
        }
    return {"f_star": f_star, "methods": table}


def _write_summary(output_dir, summary):
    cols = ["best_grad_norm", "avg_grad_norm", "best_f_gap", "avg_f_gap"]
    lines = ["%-12s %14s %14s %14s %14s" % tuple(["method"] + cols)]
    for m, stats in sorted(summary["methods"].items()):
        lines.append("%-12s %14.6e %14.6e %14.6e %14.6e"
                     % tuple([m] + [stats[c] for c in cols]))
    lines += [f"DIVERGED {run_id}" for run_id in summary.get("diverged", [])]
    for run_id, msg in sorted(summary.get("errors", {}).items()):
        lines.append(f"FAILED {run_id}: {msg}")
    with open(os.path.join(output_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(output_dir, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method"] + cols)
        for m, stats in sorted(summary["methods"].items()):
            writer.writerow([m] + ["%.17g" % stats[c] for c in cols])


def write_svg(path, trace, width=640, height=360):
    """Minimal two-series line chart (f_value and grad_norm vs grad_evals)."""
    xs = [rec.cum_grad_evals for rec in trace]
    series = {
        "#1f77b4": [rec.f_value for rec in trace],
        "#d62728": [rec.grad_norm for rec in trace],
    }
    x_lo, x_hi = min(xs), max(xs)
    ys_all = [v for ys in series.values() for v in ys if math.isfinite(v)]
    y_lo, y_hi = min(ys_all), max(ys_all)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    for color, ys in series.items():
        pts = " ".join(
            "%.2f,%.2f" % (20 + (x - x_lo) / x_span * (width - 40),
                           height - 20 - (y - y_lo) / y_span * (height - 40))
            for x, y in zip(xs, ys) if math.isfinite(y))
        parts.append(f'<polyline fill="none" stroke="{color}" points="{pts}"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
