"""Experiment runner: multi-round benchmarks with per-run CSV traces and
best/average summaries."""

from __future__ import annotations

import csv
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from . import baselines, problems, slo
from .core import IterationRecord, SloConfig, Subroutine, Termination, epoch_geometry

CSV_HEADER = ["round", *IterationRecord._fields]


@dataclass(frozen=True)  # its runners are built from its settings once, in __post_init__
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
        for name in ("rounds", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not (self.rounds >= 1 and self.budget_evals >= 1):  # a NaN budget fails too
            raise ValueError("rounds and budget_evals must be >= 1")
        if not (self.budget_seconds is None or self.budget_seconds > 0):
            raise ValueError("budget_seconds must be positive")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not all(map(math.isfinite, (self.epsilon, self.radius, self.margin))):
            raise ValueError("epsilon, radius and margin must be finite")
        if not 0 <= self.init_c < math.inf:
            raise ValueError("init_c must be finite and >= 0")
        if not self.seed >= 0:  # every seed goes to numpy, which rejects negative ones
            raise ValueError("seed must be >= 0")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:  # a second run would rewrite the first one's trace CSVs
            raise ValueError(f"duplicate methods: {repeated}")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem: {self.problem}")
        unread = self.problem_params.keys() - PROBLEMS[self.problem][1]
        if unread:
            raise ValueError(f"keys not read by problem {self.problem}: {sorted(unread)}")
        object.__setattr__(self, "runners", {m: METHODS[m](self) for m in self.methods})


def _tensor_problem(spec: ExperimentSpec, p: dict):
    prob, _ = problems.generate_planted_tensor(
        int(p["tensor_d"]), int(p["tensor_k"]), int(p["tensor_m"]),
        float(p["scale_low"]), float(p["scale_high"]), spec.seed)
    return prob, 0.0


def _net_problem(spec: ExperimentSpec, p: dict):
    # net_layers lists the layer widths input-first, e.g. "6,4,4,6"
    widths = [int(v) for v in str(p["net_layers"]).split(",")]
    shapes = [(widths[i + 1], widths[i]) for i in range(len(widths) - 1)]
    n_samples = int(p["net_samples"])
    rng = np.random.default_rng(spec.seed)
    data_x = rng.standard_normal((widths[0], n_samples))
    if spec.problem == "autoencoder":
        return problems.LinearNetProblem(data_x, shapes, "autoencoder"), None
    labels, _ = problems.generate_planted_labels(shapes, data_x, spec.seed + 1)
    return problems.LinearNetProblem(data_x, shapes, "supervised", labels), 0.0


_NET_KEYS = {"net_layers": "6,4,4,6", "net_samples": 50}
# The problem names: each maps to a builder of (spec, problem_params) ->
# (oracle, f_star or None) and the {key: default} of the keys it reads.
PROBLEMS = {
    "tensor": (_tensor_problem, {"tensor_d": 4, "tensor_k": 3, "tensor_m": 2,
                                 "scale_low": 0.5, "scale_high": 1.5}),
    "autoencoder": (_net_problem, _NET_KEYS), "supervised": (_net_problem, _NET_KEYS),
    "quartic": (lambda spec, p: (problems.QuarticProblem(int(p["quartic_dim"])), 0.0),
                {"quartic_dim": 1}),
}


def build_problem(spec: ExperimentSpec):
    """Instantiate the oracle; returns (oracle, f_star or None)."""
    build, defaults = PROBLEMS[spec.problem]
    return build(spec, {**defaults, **spec.problem_params})


def _gd(spec: ExperimentSpec):
    if not 0 < spec.gd_step < math.inf:
        raise ValueError("gd_step must be positive")
    return lambda oracle, x0: baselines.gd_fixed(
        oracle, x0, spec.gd_step, stop_grad_tol=math.sqrt(spec.epsilon),
        max_iters=spec.budget_evals, max_grad_evals=spec.budget_evals,
        time_budget_s=spec.budget_seconds)


def _bpg(spec: ExperimentSpec):
    if spec.bpg_n is None or spec.bpg_l is None:
        raise ValueError("bpg requires bpg_n and bpg_l")
    config = baselines.BpgConfig(spec.bpg_n, spec.bpg_l, max_iters=spec.budget_evals,
                                 stop_grad_tol=math.sqrt(spec.epsilon))
    return lambda oracle, x0: baselines.run_bpg(
        oracle, x0, config, max_grad_evals=spec.budget_evals, time_budget_s=spec.budget_seconds)


def _slo(sub: Subroutine):
    """Builder of the epoch solver with subroutine ``sub``: it widens the spec's radius and margin
    to the nearest valid epoch ball (``epoch_geometry``); ``SloConfig`` rejects an infinite one."""
    def build(spec: ExperimentSpec):
        D, d = epoch_geometry(sub, spec.epsilon, spec.radius, spec.margin)
        config = SloConfig(epsilon=spec.epsilon, radius_D=D, margin_d=d, subroutine=sub,
                           ls_delta_bar=D, seed=spec.seed, max_total_grad_evals=spec.budget_evals,
                           max_epochs=spec.budget_evals, time_budget_s=spec.budget_seconds)
        return lambda oracle, x0: slo.run_slo(oracle, x0, config)
    return build


# The method names: each maps to a builder that checks a spec's settings once and returns its
# runner(oracle, x0) -> RunResult, which finds its solver in the solver's module at call time.
# budget_evals also caps the steps and epochs: each row after the first costs an evaluation.
METHODS = {"gd": _gd, "bpg": _bpg, "pgd": _slo(Subroutine.GP), "ngd": _slo(Subroutine.NGD),
           "ls": _slo(Subroutine.LS), "agp": _slo(Subroutine.AGP)}


def _write_csv(path, round_idx, trace):
    # the csv module's default dialect: no field needs quoting, and rows end in "\r\n"
    row = "%d," % round_idx + "%d,%d,%d,%.6f,%.17g,%.17g,%.17g\r\n"  # the round, then a record
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        fh.writelines(row % rec for rec in trace)


def run_experiment(spec: ExperimentSpec):
    """Execute every (round, method) run, write trace CSVs, and return the
    summary dict (also written to summary.txt / summary.csv)."""
    os.makedirs(spec.output_dir, exist_ok=True)
    oracle, f_star = build_problem(spec)
    minima = {}
    diverged = []
    errors = {}
    for r in range(1, spec.rounds + 1):
        x0 = problems.uniform_init(oracle.dim, spec.init_c, spec.seed + r)
        for method in spec.methods:
            path = os.path.join(spec.output_dir, f"{method}_round{r:02d}.csv")
            try:
                result = spec.runners[method](oracle, x0)
            except Exception as exc:  # record and move on
                errors[(method, r)] = f"{type(exc).__name__}: {exc}"
                continue
            _write_csv(path, r, result.trace)
            # a diverged run keeps its trace but stays out of best/avg and f_star
            if result.termination is Termination.Diverged:
                diverged.append(f"{method}/round{r}")
            else:
                minima[(method, r)] = (min(rec.grad_norm for rec in result.trace),
                                       min(rec.f_value for rec in result.trace))
            if spec.svg and r == 1:
                write_svg(os.path.join(spec.output_dir, f"{method}_round01.svg"),
                          result.trace)
    summary = _summary_table(minima, f_star)
    summary["diverged"] = sorted(diverged)
    summary["errors"] = {f"{m}/round{r}": msg for (m, r), msg in errors.items()}
    _write_summary(spec.output_dir, summary)
    return summary


def summarize(csv_paths, f_star=None):
    """The summary of saved trace CSVs named <method>_round<NN>.csv, as
    ``run_experiment`` builds it from its in-memory traces."""
    minima = {}
    for path in csv_paths:
        stem = os.path.splitext(os.path.basename(path))[0]
        method, _, round_tag = stem.rpartition("_round")
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != CSV_HEADER:
                raise ValueError(f"{path}: unexpected CSV header {header}")
            rows = list(reader)
        if not rows:
            raise ValueError(f"{path}: no records")
        minima[(method, int(round_tag))] = (min(float(r[6]) for r in rows),  # grad_norm
                                            min(float(r[5]) for r in rows))  # f_value
    return _summary_table(minima, f_star)


def _summary_table(minima, f_star):
    """Best/average over rounds of ``{(method, round): (min grad_norm, min f_value)}``;
    the f gap is against f_star, or against the least f minimum when it is None."""
    if f_star is None:
        f_star = min(f for _, f in minima.values()) if minima else 0.0
    table = {}
    for m in sorted({m for m, _ in minima}):
        rounds = [v for (mm, _), v in sorted(minima.items()) if mm == m]
        gmins = [g for g, _ in rounds]
        fgaps = [f - f_star for _, f in rounds]
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
    lines += [f"DIVERGED {run_id}" for run_id in summary["diverged"]]
    for run_id, msg in sorted(summary["errors"].items()):
        lines.append(f"FAILED {run_id}: {msg}")
    with open(os.path.join(output_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(output_dir, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method"] + cols)
        for m, stats in sorted(summary["methods"].items()):
            writer.writerow([m] + ["%.17g" % stats[c] for c in cols])


def write_svg(path, trace):
    """Minimal two-series line chart (f_value and grad_norm vs grad_evals)."""
    width, height = 640, 360
    xs = [rec.grad_evals for rec in trace]
    series = {
        "#1f77b4": [rec.f_value for rec in trace],
        "#d62728": [rec.grad_norm for rec in trace],
    }
    x_lo, x_hi = min(xs), max(xs)
    ys_all = [v for ys in series.values() for v in ys if math.isfinite(v)]
    y_lo, y_hi = min(ys_all, default=0.0), max(ys_all, default=0.0)  # a diverged run has none
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
