"""Cost-to-tolerance benchmark: one ``run_experiment`` call per method, repeated.

One repetition runs every method of the workload through its own
``sloopt.harness.run_experiment`` calls over all of the workload's rounds,
once or ``Workload.calls[method]`` times, in an order shuffled by ``--seed``. Repetitions run back to back in this one
process until ``--seconds`` have passed. One operation is one (method, round)
solve; it fails when ``run_experiment`` records an error for it or when its
outputs fail a check in ``workloads.check_solve``.

With ``--trace 0`` every repetition is untraced and the end-to-end metrics are
printed. With ``--trace 1`` the first repetition is untraced and the rest are
traced; the per-layer metrics are printed. In both modes every repetition's
trace CSVs must equal the first repetition's apart from ``elapsed_s``, which
in a traced run shows that tracing does not change behaviour.

The last line of standard output is the result object; the line before it is
a report with the environment, each solve's record and every check failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import sloopt
from sloopt import harness

from speed import SpeedProbe, scale
from tracing import Instrument, layer_metrics
from workloads import METHODS, WORKLOADS, Workload, check_solve, read_trace, reference

SETUP_REPEATS = 7
# Runs in a fresh interpreter, so that importing sloopt (and numpy) is paid
# every time, as it is by a user of the ``sloopt`` command. The speed kernel
# runs right after, to scale the time like the solve times (see speed.py).
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import json
from sloopt import harness, problems
spec = harness.ExperimentSpec(**json.loads(sys.argv[2]))
oracle, _ = harness.build_problem(spec)
for r in range(1, spec.rounds + 1):
    problems.uniform_init(oracle.dim, spec.init_c, spec.seed + r)
setup_s = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
from speed import kernel_seconds
print(setup_s, kernel_seconds(15))
"""


@dataclass
class Solve:
    """One operation: a (method, round) solve inside a ``run_experiment`` call."""

    method: str
    round: int
    error: str | None = None
    known_fault: bool = False
    termination: str | None = None
    epochs: int = 0
    rows: int = 0
    grad_evals: int = 0
    digest: str = ""
    failures: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.failures)

    def record(self) -> dict:
        keys = ("method", "round", "error", "termination", "epochs", "rows",
                "grad_evals", "failures")
        return {k: getattr(self, k) for k in keys}


@dataclass
class Repetition:
    traced: bool
    solves: list = field(default_factory=list)
    calls: list = field(default_factory=list)    # (method, start, end) per run_experiment call
    wall_s: dict = field(default_factory=dict)   # method -> seconds of each of its calls
    solve_s: dict = field(default_factory=dict)  # the same, scaled by the speed probe
    layers: dict | None = None

    def time_calls(self, probe: SpeedProbe):
        for method, t0, t1 in self.calls:
            self.wall_s.setdefault(method, []).append(t1 - t0)
            self.solve_s.setdefault(method, []).append(probe.scaled(t0, t1))


def time_setup(src: Path, spec_kwargs: dict) -> tuple[float, float]:
    """(wall seconds, seconds scaled by the speed kernel) of one set-up in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(src), json.dumps(spec_kwargs),
                          str(Path(__file__).parent)],
                         capture_output=True, text=True, check=True, timeout=120)
    setup_s, kernel_s = (float(v) for v in out.stdout.split()[-2:])
    return setup_s, scale(setup_s, kernel_s)


def run_repetition(wl: Workload, seed: int, methods, out_root: Path, traced: bool) -> Repetition:
    ref = reference(wl, seed)
    inst = Instrument(traced)
    rep = Repetition(traced)
    bytes_written = 0
    for method in methods:
        out = out_root / method
        shutil.rmtree(out, ignore_errors=True)
        spec = harness.ExperimentSpec(methods=(method,), output_dir=str(out),
                                      **wl.spec_kwargs(seed))
        with inst.call(method):
            t0 = time.perf_counter()
            summary = harness.run_experiment(spec)
            rep.calls.append((method, t0, time.perf_counter()))
        for r in range(1, wl.rounds + 1):
            solve = Solve(method, r, error=summary["errors"].get(f"{method}/round{r}"))
            if solve.error is not None:
                fault = wl.known_faults.get((method, r))
                solve.known_fault = fault is not None and solve.error.startswith(fault)
            else:
                trace = read_trace((out / f"{method}_round{r:02d}.csv").read_text())
                result = inst.results.get(r)
                if result is None:
                    solve.failures.append("no RunResult was returned for this round")
                else:
                    solve.failures = check_solve(
                        wl, ref, method, r, trace, result.final_point,
                        inst.grad_calls[r] if traced else None)
                    solve.termination = result.termination.value
                    solve.epochs = result.epochs_completed
                solve.rows, solve.grad_evals, solve.digest = trace.n_rows, trace.grad_evals, trace.digest
            rep.solves.append(solve)
        bytes_written += sum(p.stat().st_size for p in out.iterdir())
        shutil.rmtree(out)
    if traced:
        rep.layers = layer_metrics(inst, [s for s in rep.solves if s.error is None],
                                   bytes_written)
        inst.spans.write_csv(out_root / "spans.csv")
    return rep


def compare_to_first(reps) -> None:
    """Outputs are deterministic: each solve must repeat the first solve of the
    same (method, round) in its trace CSV (apart from elapsed_s), or its error."""
    first = {}
    for rep in reps:
        for s in rep.solves:
            ref = first.setdefault((s.method, s.round), s)
            if (s.error, s.digest) != (ref.error, ref.digest):
                what = "traced" if rep.traced else "repeated"
                s.failures.append(f"{what} solve differs from the first one "
                                  "in its trace CSV (elapsed_s aside) or its error")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "cpu": cpu or platform.machine(),
            "sloopt": sloopt.__version__}


def end_to_end(setup_s, reps) -> dict:
    metrics = {"setup_s": {"value": statistics.median(s for _, s in setup_s), "unit": "s"}}
    for m in METHODS:
        metrics[f"solve_s.{m}"] = {"value": statistics.median(t for r in reps for t in r.solve_s[m]),
                                   "unit": "s"}
    first = {}  # every call repeats the first one (compare_to_first)
    for s in reps[0].solves:
        first.setdefault((s.method, s.round), s)
    for m in METHODS:
        evals = sum(s.grad_evals for (method, _), s in first.items() if method == m)
        metrics[f"grad_evals.{m}"] = {"value": evals, "unit": "count"}
    return metrics


LAYER_UNITS = {"calls": "count", "grad_evals": "count", "value_calls": "count",
               "us": "us", "self_us": "us", "self_us_per_iter": "us", "s": "s",
               "self_s": "s", "overhead_s": "s", "solve_s": "s", "iters": "count",
               "epochs": "count", "trace_rows": "count", "bytes_written": "bytes",
               "distinct_points": "count"}


def per_layer(reps) -> dict:
    traced = [r for r in reps if r.traced]
    values = {k: statistics.median(r.layers[k] for r in traced) for k in traced[0].layers}
    # Scaled, like solve_s: raw seconds of two repetitions differ by more
    # than the tracing costs whenever the machine's speed changes between them.
    solve_s = {t: statistics.median(sum(map(sum, r.solve_s.values())) for r in reps
                                    if r.traced == t) for t in (False, True)}
    values["trace.overhead_s"] = solve_s[True] - solve_s[False]
    return {k: {"value": v, "unit": LAYER_UNITS.get(k.rpartition(".")[2], "ratio")}
            for k, v in values.items()}


def main(argv, root: Path) -> int:
    ap = argparse.ArgumentParser(prog="benchmarks/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    out_root = root / ".bench_build" / "benchmarks" / wl.name
    out_root.mkdir(parents=True, exist_ok=True)

    setup_s = [time_setup(root / "src", wl.spec_kwargs(args.seed)) for _ in range(SETUP_REPEATS)]
    order = random.Random(args.seed)
    reps = []
    with SpeedProbe() as probe:
        start = time.perf_counter()
        # Start another repetition only if, at the pace so far, it ends in time.
        while len(reps) < 1 + args.trace or \
                (time.perf_counter() - start) * (len(reps) + 1) / len(reps) <= args.seconds:
            methods = wl.repetition()
            order.shuffle(methods)
            reps.append(run_repetition(wl, args.seed, methods, out_root,
                                       bool(args.trace and reps)))
    for rep in reps:
        rep.time_calls(probe)
    compare_to_first(reps)

    solves = [s for r in reps for s in r.solves]
    failures = [f"rep {i + 1} {s.method}/round{s.round}: {msg}"
                for i, r in enumerate(reps) for s in r.solves for msg in s.failures]
    unexpected = [f"rep {i + 1} {s.method}/round{s.round}: {s.error}"
                  for i, r in enumerate(reps) for s in r.solves
                  if s.error is not None and not s.known_fault]
    report = {"workload": wl.name, "seed": args.seed, "spec_seed": wl.spec_seed(args.seed),
              "repetitions": len(reps), "traced_repetitions": sum(r.traced for r in reps),
              "environment": environment(),
              "setup_wall_s": [w for w, _ in setup_s], "setup_s": [s for _, s in setup_s],
              "wall_s": [r.wall_s for r in reps], "solve_s": [r.solve_s for r in reps],
              "speed_kernel_s": statistics.median(e - s for s, e in probe.samples),
              "solves": [s.record() for s in reps[0].solves],
              "check_failures": failures, "unexpected_errors": unexpected}
    print(json.dumps(report))
    metrics = per_layer(reps) if args.trace else end_to_end(setup_s, reps)
    print(json.dumps({"correct": not failures and not unexpected, "attempted": len(solves),
                      "failed": sum(s.failed for s in solves), "metrics": metrics}))
    return 0
