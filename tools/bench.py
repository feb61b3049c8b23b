"""Writes ``BENCH_<n>.json``: the benchmark's end-to-end and per-layer figures of the working tree.

    python3 tools/bench.py --out BENCH_2.json

Runs, each ``benchmarks/run.py`` call in its own subprocess on the working tree's ``src/``:

- ``benchmarks/run.py --workload W --seed s --seconds 5 --trace 0`` for every workload of
  ``benchmarks/workloads.py`` and seeds 1-10. For each workload and end-to-end metric the file
  holds the median, the quartiles (``ab_pairs.quartiles``) and the number of runs; for each run,
  its ``correct`` flag and its attempted and failed operations.
- ``--trace 1`` at seeds 1, 3, 5, 7 and 9 (``TRACED_SEEDS``), each right after that seed's
  untraced run of the workload. For each workload and per-layer figure the file holds the median,
  the quartiles and the number of traced runs, aggregated as the end-to-end metrics are.
- Exact counts: the ``sloopt.harness.run_experiment`` calls of ``tools/output_digest.py`` (one
  per seed 7 and 3, workload and method), in this process. For each, the sums over its rounds
  of ``RunResult.grad_evals`` and ``RunResult.value_evals``, and its errors.

The environment (Python, numpy, BLAS, CPU count, ``git rev-parse HEAD`` and whether ``src/`` and
``benchmarks/`` differ from it) comes first. Every run lasts ``SECONDS``, fixed so that the
figures of two ``BENCH_<n>.json`` files compare; the whole takes about 6 minutes on a 2-CPU
machine. Times only show direction; ``tools/ab_pairs.py`` decides whether a change of them is
a gain. The counts are exact and repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from ab_pairs import quartiles  # noqa: E402

SECONDS = 5.0  # the --seconds of every run.py call
SEEDS = range(1, 11)
TRACED_SEEDS = SEEDS[::2]  # spread over the whole, so slow spells touch both kinds of run alike


def run(workload: str, seed: int, trace: int) -> str:
    """The standard output of one ``benchmarks/run.py`` call."""
    return subprocess.run([sys.executable, str(ROOT / "benchmarks" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(SECONDS), "--trace", str(trace)],
                          check=True, capture_output=True, text=True).stdout


def parse(stdout: str) -> tuple[dict, dict]:
    """(report, result): the last two lines of a ``run.py`` output."""
    report, result = stdout.strip().splitlines()[-2:]
    return json.loads(report), json.loads(result)


def aggregate(results: dict) -> dict:
    """Per-metric median, quartiles and n, and each run's health, of ``{seed: result line}``."""
    metrics = {}
    for r in results.values():
        for name, m in r["metrics"].items():
            metrics.setdefault(name, ([], m["unit"]))[0].append(m["value"])
    end_to_end = {}
    for name, (values, unit) in metrics.items():
        q1, median, q3 = quartiles(values)
        end_to_end[name] = {"median": median, "q1": q1, "q3": q3, "n": len(values), "unit": unit}
    runs = [{"seed": seed, "correct": r["correct"], "attempted": r["attempted"],
             "failed": r["failed"]} for seed, r in results.items()]
    return {"end_to_end": end_to_end, "runs": runs, "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs)}


def exact_counts(experiments) -> dict:
    """``{workload: {seed: {method: {grad_evals, value_evals, errors}}}}``, summed over the
    rounds of each call of ``experiments`` (``output_digest.experiments``)."""
    counts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed, name, method, _, summary, results in experiments(Path(tmp)):
            counts.setdefault(name, {}).setdefault(seed, {})[method] = {
                "grad_evals": sum(r.grad_evals for r in results),
                "value_evals": sum(r.value_evals for r in results),
                "errors": summary["errors"]}
    return counts


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    args = ap.parse_args(argv)
    # One BLAS thread, as in the benchmark, set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    from workloads import WORKLOADS
    import output_digest
    head = git("rev-parse", "HEAD")
    clean = not git("status", "--porcelain", "--", "src", "benchmarks")
    untraced, traced = {name: {} for name in WORKLOADS}, {name: {} for name in WORKLOADS}
    environment = None
    for seed in SEEDS:  # each seed runs every workload, so slow spells touch them alike
        for name in WORKLOADS:
            report, untraced[name][seed] = parse(run(name, seed, 0))
            environment = environment or report["environment"]
            if seed in TRACED_SEEDS:
                traced[name][seed] = parse(run(name, seed, 1))[1]
            print(f"{name} seed {seed} done", file=sys.stderr, flush=True)
    out = {"environment": {**environment, "git_head": head, "src_and_benchmarks_clean": clean},
           "seconds": SECONDS, "seeds": list(SEEDS), "traced_seeds": list(TRACED_SEEDS),
           "count_seeds": list(output_digest.SEEDS), "workloads": {}}
    counts = exact_counts(output_digest.experiments)
    for name in WORKLOADS:
        layers = aggregate(traced[name])
        out["workloads"][name] = {**aggregate(untraced[name]), "layers": layers["end_to_end"],
                                  "layers_correct": layers["correct"],
                                  "exact_counts": counts[name]}
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
