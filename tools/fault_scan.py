"""Regression scan for solver faults: every method of ``harness.METHODS`` but ``gd`` on 60
small instances.

    PYTHONPATH=src python3 tools/fault_scan.py

Those are the four epoch solvers and ``bpg``. ``pgd``, ``ngd``, ``ls`` and
``agp`` are the ``run_slo`` methods; ``pgd`` (without analytic growth) and
``agp`` carry their step constants from one epoch to the next. ``bpg`` is the
Bregman proximal gradient baseline, whose scalar subproblem is solved by
Newton's method. ``gd``, the fixed-step baseline, is left out. One
``run_experiment`` call (``methods=METHODS``, ``epsilon=1e-6``,
``radius=0.1``, ``bpg_n=10``, ``bpg_l=10.0``, every other field at its
default) runs for each of seeds 0-11 on five problems: the default
``supervised`` and ``autoencoder`` nets, the default ``tensor``, ``tensor`` at
``d=8, k=5, m=3`` and ``quartic`` at ``quartic_dim=50``. The calls write into
one temporary directory. The scan prints the failed runs per problem and exits
1 if any run recorded an error, else 0.
"""

from __future__ import annotations

import sys
import tempfile

from sloopt import harness

PROBLEMS = (
    ("supervised", {}),
    ("autoencoder", {}),
    ("tensor", {}),
    ("tensor", {"tensor_d": 8, "tensor_k": 5, "tensor_m": 3}),
    ("quartic", {"quartic_dim": 50}),
)
SEEDS = range(12)
METHODS = tuple(m for m in harness.METHODS if m != "gd")


def main() -> int:
    failed = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        for problem, params in PROBLEMS:
            errors = []
            for seed in SEEDS:
                spec = harness.ExperimentSpec(problem=problem, methods=METHODS, epsilon=1e-6,
                                              radius=0.1, bpg_n=10, bpg_l=10.0, seed=seed,
                                              output_dir=tmp, problem_params=dict(params))
                errors += [(seed, run, msg)
                           for run, msg in harness.run_experiment(spec)["errors"].items()]
            runs = len(SEEDS) * len(METHODS)
            label = problem + "".join(f" {k}={v}" for k, v in params.items())
            print(f"{label}: {len(errors)} of {runs} failed", flush=True)
            for seed, run, msg in errors:
                print(f"  seed {seed} {run}: {msg}")
            failed += len(errors)
            total += runs
    print(f"{failed} of {total} runs failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
