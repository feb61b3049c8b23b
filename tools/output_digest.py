"""Digests of every deterministic output of ``run_experiment`` on the benchmark workloads.

    PYTHONPATH=src python3 tools/output_digest.py > digests.txt

For seeds 7 and 3, each workload of ``benchmarks/workloads.py`` and each method,
one ``run_experiment`` call runs in a temporary directory, as the benchmark
runs it, and one line ``<seed> <workload> <method> <sha256>`` is printed. The
digest covers the trace CSVs byte for byte without their ``elapsed_s``
column, ``summary.txt``, ``summary.csv`` and the summary's ``errors``. Two
source trees write the same outputs when the listings they print do not
differ (``diff``). ``sloopt`` is imported from ``PYTHONPATH``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

# One BLAS thread, as in the benchmark, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from workloads import METHODS, WORKLOADS  # noqa: E402

from sloopt import harness  # noqa: E402

ELAPSED = harness.CSV_HEADER.index("elapsed_s")
SEEDS = (7, 3)


def output_digest(out: Path, summary: dict) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name.endswith(".csv") and path.name != "summary.csv":
            lines = data.split(b"\n")
            data = b"\n".join(b",".join(f for i, f in enumerate(line.split(b","))
                                        if i != ELAPSED) for line in lines)
        h.update(path.name.encode() + b"\0" + data + b"\0")
    h.update(json.dumps(summary["errors"], sort_keys=True).encode())
    return h.hexdigest()


def experiments(tmp: Path):
    """``(seed, workload, method, output dir, summary, RunResults of its rounds)`` of one
    ``run_experiment`` call per seed, workload and method, each writing under tmp."""
    for seed in SEEDS:
        for name, wl in WORKLOADS.items():
            for method in METHODS:
                out = tmp / f"{seed}-{name}-{method}"
                spec = harness.ExperimentSpec(methods=(method,), output_dir=str(out),
                                              **wl.spec_kwargs(seed))
                results, runner = [], spec.runners[method]
                spec.runners[method] = lambda o, x0: results.append(runner(o, x0)) or results[-1]
                yield seed, name, method, out, harness.run_experiment(spec), results


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for seed, name, method, out, summary, _ in experiments(Path(tmp)):
            print(seed, name, method, output_digest(out, summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
