"""Alternating benchmark pairs of a base commit and the working tree.

    python3 tools/ab_pairs.py --base HEAD --workload quartic-50 --pairs 10 --seconds 40 --seed 7

Both sides run the working tree's ``benchmarks/run.py`` (untraced) on their
own ``src/``: the base side on ``src/`` of ``git archive REV``, the head side
on a copy of the working tree's ``src/``. Each side is assembled in a
temporary directory with its own copy of the working tree's ``benchmarks/``,
so the runs write nothing in the repository. The base runs first in even
pairs (0, 2, ...) and second in odd ones.

For every end-to-end metric that ``BENCHMARK.json`` declares, the tool prints
each side's median and quartiles over the pairs, the change of the medians
relative to the base, and the pairs the head wins (ties count for neither
side). ``gain`` is ``yes`` when the head wins at least nine tenths of the
pairs and its median is better than the base's by more than the base's
interquartile range; ``-`` otherwise. A last line gives each side's
``correct`` runs and failed operations.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")


def assemble(tmp: Path, rev: str) -> dict:
    """{side: directory holding src/ and benchmarks/} for both sides, under tmp."""
    tree = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                          check=True, capture_output=True).stdout
    skip = shutil.ignore_patterns("__pycache__", ".bench_build", ".pytest_cache")
    dirs = {side: tmp / side for side in SIDES}
    with tarfile.open(fileobj=io.BytesIO(tree)) as tar:
        tar.extractall(dirs["base"], filter="data")
    shutil.copytree(ROOT / "src", dirs["head"] / "src", ignore=skip)
    for d in dirs.values():
        shutil.copytree(ROOT / "benchmarks", d / "benchmarks", ignore=skip)
    return dirs


def run_once(side_dir: Path, args) -> dict:
    """The result line (last stdout line) of one untraced benchmark run."""
    out = subprocess.run([sys.executable, str(side_dir / "benchmarks" / "run.py"),
                          "--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", "0"],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def report(results: dict, metrics: list) -> list:
    """Lines of the table: one per declared end-to-end metric present in the runs."""
    lines = ["%-16s %33s %33s %9s %6s %5s" % ("metric", "base median [q1, q3]",
                                              "head median [q1, q3]", "change", "wins", "gain")]
    n = len(results["base"])
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
        if any(name not in r["metrics"] for side in SIDES for r in results[side]):
            continue
        vals = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        (b1, b2, b3), (h1, h2, h3) = quartiles(vals["base"]), quartiles(vals["head"])
        wins = sum(sign * (h - b) < 0 for b, h in zip(vals["base"], vals["head"]))
        change = "%+8.1f%%" % (100.0 * (h2 - b2) / b2) if b2 else "%9s" % "n/a"
        gain = "yes" if wins >= 0.9 * n and sign * (b2 - h2) > b3 - b1 else "-"
        lines.append("%-16s %10.4g [%9.4g, %9.4g] %10.4g [%9.4g, %9.4g] %s %3d/%-2d %5s"
                     % (name, b2, b1, b3, h2, h1, h3, change, wins, n, gain))
    health = ", ".join(f"{side}: {sum(r['correct'] for r in results[side])}/{n} correct, "
                       f"{sum(r['failed'] for r in results[side])} failed operations"
                       for side in SIDES)
    return lines + [health]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="git revision of the base side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    results = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        dirs = assemble(Path(tmp), args.base)
        for i in range(args.pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                results[side].append(run_once(dirs[side], args))
                print(f"pair {i + 1}/{args.pairs} {side} done", file=sys.stderr, flush=True)
    print(f"{args.workload} seed {args.seed}, {args.seconds:g} s runs, base {args.base} "
          f"vs the working tree, {args.pairs} pairs")
    print("\n".join(report(results, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
