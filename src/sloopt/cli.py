"""Command-line entry point for the benchmark harness."""

from __future__ import annotations

import argparse
import sys

from .harness import METHODS, PROBLEMS, ExperimentSpec, run_experiment

_SPEC_KEYS = {
    "problem": str, "rounds": int, "epsilon": float, "radius": float,
    "margin": float, "init_c": float, "seed": int, "budget_evals": int,
    "budget_seconds": float, "output_dir": str, "gd_step": float,
    "bpg_n": int, "bpg_l": float, "svg": lambda s: s.lower() in ("1", "true", "yes"),
}


def parse_config_file(path):
    """Flat key=value lines; '#' starts a comment; blank lines ignored."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def build_spec(file_values, args) -> ExperimentSpec:
    kwargs = {}
    params = {}
    for key, val in file_values.items():
        if key == "method":
            kwargs["methods"] = tuple(v.strip() for v in val.split(","))
        elif key in _SPEC_KEYS:
            kwargs[key] = _SPEC_KEYS[key](val)
        else:
            params[key] = val
    # each flag's dest is its spec field; flags override the config file
    for key, val in vars(args).items():
        if key in _SPEC_KEYS and val is not None:
            kwargs[key] = val
    if args.method is not None:
        kwargs["methods"] = tuple(v.strip() for v in args.method.split(","))
    kwargs["problem_params"] = params
    return ExperimentSpec(**kwargs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sloopt",
        description="run multi-round optimization benchmarks and write "
                    "trace CSVs plus a best/average summary")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--problem", choices=PROBLEMS)
    parser.add_argument("--method",
                        help=f"comma-separated subset of {','.join(METHODS)}")
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--radius", type=float)
    parser.add_argument("--margin", type=float)
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--budget-evals", type=int, dest="budget_evals")
    parser.add_argument("--budget-seconds", type=float, dest="budget_seconds")
    parser.add_argument("--out", dest="output_dir")
    args = parser.parse_args(argv)
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        spec = build_spec(file_values, args)
        summary = run_experiment(spec)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for method, stats in sorted(summary["methods"].items()):
        print("%-12s best_grad=%.6e avg_grad=%.6e best_gap=%.6e avg_gap=%.6e"
              % (method, stats["best_grad_norm"], stats["avg_grad_norm"],
                 stats["best_f_gap"], stats["avg_f_gap"]))
    for run_id in summary["diverged"]:
        print(f"DIVERGED {run_id}")
    for run_id, msg in sorted(summary.get("errors", {}).items()):
        print(f"FAILED {run_id}: {msg}")
    return 2 if summary.get("errors") else 0


if __name__ == "__main__":
    sys.exit(main())
