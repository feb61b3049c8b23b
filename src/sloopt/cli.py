"""Command-line entry point for the benchmark harness."""

from __future__ import annotations

import argparse
import os
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
    # each flag's dest is its key in the config file; flags override the file
    flags = {k: v for k, v in vars(args).items() if v is not None and k != "config"}
    kwargs, params = {}, {}
    for key, val in {**file_values, **flags}.items():
        if key == "method":
            kwargs["methods"] = tuple(v.strip() for v in val.split(","))
        elif key in _SPEC_KEYS:
            kwargs[key] = _SPEC_KEYS[key](val)
        else:
            params[key] = val
    return ExperimentSpec(**kwargs, problem_params=params)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sloopt",
        description="run multi-round optimization benchmarks and write "
                    "trace CSVs plus a best/average summary")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--problem", choices=PROBLEMS)
    parser.add_argument("--method", help=f"comma-separated subset of {','.join(METHODS)}")
    for key in ("epsilon", "radius", "margin", "rounds", "seed", "budget_evals", "budget_seconds"):
        parser.add_argument("--" + key.replace("_", "-"), type=_SPEC_KEYS[key], dest=key)
    parser.add_argument("--out", dest="output_dir")
    args = parser.parse_args(argv)
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        spec = build_spec(file_values, args)
        summary = run_experiment(spec)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    with open(os.path.join(spec.output_dir, "summary.txt")) as fh:
        sys.stdout.write(fh.read())
    return 2 if summary["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
