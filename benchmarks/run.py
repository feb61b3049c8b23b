"""Entry point of the sloopt benchmark; see README.md in this directory.

    python3 benchmarks/run.py --workload tensor-k5 --seed 7 --seconds 40 --trace 0

It imports sloopt from ``src/`` of the checkout it sits in and exits with
status 2 when that source tree is missing.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    # One BLAS thread, set before numpy is first imported, so that all load
    # comes from this one process.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "sloopt" / "__init__.py").is_file():
        print(f"error: sloopt sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import measure
    return measure.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
