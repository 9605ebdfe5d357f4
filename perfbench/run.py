"""Benchmark entry point: one workload, one process, one client.

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 30 --trace 0

Run it from the repository root. Human-readable lines (every metric with its
unit and sample count, the environment, output digests and accuracies) come
first; the last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones. A
full record, and the spans of a traced run, go to ``.perfbench_out/``.
The BLAS thread count is fixed to 1 before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOAD_NAMES = ("pipeline", "finetune_grid", "datagen")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    root = Path(__file__).resolve().parent.parent
    package = root / "src" / "anchorft" / "__init__.py"
    if not package.is_file():
        print(f"error: {package.relative_to(root)} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root)]

    import anchorft
    from perfbench import harness

    if Path(anchorft.__file__).resolve() != package:
        print(f"error: imported anchorft from {anchorft.__file__}, not {package}", file=sys.stderr)
        return 2
    lines, result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
