"""Benchmark entry point.

    python3 bench/run.py --workload refine-plane3-64 [--seed 7] [--seconds 30]
                         [--trace 0|1]

Run from anywhere inside a checkout of the repository; the library is
imported from its ``src/`` directory. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "symmvs" / "__init__.py").is_file():
        print(f"bench: no symmvs sources under {src}", file=sys.stderr)
        return 2
    # One BLAS/OpenMP thread, set before numpy loads, so timings do not
    # depend on how many cores happen to be free.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import harness

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, default=7, help="scene texture seed")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measured time; at least two solves always run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                       ROOT, THREAD_VARS)


if __name__ == "__main__":
    sys.exit(main())
