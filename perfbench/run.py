"""Benchmark command for the bevkit detector.

    python3 perfbench/run.py --workload train_fixed_rig --seed 1 --seconds 20 --trace 0

Run from the repository root. Workloads: train_fixed_rig, train_aug_rig,
infer_dense_lidar (see workloads.py). With --trace 0 it prints the
end-to-end metrics, with --trace 1 the per-layer ones (and writes the spans
under .perfbench/). Times are at reference speed (see reference.py); the raw
wall-clock figures follow as ``# wall_...`` lines. The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is 0 only when every step ran and passed the correctness gate.

Only the standard library is imported here: BLAS must be limited to one
thread before numpy loads, because the step's matmuls are tiny and spinning
BLAS threads only add CPU time on a small shared machine.
"""

import argparse
import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("train_fixed_rig", "train_aug_rig", "infer_dense_lidar")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "bevkit" / "__init__.py").is_file():
        print(f"bevkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench  # noqa: E402  (numpy loads here, after the thread limits)

    if args.setup_only:
        _, wall, scale = bench.setup(bench.wls.WORKLOADS[args.workload], args.seed, bench.Reference())
        print(wall, scale)
        return 0
    outcome = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(bench.report(outcome))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
