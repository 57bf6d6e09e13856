#!/usr/bin/env python3
"""Full benchmark: three methods x two losses on the synthetic task.

Generates the benchmark dataset, sweeps the C grid with five stratified
folds per cell, and writes results.csv, per-curve TSVs, and a summary
into the output directory.  --task clean switches to the noise-free
variant; --quick shrinks everything for a smoke run.

The solver knobs here (inner tolerance 1e-2, six outer rounds, ten
subgradient steps per sample) are the experiment-grade settings: loose
enough that the full sweep finishes in minutes, tight enough that the
test-loss curves match ones produced at much tighter tolerances.
"""

import argparse
import sys
from pathlib import Path

from dissim.cli import main as dissim_main


def run(argv):
    code = dissim_main(argv)
    if code != 0:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--task", choices=("default", "clean"),
                        default="default",
                        help="noisy benchmark or its noise-free variant")
    parser.add_argument("--out-dir", default="results",
                        help="directory for dataset, results, and curves")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny task and grid, finishes in seconds")
    parser.add_argument("--no-timings", action="store_true",
                        help="zero wallclock columns (byte-reproducible)")
    parser.add_argument("--workers",
                        help="experiment's --workers (default: the usable CPUs)")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = out / f"task_{args.task}.txt"

    gen = ["generate", "--seed", str(args.seed), "--out", str(data)]
    if args.task == "clean":
        gen += ["--noise", "0.0", "--clutter", "0.0"]
    if args.quick:
        gen += ["--classes", "3", "--per-class", "6"]
    run(gen)

    exp = [
        "experiment", "--data", str(data),
        "--methods", "dissim,lsvm,ilsvm",
        "--losses", "zero_one,overlap",
        "--inner-tol", "1e-2", "--max-rounds", "6", "--ssd-factor", "10",
        "--seed", str(args.seed),
        "--out", str(out / f"results_{args.task}.csv"),
    ]
    if args.quick:
        exp += ["--C-grid", "0.1,10.0", "--folds", "2"]
    else:
        exp += ["--folds", "5"]
    if args.no_timings:
        exp += ["--no-timings"]
    if args.workers is not None:
        exp += ["--workers", args.workers]
    run(exp)
    print(f"results under {out}/")


if __name__ == "__main__":
    main()
