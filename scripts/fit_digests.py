#!/usr/bin/env python3
"""Per-fit digest of one benchmark pass, for byte-identity checks.

    python3 scripts/fit_digests.py --workload sweep --seed 0
    python3 scripts/fit_digests.py --workload sweep --seed 0 --root OTHER_CHECKOUT

Sets up the workload's tasks and makes one pass of its fits with
``perfbench/workloads.py``, then prints one line:

    <workload> seed <N> fits <count> sha256 <hex>

The digest covers ``perfbench/run.py``'s ``outcome``: per fit, its key,
the ``repr`` of its test loss and final objective, and its failure reason.
Two source trees whose lines agree make the same fits with bit-equal
results.  ``--root`` picks the checkout whose ``src/`` and ``perfbench/``
are imported (default: the one holding this script), so one copy of the
script can digest an exported older revision too.  BLAS is held to one
thread unless the environment already sets it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="source checkout to import (default: this one)")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    src, bench = root / "src", root / "perfbench"
    if not (src / "dissim" / "__init__.py").is_file() or not bench.is_dir():
        print(f"no src/dissim and perfbench/ under {root}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(bench)]
    import run  # stdlib only at import, so numpy is not loaded yet

    for var in run.BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    from workloads import WORKLOADS, run_pass, setup

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix="fit-digests-") as tmp:
        workdir = Path(tmp)
        tasks, _ = setup(wl, args.seed, workdir)
        fits = run.outcome(list(run_pass(wl, tasks, workdir)))
    digest = hashlib.sha256(repr(fits).encode("utf-8")).hexdigest()
    print(f"{wl.name} seed {args.seed} fits {len(fits)} sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
