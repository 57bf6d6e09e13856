#!/usr/bin/env python3
"""Per-fit digest of one benchmark pass, for byte-identity checks.

    python3 scripts/fit_digests.py --workload sweep --seed 0
    python3 scripts/fit_digests.py --workload sweep --seed 0 --root OTHER_CHECKOUT
    python3 scripts/fit_digests.py --workload sweep --seed 0 --against BASE_CHECKOUT

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

``--against BASE`` lists the fits that differ instead, as JSON.  It makes
the pass once in each tree, ``BASE`` and the ``--root`` checkout (the
head), each in a process of its own, the two at once.  Each changed fit
gives its key, and its test loss, final objective and failure reason as
``[base, head]`` (``null`` where the value is not finite, or the fit is
missing from that tree).  The summary counts the fits changed and the
objectives that rose, gives the largest rise relative to the base
objective, and the change in ``test_loss_mean`` (the mean test loss of
the fits that passed their checks, as ``perfbench/run.py`` reports it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# prints fits(ROOT, WORKLOAD, SEED) as JSON; argv: scripts dir, root, workload, seed
_CHILD = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import fit_digests\n"
    "try:\n"
    "    fits = fit_digests.fits(sys.argv[2], sys.argv[3], int(sys.argv[4]))\n"
    "except LookupError as err:\n"
    "    sys.exit(err.args[0])\n"
    "print(json.dumps(fits))\n"
)


def check_root(root: Path) -> None:
    if not (root / "src" / "dissim" / "__init__.py").is_file() or not (
        root / "perfbench"
    ).is_dir():
        raise LookupError(f"no src/dissim and perfbench/ under {root}")


def fits(root, workload: str, seed: int) -> list:
    """``run.outcome`` of one pass of ``workload`` at ``seed``, made with the
    ``src/`` and ``perfbench/`` of ``root``.  It imports them, so call it at
    most once per process.  LookupError names a bad root or workload."""
    root = Path(root).resolve()
    check_root(root)
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import run  # stdlib only at import, so numpy is not loaded yet

    for var in run.BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    from workloads import WORKLOADS, run_pass, setup

    if workload not in WORKLOADS:
        raise LookupError(
            f"unknown workload {workload!r}; pick one of {sorted(WORKLOADS)}"
        )
    wl = WORKLOADS[workload]
    with tempfile.TemporaryDirectory(prefix="fit-digests-") as tmp:
        workdir = Path(tmp)
        tasks, _ = setup(wl, seed, workdir)
        return run.outcome(list(run_pass(wl, tasks, workdir)))


def _finite(fit, field: int):
    if fit is None:
        return None
    value = float(fit[field])
    return value if math.isfinite(value) else None


def _test_loss_mean(outcome: list) -> float:
    """``perfbench/run.py``'s ``test_loss_mean`` of one pass."""
    ok = [float(loss) for _, loss, _, reason in outcome if not reason]
    return statistics.fmean(ok) if ok else 100.0


def fit_diff(base: list, head: list) -> dict:
    """The fits whose ``run.outcome`` entries differ between two passes, in
    head order (then the fits only the base made), with a summary."""
    before = {fit[0]: fit for fit in base}
    after = {fit[0]: fit for fit in head}
    changed = []
    for key in [*after, *(k for k in before if k not in after)]:
        b, h = before.get(key), after.get(key)
        if b == h:
            continue
        changed.append({
            "key": key,
            "test_loss": [_finite(b, 1), _finite(h, 1)],
            "objective": [_finite(b, 2), _finite(h, 2)],
            "reason": [None if b is None else b[3], None if h is None else h[3]],
        })
    rose = [(b, h) for b, h in (fit["objective"] for fit in changed)
            if b is not None and h is not None and h > b]
    return {
        "changed": changed,
        "summary": {
            "fits": [len(base), len(head)],
            "fits_changed": len(changed),
            "objectives_rose": len(rose),
            "largest_relative_rise": max(
                ((h - b) / abs(b) for b, h in rose if b), default=None),
            "test_loss_mean_delta": _test_loss_mean(head) - _test_loss_mean(base),
        },
    }


def _fits_in_children(trees: list[Path], workload: str, seed: int) -> list[list]:
    """``fits`` in each tree, each in a new process, all at once."""
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(Path(__file__).resolve().parent),
             str(tree), workload, str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for tree in trees
    ]
    outputs = [child.communicate() for child in children]
    for tree, child, (_, err) in zip(trees, children, outputs):
        if child.returncode != 0:
            raise LookupError(f"the pass in {tree} failed:\n{err.rstrip()}")
    return [json.loads(out) for out, _ in outputs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="source checkout to import (default: this one)")
    parser.add_argument("--against", type=Path, metavar="BASE",
                        help="list, as JSON, the fits that differ from BASE's")
    args = parser.parse_args(argv)

    try:
        if args.against is None:
            outcome = fits(args.root, args.workload, args.seed)
        else:
            trees = [args.against.resolve(), args.root.resolve()]
            for tree in trees:
                check_root(tree)
            base, head = _fits_in_children(trees, args.workload, args.seed)
    except LookupError as err:
        print(err.args[0], file=sys.stderr)
        return 2
    if args.against is None:
        digest = hashlib.sha256(repr(outcome).encode("utf-8")).hexdigest()
        print(f"{args.workload} seed {args.seed} fits {len(outcome)} sha256 {digest}")
        return 0
    report = {"workload": args.workload, "seed": args.seed,
              "base": str(trees[0]), "head": str(trees[1]),
              **fit_diff(base, head)}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
