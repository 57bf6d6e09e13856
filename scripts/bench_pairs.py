#!/usr/bin/env python3
"""Paired before/after runs of the benchmark, written to BENCH_<tag>.json.

    python3 scripts/bench_pairs.py --base HEAD~1 --tag theta_step \\
        --workload dissim-lowC --seed 4 --pairs 10 --seconds 20

Exports the base revision with ``git archive`` into a temporary directory
(nothing is registered in the repository, so an interrupted run leaves no
trace in it), then runs ``perfbench/run.py --trace 0`` alternately in the
base tree and in the working tree, ``--pairs`` times per workload
(default 10, the fewest pairs that can support a claimed gain).  The
side that goes first alternates from pair to pair, so slow drift of the
machine's speed falls on both sides alike.  Stdlib only.

The output holds the ``machine`` line of the first run, the machine's
``parallel_capacity`` (see ``parallel_capacity``: whether two processes
really run at once here, which decides what a pool of forked workers
can gain), every run's
end-to-end metrics, and per metric the median and quartiles of each side
and the number of pairs the working tree won (the direction of "better"
is read from BENCHMARK.json).  Each end-to-end metric also gets two
verdicts (see ``summarize``): ``claim_met``, whether the working tree's
gain could be claimed, and ``regression``, ``no``, ``yes`` or
``unresolved`` against the metric's bound.  Exit status 1 if any run printed
``correct: false`` or failed fits.  A run that exits non-zero stops the
script; the runs made before it are still written, with the failure
under ``error``, and the exit status is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export_tree(rev: str, dest: Path) -> None:
    """The files of ``rev`` under ``dest``, as ``git archive`` gives them."""
    proc = subprocess.Popen(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=subprocess.PIPE
    )
    # extraction filters arrived in Python 3.10.12; git archive output
    # is trusted, so older versions extract without one
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(dest, **safe)
    if proc.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


class RunFailed(Exception):
    """A benchmark run exited non-zero or printed nothing."""


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``: its machine line, its
    outcome and its end-to-end metrics."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RunFailed(f"perfbench/run.py exited {proc.returncode} in {tree}")
    result = json.loads(lines[-1])
    machine = next(
        (json.loads(l[len("machine "):]) for l in lines if l.startswith("machine ")),
        None,
    )
    return {
        "machine": machine,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def spin(loop: int) -> float:
    """Wall seconds of one fixed CPU-bound loop of ``loop`` additions."""
    start = time.perf_counter()
    total = 0
    for i in range(loop):
        total += i
    return time.perf_counter() - start


def spin_children(count: int, loop: int) -> list[float]:
    """``spin(loop)`` in ``count`` forked children started together, each
    child's seconds as it timed them."""
    children = []
    try:
        for _ in range(count):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(read)
                    os.write(write, struct.pack("d", spin(loop)))
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, read))
    finally:
        seconds = []
        for pid, read in children:
            with os.fdopen(read, "rb") as pipe:
                data = pipe.read()
            os.waitpid(pid, 0)
            seconds.append(struct.unpack("d", data)[0] if data else None)
    if None in seconds:
        raise RuntimeError("a timing child reported nothing")
    return seconds


def parallel_capacity(loop: int = 3_000_000) -> dict:
    """The same loop timed in one forked child alone, then in two at once.
    ``speedup`` is the two loops' work per second against the one's: near
    2 where two CPUs are free, near 1 where the two children share one, and
    then a pool of two forked workers gains nothing."""
    (alone,) = spin_children(1, loop)
    two = spin_children(2, loop)
    return {"loop": loop, "alone_s": alone, "two_children_s": two,
            "speedup": 2 * alone / max(two)}


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own
    quartiles)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], end_to_end: dict[str, dict]) -> dict:
    """Per metric: each side's ``spread``, and for the metrics named in
    ``end_to_end`` (BENCHMARK.json entries by name, each with ``better``
    and ``bound``) the pairs won and two verdicts.

    - ``change_wins`` counts the complete pairs in which the change reads
      strictly better; ties count for neither side.
    - ``claim_met``: the change won at least 9 in 10 of the complete pairs,
      and its median is better than the base's by more than the base's
      interquartile range (q3 - q1).
    - ``regression``: ``yes`` if the change's median is worse than the
      base's by more than ``bound``, a fraction of the base median.
      Otherwise ``unresolved`` if either side's interquartile range, as a
      fraction of the base median, is wider than ``bound``, unless every
      change run is better than every base run; else ``no``.  A base
      median of 0 makes any worsening a regression and any spread wide.
    """
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    pairs = [p for p in by_pair.values() if len(p) == 2]
    out = {}
    for name in runs[0]["metrics"]:
        sides = {
            side: [r["metrics"][name] for r in runs if r["side"] == side]
            for side in ("base", "change")
        }
        entry = {side: spread(values) for side, values in sides.items() if values}
        if name in end_to_end:
            spec = end_to_end[name]
            sign = 1.0 if spec["better"] == "higher" else -1.0
            entry["better"] = spec["better"]
            entry["change_wins"] = sum(
                sign * (p["change"][name] - p["base"][name]) > 0 for p in pairs
            )
            if "base" in entry and "change" in entry:
                entry.update(verdicts(entry, sides, sign, len(pairs), spec["bound"]))
        out[name] = entry
    return out


def verdicts(entry: dict, sides: dict, sign: float, pairs: int, bound: float) -> dict:
    base, change = entry["base"], entry["change"]
    gain = sign * (change["median"] - base["median"])
    claim_met = (
        pairs > 0
        and 10 * entry["change_wins"] >= 9 * pairs
        and gain > base["q3"] - base["q1"]
    )
    scale = abs(base["median"])

    def exceeds(amount: float) -> bool:
        return amount > bound * scale if scale > 0 else amount > 0

    if exceeds(-gain):
        regression = "yes"
    elif exceeds(max(s["q3"] - s["q1"] for s in (base, change))) and not (
        min(sign * v for v in sides["change"]) > max(sign * v for v in sides["base"])
    ):
        regression = "unresolved"
    else:
        regression = "no"
    return {"claim_met": claim_met, "regression": regression}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare with")
    parser.add_argument("--tag", required=True, help="output is BENCH_<tag>.json")
    parser.add_argument("--workload", action="append", required=True,
                        help="benchmark workload; repeat for several")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--tmpdir", default=None,
                        help="where the base tree is exported (default: system temp)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    base_rev = git("rev-parse", args.base)
    head_rev = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))

    export_root = Path(tempfile.mkdtemp(prefix="bench-base-", dir=args.tmpdir))
    report = {
        "tag": args.tag,
        "base": base_rev,
        "change": {"head": head_rev, "uncommitted_changes": dirty},
        "command": "perfbench/run.py --trace 0",
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "machine": None,
        "parallel_capacity": parallel_capacity(),
        "workloads": {},
    }
    print("parallel capacity " + json.dumps(report["parallel_capacity"]), flush=True)
    ok = True
    try:
        export_tree(base_rev, export_root)
        trees = {"base": export_root, "change": ROOT}
        for workload in args.workload:
            runs = []
            report["workloads"][workload] = {"runs": runs}
            for pair in range(args.pairs):
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                for side in order:
                    run = run_once(trees[side], workload, args.seed, args.seconds)
                    machine = run.pop("machine")
                    report["machine"] = report["machine"] or machine
                    ok = ok and run["correct"] and run["failed"] == 0
                    runs.append({"pair": pair, "side": side, **run})
                    print(f"{workload} pair {pair} {side}: "
                          f"correct {run['correct']} "
                          + json.dumps(run["metrics"], sort_keys=True), flush=True)
    except RunFailed as err:
        print(err, file=sys.stderr)
        report["error"] = str(err)
        ok = False
    finally:
        shutil.rmtree(export_root, ignore_errors=True)
    for workload, entry in report["workloads"].items():
        if entry["runs"]:
            entry["summary"] = summarize(entry["runs"], end_to_end)
            for name, s in entry["summary"].items():
                if "regression" in s:
                    print(f"{workload} {name}: base {s['base']['median']:.6g} "
                          f"change {s['change']['median']:.6g} "
                          f"wins {s['change_wins']} claim_met {s['claim_met']} "
                          f"regression {s['regression']}")
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
