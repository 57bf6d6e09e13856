#!/usr/bin/env python3
"""Benchmark of the dissim training loop; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  Load is a
closed loop in this one process: a fit starts only when the previous one
has ended, and BLAS is held to one thread unless the environment already
sets it.  A run sets its tasks up once, then repeats the workload's pass
until ``--seconds`` are used; times are scaled to a reference speed by a
calibration kernel run between fits (see ``Calibrated``).  With
``--trace 1`` it makes one untraced and one traced pass instead and reports
the per-layer metrics of the traced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe the machine and the fits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
DEFAULT_SEED = 0
# The calibration kernel's fastest time on a 2-CPU Xeon VM with OpenBLAS
# 0.3.31; timing metrics are scaled to it.
CALIBRATION_REF_S = 0.003
CALIBRATE_EVERY_S = 0.3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {
    "fits_per_s": "1/s",
    "fit_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fit_ok_frac": "ratio",
    "test_loss_mean": "loss",
}


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    if suffix == "self_s":
        return "s"
    if suffix == "mb_per_s":
        return "MB/s"
    if suffix.endswith("_frac"):
        return "ratio"
    return "count"


def machine() -> dict:
    """Where the numbers were measured: CPUs, BLAS and its threads, versions."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def check_fits(units, reference) -> list:
    """Apply the reference test losses, recorded at the default seed."""
    from workloads import Fit, Unit

    if reference is None:
        return units
    checked = []
    for unit in units:
        fits = []
        for fit in unit.fits:
            want = reference.get(fit.key)
            if fit.ok and (want is None or fit.test_loss != want):
                fit = Fit(fit.key, fit.wall_s, fit.test_loss, fit.objective,
                          f"test loss {fit.test_loss!r} differs from reference {want!r}")
            fits.append(fit)
        checked.append(Unit(unit.wall_s, fits))
    return checked


def fits_of(units) -> list:
    return [fit for unit in units for fit in unit.fits]


def outcome(units) -> list:
    """The deterministic part of a pass, compared across passes."""
    return [(f.key, repr(f.test_loss), repr(f.objective), f.reason)
            for f in fits_of(units)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration_s() -> float:
    """Faster of two runs of a fixed kernel, interpreter loops and small
    numpy products, the mix the fits themselves run."""
    import numpy as np

    vector = np.arange(300.0)
    best = math.inf
    for _ in range(2):
        started = perf_counter()
        total = 0.0
        for i in range(40_000):
            total += i * i
        for _ in range(300):
            total += float(vector @ vector)
        best = min(best, perf_counter() - started)
    return best


class Calibrated:
    """Scales unit times to the box's reference speed.

    The speed of a shared box drifts by tens of percent within seconds,
    which would swamp any change worth measuring.  So the calibration
    kernel runs between units, at most every CALIBRATE_EVERY_S, and each
    unit's times are scaled by CALIBRATION_REF_S over the mean of the two
    calibrations that bracket it.
    """

    def __init__(self):
        self.last = calibration_s()
        self.last_at = perf_counter()
        self.pending: list = []
        self.done: list = []  # (unit, scale)
        self.calibrations = [self.last]

    def add(self, unit) -> None:
        self.pending.append(unit)
        if perf_counter() - self.last_at >= CALIBRATE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        cal = calibration_s()
        scale = CALIBRATION_REF_S / ((self.last + cal) / 2)
        self.done += [(unit, scale) for unit in self.pending]
        self.pending = []
        self.last, self.last_at = cal, perf_counter()
        self.calibrations.append(cal)


def median_task_fit_s(scaled) -> float:
    """Median over tasks of the mean scaled time per fit."""
    by_task: dict[str, list[float]] = {}
    for unit, k in scaled:
        for f in unit.fits:
            by_task.setdefault(f.key.split("/")[0], []).append(k * f.wall_s)
    return statistics.median(statistics.fmean(v) for v in by_task.values())


def measure(wl, seed: int, seconds: float, workdir: Path, reference):
    """Untraced run: set the tasks up, then repeat the pass until the time
    is used.  Every pass makes the same fits on the same inputs.  Timing
    metrics are calibrated (see Calibrated); the raw figures are printed
    too."""
    from workloads import run_pass, setup

    cal = Calibrated()
    before = cal.last
    tasks, setup_times = setup(wl, seed, workdir)
    cal.flush()
    setup_scale = CALIBRATION_REF_S / ((before + cal.last) / 2)
    passes = []
    started = perf_counter()
    while True:
        units = []
        for unit in run_pass(wl, tasks, workdir):
            units.append(unit)
            cal.add(unit)
        cal.flush()
        passes.append(check_fits(units, reference))
        elapsed = perf_counter() - started
        if elapsed * (1 + 1 / len(passes)) > seconds:
            break
    scaled = cal.done
    every = [f for p in passes for f in fits_of(p)]
    ok = sum(f.ok for f in every)
    first_ok = [f for f in fits_of(passes[0]) if f.ok]
    metrics = {
        "fits_per_s": ok / sum(u.wall_s * k for u, k in scaled),
        # Median over tasks of the mean time per fit: a grid of C values
        # puts the median single fit on the gap between the cheap low-C
        # fits and the rest, where it flips by a fifth from seed to seed.
        "fit_s_p50": median_task_fit_s(scaled),
        "setup_s": statistics.median(setup_times) * setup_scale,
        "peak_rss_mb": peak_rss_mb(),
        "fit_ok_frac": ok / len(every),
        "test_loss_mean": statistics.fmean(f.test_loss for f in first_ok)
        if first_ok else 100.0,
    }
    raw = {
        "fits_per_s": ok / sum(u.wall_s for u, _ in scaled),
        "fit_s_p50": median_task_fit_s([(u, 1.0) for u, _ in scaled]),
        "setup_s": statistics.median(setup_times),
        "calibration_s_min": min(cal.calibrations),
        "calibration_s_max": max(cal.calibrations),
    }
    print("raw " + json.dumps(raw, sort_keys=True))
    repeatable = all(outcome(p) == outcome(passes[0]) for p in passes)
    return passes, metrics, repeatable


def traced(wl, seed: int, workdir: Path, reference):
    """Traced run: one untraced set-up and pass, then the same traced.
    Both passes are timed at the reference speed, as in measure()."""
    from tracer import Tracer
    from workloads import run_pass, setup

    cal = Calibrated()

    def timed_pass(tracer=None):
        tasks, _ = setup(wl, seed, workdir)
        units = []
        for unit in run_pass(wl, tasks, workdir, tracer):
            units.append(unit)
            cal.add(unit)
        cal.flush()
        seconds = sum(u.wall_s * k for u, k in cal.done)
        cal.done = []
        return check_fits(units, reference), seconds

    plain, untraced_s = timed_pass()
    tracer = Tracer()
    with tracer:
        units, traced_s = timed_pass(tracer)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{wl.name}.npz")
    metrics = layer_metrics(tracer, traced_s / untraced_s - 1.0)
    return [plain, units], metrics, outcome(plain) == outcome(units)


def layer_metrics(tracer, overhead: float) -> dict[str, float]:
    from tracer import PAIR_MATRIX, TRACED

    spans = tracer.summary()
    counts = tracer.counts
    out: dict[str, float] = {}
    for module, functions in TRACED.items():
        for fn in functions:
            name = f"{module.removeprefix('dissim.')}.{fn}"
            got = spans.get(name, {"calls": 0, "self_s": 0.0})
            out[f"{name}.calls"] = got["calls"]
            out[f"{name}.self_s"] = got["self_s"]
    out[f"{PAIR_MATRIX}.calls"] = counts[f"{PAIR_MATRIX}.calls"]
    iterations = counts["wsolver.cccp_w.iterations"]
    out["wsolver.cccp_w.iterations"] = iterations
    out["wsolver.cccp_w.improving_frac"] = (
        counts["wsolver.cccp_w.accepted"] / iterations if iterations else 0.0)
    out["thetasolver.ssd_theta.steps"] = counts["thetasolver.ssd_theta.steps"]
    out["trainer.train.rounds"] = counts["trainer.train.rounds"]
    for fn in ("lsvm_train", "ilsvm_train"):
        out[f"baselines.{fn}.iterations"] = counts[f"baselines.{fn}.iterations"]
    protocol_s = spans.get("trainer.run_protocol", {}).get("total_s", 0.0)
    out["trainer.run_protocol.fit_busy_frac"] = (
        counts["trainer.run_protocol.fit_s"] / protocol_s if protocol_s else 0.0)
    for fn in ("save_dataset", "load_dataset"):
        self_s = out[f"dataio.{fn}.self_s"]
        out[f"dataio.{fn}.mb_per_s"] = (
            counts[f"dataio.{fn}.bytes"] / 1e6 / self_s if self_s else 0.0)
    out["trace_overhead_frac"] = overhead
    return out


def load_reference(workload: str, seed: int):
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload)


def record_reference(workload: str, fits) -> None:
    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    table[workload] = {f.key: f.test_loss for f in fits}
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference", action="store_true",
        help=f"store this run's test losses as the seed-{DEFAULT_SEED} reference")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dissim" / "__init__.py").is_file():
        print(f"no dissim sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import dissim
    from workloads import WORKLOADS, best_mean_loss

    if Path(dissim.__file__).resolve().parent != src / "dissim":
        print(f"imported dissim from {dissim.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.record_reference and (args.seed != DEFAULT_SEED or args.trace):
        print(f"--record-reference needs --seed {DEFAULT_SEED} --trace 0",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    reference = None if args.record_reference else load_reference(wl.name, args.seed)

    print("machine " + json.dumps(machine(), sort_keys=True))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    try:
        if args.trace:
            passes, metrics, repeatable = traced(wl, args.seed, workdir, reference)
        else:
            passes, metrics, repeatable = measure(wl, args.seed, args.seconds,
                                                  workdir, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = [f for p in passes for f in fits_of(p)]
    failed = [f for f in every if not f.ok]
    for fit in failed[:10]:
        print(f"failed fit {fit.key}: {fit.reason}")
    print(f"fits {len(fits_of(passes[0]))} per pass, {len(passes)} passes, "
          f"fit_fail_frac {len(failed) / len(every)!r}, "
          f"passes agree {repeatable}, reference "
          f"{'checked' if reference is not None else 'not checked'}")
    if wl.via_cli:
        print("best mean test loss (information only) "
              + json.dumps(best_mean_loss(fits_of(passes[0])), sort_keys=True))
    if args.record_reference and not failed and repeatable:
        record_reference(wl.name, fits_of(passes[0]))
        print(f"recorded {len(every) // len(passes)} reference test losses in {REFERENCE}")
    units = END_TO_END_UNITS if not args.trace else {k: layer_unit(k) for k in metrics}
    result = {
        "correct": repeatable and not failed,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
