"""The benchmark's workloads: what one run generates and which fits it makes.

Every workload uses the experiment-grade solver settings of
``scripts/run_experiment.py`` (inner tolerance 1e-2, six outer rounds,
ten SSD steps per training sample).  A run generates ``tasks`` synthetic
datasets, task ``t`` of run seed ``s`` from ``TaskSpec.seed = 1000 s + t``,
which also seeds the splits and the SSD steps of that task.  A pass makes
every fit of the workload once, one after another in this process.

The largest C is left out of every grid: one C = 100 fit takes 4-23 s on
a 2-CPU box at any task size, because the pure-Python dual QP does not
shrink with the sample count, so a run could not hold enough of them to
be steady.  The QP-bound regime is the C = 10 fits of ``sweep``.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from dissim import baselines, cli, dataio, synth, trainer
from dissim.errors import SolverError
from dissim.losses import HyperParams, make_loss
from dissim.model import Dataset
from dissim.thetasolver import SSDConfig

INNER_TOL = 1e-2
MAX_ROUNDS = 6
SSD_FACTOR = 10
SPLIT = 0.6
GRID = tuple(c for c in trainer.DEFAULT_C_GRID if c < 100.0)


@dataclass(frozen=True)
class Workload:
    name: str
    per_class: int
    tasks: int
    folds: int
    methods: tuple[str, ...]
    losses: tuple[str, ...]
    C_grid: tuple[float, ...]
    clean: bool = False
    via_cli: bool = False

    def spec(self, task_seed: int) -> synth.TaskSpec:
        if self.clean:
            return synth.TaskSpec(per_class=self.per_class, noise=0.0,
                                  clutter=0.0, seed=task_seed)
        return synth.TaskSpec(per_class=self.per_class, seed=task_seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", per_class=3, tasks=10, folds=1,
                 methods=trainer.METHODS, losses=("zero_one", "overlap"),
                 C_grid=GRID, via_cli=True),
        Workload("dissim-lowC", per_class=10, tasks=10, folds=3,
                 methods=("dissim",), losses=("zero_one", "overlap"),
                 C_grid=tuple(c for c in GRID if c <= 0.1)),
        Workload("baselines-clean", per_class=3, tasks=12, folds=1,
                 methods=("lsvm", "ilsvm"), losses=("zero_one", "overlap"),
                 C_grid=GRID, clean=True),
    )
}


@dataclass(frozen=True)
class Fit:
    """One fit's outcome; ``reason`` is empty when it passed its checks."""

    key: str
    wall_s: float
    test_loss: float = math.nan
    objective: float = math.nan
    reason: str = ""

    @property
    def ok(self) -> bool:
        return not self.reason


@dataclass(frozen=True)
class Unit:
    """Fits timed together, and their wall time."""

    wall_s: float
    fits: list[Fit]


@dataclass
class Task:
    seed: int
    dataset: Dataset
    path: Path


def task_seed(run_seed: int, t: int) -> int:
    return 1000 * run_seed + t


def setup(wl: Workload, seed: int, workdir: Path) -> tuple[list[Task], list[float]]:
    """Generate the run's datasets and write each with save_dataset, as
    ``dissim generate`` does; returns the tasks and each one's seconds."""
    tasks, seconds = [], []
    for t in range(wl.tasks):
        started = perf_counter()
        s = task_seed(seed, t)
        dataset, _ = synth.generate(wl.spec(s))
        path = workdir / f"task{t}.txt"
        dataio.save_dataset(dataset, path)
        seconds.append(perf_counter() - started)
        tasks.append(Task(s, dataset, path))
    return tasks, seconds


def run_pass(wl: Workload, tasks: list[Task], workdir: Path, tracer=None):
    """Make every fit of the workload once, in a fixed order; yields each
    unit of work as it completes: a fit, or a whole CLI call."""
    for t, task in enumerate(tasks):
        if wl.via_cli:
            yield _cli_unit(wl, t, task, workdir, tracer)
        else:
            yield from _direct_units(wl, t, task, tracer)


def _key(t, fold, method, loss_kind, C) -> str:
    return f"t{t}/f{fold}/{method}/{loss_kind}/C{C!r}"


def _config(wl: Workload, seed: int, C: float) -> trainer.TrainConfig:
    return trainer.TrainConfig(
        hyper=HyperParams(C=C),
        ssd=SSDConfig(steps_per_sample=SSD_FACTOR, seed=seed),
        inner_tol=INNER_TOL,
        max_outer_rounds=MAX_ROUNDS,
        C_grid=wl.C_grid,
        split_seed=seed,
    )


def _split(task: Task, fold: int):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(task.seed, fold)))
    return trainer.stratified_split(task.dataset, SPLIT, rng)


def _fit_once(method, train_ds, loss, config):
    """Fit one model through the public API; returns (params, trace)."""
    if method == "dissim":
        model = trainer.train(train_ds, loss, config)
        return model.params, model.trace
    fit = baselines.lsvm_train if method == "lsvm" else baselines.ilsvm_train
    hyper = config.hyper
    params, report = fit(train_ds, loss, hyper.C, hyper.epsilon, config.inner_tol)
    return params, report.trace


def _direct_units(wl: Workload, t: int, task: Task, tracer):
    """One unit per fit, so calibration can run between fits."""
    losses = {kind: make_loss(kind) for kind in wl.losses}
    for fold in range(wl.folds):
        train_ds, test_ds = _split(task, fold)
        for method in wl.methods:
            for kind in wl.losses:
                for C in wl.C_grid:
                    if tracer is not None:
                        tracer.run_id += 1
                    fit = _one_fit(_key(t, fold, method, kind, C), method,
                                   train_ds, test_ds, losses[kind],
                                   _config(wl, task.seed, C))
                    yield Unit(fit.wall_s, [fit])


def _one_fit(key, method, train_ds, test_ds, loss, config) -> Fit:
    started = perf_counter()
    try:
        params, trace = _fit_once(method, train_ds, loss, config)
        test_loss = trainer.evaluate(params, test_ds, loss)
    except SolverError as err:
        return Fit(key, perf_counter() - started, reason=f"SolverError: {err}")
    wall = perf_counter() - started
    objective = float(trace[-1])
    if not (np.isfinite(params.w).all() and np.isfinite(params.theta).all()):
        return Fit(key, wall, test_loss, objective, "non-finite parameters")
    if any(b > a for a, b in zip(trace, trace[1:])):
        return Fit(key, wall, test_loss, objective, "objective trace increases")
    return Fit(key, wall, test_loss, objective, _loss_problem(test_loss))


def _loss_problem(test_loss: float) -> str:
    return "" if 0.0 <= test_loss <= 100.0 else f"test loss {test_loss!r} off [0, 100]"


def _cli_unit(wl: Workload, t: int, task: Task, workdir: Path, tracer) -> Unit:
    """One ``dissim experiment`` call with the argv that
    scripts/run_experiment.py builds, load and save included."""
    out = workdir / f"results{t}.csv"
    argv = [
        "experiment", "--data", str(task.path),
        "--methods", ",".join(wl.methods),
        "--losses", ",".join(wl.losses),
        "--inner-tol", repr(INNER_TOL), "--max-rounds", str(MAX_ROUNDS),
        "--ssd-factor", str(SSD_FACTOR),
        "--seed", str(task.seed),
        "--out", str(out),
        "--C-grid", ",".join(repr(c) for c in wl.C_grid),
        "--folds", str(wl.folds),
    ]
    if tracer is not None:
        tracer.run_id += 1
    started = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    wall = perf_counter() - started
    return Unit(wall, _cli_fits(wl, t, code, out, wall))


def _cli_fits(wl: Workload, t: int, code: int, out: Path, wall: float) -> list[Fit]:
    expected = [_key(t, f, m, k, C) for k in wl.losses for m in wl.methods
                for f in range(wl.folds) for C in wl.C_grid]
    reason = f"experiment exit {code}" if code else ""
    if not reason:
        rows = dataio.load_results(out)
        got = [_key(t, r.fold, r.method, r.loss_kind, r.C) for r in rows]
        if got != expected:
            reason = "results rows differ from the grid"
    if reason:
        return [Fit(key, wall / len(expected), reason=reason) for key in expected]
    fits = []
    for key, r in zip(got, rows):
        problem = _loss_problem(r.test_loss)
        if not math.isfinite(r.train_objective):
            problem = "non-finite objective"
        fits.append(Fit(key, r.wallclock_seconds, r.test_loss, r.train_objective,
                        problem))
    return fits


def best_mean_loss(fits: list[Fit]) -> dict[str, float]:
    """Best (over C) mean test loss per method/loss, as the experiment
    summary reports it."""
    cells: dict[tuple[str, str], dict[str, list[float]]] = {}
    for fit in fits:
        if fit.ok:
            _, _, method, kind, C = fit.key.split("/")
            cells.setdefault((method, kind), {}).setdefault(C, []).append(fit.test_loss)
    return {f"{m}/{k}": min(float(np.mean(v)) for v in by_c.values())
            for (m, k), by_c in sorted(cells.items())}
