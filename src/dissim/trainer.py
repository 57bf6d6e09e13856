"""Alternating trainer, evaluation, and the cross-validation protocol.

Training alternates a CCCP w-step with a stochastic subgradient
theta-step, starting from zero parameters with the w-step first.  Because
the theta-step is stochastic, the trainer keeps the best regularized
objective seen and measures termination on that best-so-far sequence: it
stops once a full round improves it by less than C * epsilon, or when the
round budget is hit.  The returned parameters are the best iterate.  A
round whose objective is not finite raises SolverError.

The protocol trains over a C grid with per-class stratified shuffle
splits, evaluates on the held-out part with the ground-truth latent
annotations, and reports fold rows plus per-C mean and standard deviation
(population convention) of the test loss scaled to [0, 100], per method.
Its unit of work is a (loss, fold, C) cell: the cell splits its fold and
fits every method at its C on that split, so the baselines share their
solved subproblems (see ``baselines``).  Cells are independent, so
``run_protocols`` fits the cells of one or more losses in ``workers``
children started by ``os.fork``.  The parent writes the cell indices into
one pipe, largest C first; each child reads them one at a time, fits its
cells, and pickles its rows back through a pipe of its own, and the parent
puts the rows back in order.  The parent starts no thread and imports no
``multiprocessing``.  The results are the same bit for bit for any number
of workers, and each row's wallclock time is its fit's own, measured in
its child.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import time
from dataclasses import dataclass, replace
from typing import BinaryIO, Optional, Sequence

import numpy as np

from .baselines import ilsvm_train, lsvm_train
from .dataio import ModelRecord, ResultRow
from .errors import ConfigError, InputError, SolverError
from .losses import HyperParams, LossFunction, regularized_objective
from .model import Dataset, ModelParams
from .thetasolver import SSDConfig, ssd_theta
from .wsolver import DEFAULT_INNER_TOL, cccp_w

DEFAULT_C_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2)
# the protocol's folds, and the training fraction of each
DEFAULT_FOLDS = 5
DEFAULT_SPLIT = 0.6
METHODS = ("dissim", "lsvm", "ilsvm")


@dataclass(frozen=True)
class TrainConfig:
    """Everything one training run needs besides the data and the loss."""

    hyper: HyperParams = HyperParams()
    ssd: SSDConfig = SSDConfig()
    inner_tol: float = DEFAULT_INNER_TOL
    max_outer_rounds: int = 40
    C_grid: tuple[float, ...] = DEFAULT_C_GRID
    split_seed: int = 0

    def __post_init__(self):
        if not (self.inner_tol > 0 and math.isfinite(self.inner_tol)):
            raise ConfigError(
                f"inner_tol must be positive and finite, got {self.inner_tol}"
            )
        if self.max_outer_rounds < 1:
            raise ConfigError(
                f"max_outer_rounds must be >= 1, got {self.max_outer_rounds}"
            )
        if len(self.C_grid) < 1 or not all(
            c > 0 and math.isfinite(c) for c in self.C_grid
        ):
            raise ConfigError("C grid must be non-empty, positive and finite")
        if list(self.C_grid) != sorted(self.C_grid) or len(set(self.C_grid)) != len(
            self.C_grid
        ):
            raise ConfigError("C grid must be strictly increasing")
        if self.split_seed < 0:
            raise ConfigError(f"split_seed must be >= 0, got {self.split_seed}")


@dataclass(frozen=True)
class CurvePoint:
    method: str
    C: float
    mean: float
    std: float


@dataclass(frozen=True)
class ProtocolResult:
    rows: list[ResultRow]
    summary: list[CurvePoint]


def _round_seed(base: int, round_index: int) -> int:
    return int(
        np.random.SeedSequence(entropy=(base, round_index)).generate_state(1)[0]
    )


def train(dataset: Dataset, loss: LossFunction, config: TrainConfig) -> ModelRecord:
    """Block-coordinate descent on the regularized objective; the record's
    termination is "tolerance" or "round_budget".

    Deterministic given the config: the theta-step seed for round r is
    derived from the configured seed and r.
    """
    hyper = config.hyper
    w = np.zeros(dataset.d_w)
    theta = np.zeros(dataset.d_theta)
    best_w, best_theta = w, theta
    best_obj = regularized_objective(w, theta, dataset, loss, hyper)
    trace = [best_obj]
    termination = "round_budget"
    # extreme but finite hyperparameters can overflow inside a round; the
    # round-end check turns a non-finite objective into SolverError, so
    # numpy's floating-point warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for round_index in range(1, config.max_outer_rounds + 1):
            try:
                w, _ = cccp_w(
                    dataset,
                    theta,
                    w,
                    loss,
                    hyper.C,
                    hyper.epsilon,
                    config.inner_tol,
                )
                ssd_cfg = replace(
                    config.ssd, seed=_round_seed(config.ssd.seed, round_index)
                )
                theta = ssd_theta(dataset, w, theta, loss, hyper, ssd_cfg)
            except SolverError as err:
                raise SolverError(
                    f"round {round_index}: {err}",
                    last_iterate=err.last_iterate,
                ) from err
            obj = regularized_objective(w, theta, dataset, loss, hyper)
            if not math.isfinite(obj):
                raise SolverError(
                    f"round {round_index}: objective is not finite ({obj})",
                    last_iterate=w,
                )
            decrease = best_obj - min(best_obj, obj)
            if obj < best_obj:
                best_obj = obj
                best_w, best_theta = w, theta
            trace.append(best_obj)
            if decrease < hyper.C * hyper.epsilon:
                termination = "tolerance"
                break
    return ModelRecord(ModelParams(best_w, best_theta), "dissim", loss.kind,
                       termination, trace)


def evaluate(params: ModelParams, dataset: Dataset, loss: LossFunction) -> float:
    """Mean prediction loss against ground-truth annotations, on [0, 100]."""
    for sample in dataset:
        if sample.truth_latent is None:
            raise InputError(
                f"sample {sample.id} has no ground-truth latent annotation"
            )
    scoring = dataset._score_stack
    labels, latents = scoring.predict(scoring.scores(params.w))
    total = 0.0
    for sample, y, k in zip(dataset, labels.tolist(), latents.tolist()):
        total += float(loss.table(sample)[sample.truth_latent, y, k])
    return 100.0 * total / len(dataset)


def stratified_split(
    dataset: Dataset, split: float, rng: np.random.Generator
) -> tuple[Dataset, Dataset]:
    """Per-class shuffle split; every class keeps at least one sample on
    each side, so classes need at least two samples."""
    _check_split(split)
    by_label: dict[int, list[int]] = {}
    for idx, sample in enumerate(dataset):
        by_label.setdefault(sample.truth_label, []).append(idx)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in sorted(by_label):
        members = by_label[label]
        if len(members) < 2:
            raise InputError(
                f"label {label} has {len(members)} sample(s); "
                "need at least 2 to split"
            )
        order = rng.permutation(len(members))
        n_train = int(round(split * len(members)))
        n_train = max(1, min(len(members) - 1, n_train))
        train_idx.extend(members[j] for j in order[:n_train])
        test_idx.extend(members[j] for j in order[n_train:])
    train_idx.sort()
    test_idx.sort()
    samples = list(dataset)

    def subset(indices):
        return Dataset(
            num_labels=dataset.num_labels,
            d_w=dataset.d_w,
            d_theta=dataset.d_theta,
            samples=tuple(samples[j] for j in indices),
        )

    return subset(train_idx), subset(test_idx)


def _check_split(split: float) -> None:
    if not 0.0 < split < 1.0:
        raise ConfigError(f"split fraction must lie in (0, 1), got {split}")


def _fit(
    method: str, dataset: Dataset, loss: LossFunction, config: TrainConfig
) -> ModelRecord:
    """Train one model by the named method.  The termination reason is
    "tolerance" or "round_budget" for dissim and "tolerance" or "repeat"
    for the baselines.  The command line and the protocol both dispatch
    through here."""
    if method == "dissim":
        return train(dataset, loss, config)
    if method == "lsvm":
        fit = lsvm_train
    elif method == "ilsvm":
        fit = ilsvm_train
    else:
        raise ConfigError(f"unknown method {method!r}; pick one of {METHODS}")
    hyper = config.hyper
    params, report = fit(dataset, loss, hyper.C, hyper.epsilon, config.inner_tol)
    return ModelRecord(params, method, loss.kind, report.termination, report.trace)


def run_protocol(
    dataset: Dataset,
    loss: LossFunction,
    config: TrainConfig,
    n_folds: int = DEFAULT_FOLDS,
    split: float = DEFAULT_SPLIT,
    methods: tuple[str, ...] = ("dissim",),
    workers: Optional[int] = None,
) -> ProtocolResult:
    """Stratified shuffle-split protocol over the methods and the C grid.

    Fold f uses a split seeded by (config.split_seed, f), so identical
    configs reproduce identical splits and results.  Every method is
    fitted at each (fold, C) cell on that cell's one training set, so
    lsvm and ilsvm share its store of solved subproblems.  Rows and
    summary points come back method-major, in the order of ``methods``,
    then by fold and C.  ``workers`` is the number of processes fitting
    cells (see ``run_protocols``); the results do not depend on it.
    """
    return run_protocols(
        dataset, (loss,), config, n_folds, split, methods, workers
    )[0]


def run_protocols(
    dataset: Dataset,
    losses: Sequence[LossFunction],
    config: TrainConfig,
    n_folds: int = DEFAULT_FOLDS,
    split: float = DEFAULT_SPLIT,
    methods: tuple[str, ...] = ("dissim",),
    workers: Optional[int] = None,
) -> list[ProtocolResult]:
    """``run_protocol`` under each loss, with the (loss, fold, C) cells of
    every loss fitted by one pool of ``workers`` forked processes.

    ``None`` means the usable CPUs, capped at the number of cells; with
    one worker every cell is fitted in this process.  The largest C goes
    out first, since those cells take most of the time.  Returns one
    result per loss, each as ``run_protocol`` lays it out.
    """
    if n_folds < 1:
        raise ConfigError(f"n_folds must be >= 1, got {n_folds}")
    _check_split(split)
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    cells = _Cells(dataset, tuple(losses), config, n_folds, split, methods)
    if workers is None and hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    elif workers is None:
        workers = os.cpu_count() or 1
    fitted = _map_cells(cells, min(workers, len(cells.keys)))
    per_loss = n_folds * len(config.C_grid)
    results = []
    for start in range(0, len(fitted), per_loss):
        mine = fitted[start:start + per_loss]  # by fold, then C
        rows = [cell[m] for m in range(len(methods)) for cell in mine]
        summary = []
        for method in methods:
            for C in config.C_grid:
                test = np.array(
                    [r.test_loss for r in rows if r.method == method and r.C == C]
                )
                summary.append(
                    CurvePoint(method=method, C=C, mean=float(test.mean()),
                               std=float(test.std()))
                )
        results.append(ProtocolResult(rows=rows, summary=summary))
    return results


class _Cells:
    """The (loss, fold, C) cells of a protocol run, fitted by index.

    A cell splits its fold with the fold's seed, then fits every method at
    its C on that training set in the order of ``methods``, so ilsvm
    reuses lsvm's solves (the store is keyed by C).  A forked worker
    inherits this object, so only a cell's index is sent to it, and only
    its rows come back.
    """

    def __init__(self, dataset, losses, config, n_folds, split, methods):
        self.dataset, self.losses, self.config = dataset, losses, config
        self.split, self.methods = split, methods
        self.keys = [(l, fold, C) for l in range(len(losses))
                     for fold in range(n_folds) for C in config.C_grid]

    def fit(self, index: int) -> list[ResultRow]:
        which, fold, C = self.keys[index]
        loss = self.losses[which]
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(self.config.split_seed, fold))
        )
        train_ds, test_ds = stratified_split(self.dataset, self.split, rng)
        cfg = replace(self.config, hyper=replace(self.config.hyper, C=C))
        rows = []
        for method in self.methods:
            started = time.perf_counter()
            record = _fit(method, train_ds, loss, cfg)
            test_loss = evaluate(record.params, test_ds, loss)
            rows.append(
                ResultRow(method, loss.kind, C, fold, test_loss,
                          record.trace[-1], time.perf_counter() - started)
            )
        return rows


def _map_cells(cells: _Cells, workers: int) -> list[list[ResultRow]]:
    """Every cell's rows, in cell order.  More than one worker forks that
    many children, which inherit ``cells`` (losses cannot be pickled) and
    read cell indices from one pipe, largest C first.  A cell's error
    drains the queue, so the cells still queued never run; once the
    running cells have ended, the error of the failing cell that went out
    first is re-raised here.  A child that dies without replying, as one
    killed by the kernel's out-of-memory killer does, is a MemoryError.
    Every child is reaped before this returns or raises."""
    n = len(cells.keys)
    if workers <= 1:
        return [cells.fit(i) for i in range(n)]
    largest_first = sorted(range(n), key=lambda i: -cells.keys[i][2])
    read_end, write_end = os.pipe()
    queue, feed = open(read_end, "rb", 0), open(write_end, "wb", 0)
    children = {}  # pid -> the read end of its reply pipe
    try:
        for _ in range(workers):
            reply, answer = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(reply)
                os.close(answer)
                raise
            if pid == 0:  # the child, which must never return from here
                code = 1
                try:
                    feed.close()  # else its queue never ends
                    _serve(cells, queue, answer)
                    code = 0
                finally:
                    os._exit(code)
            os.close(answer)
            children[pid] = open(reply, "rb")
        queue.close()
        try:
            for i in largest_first:
                # a record is smaller than PIPE_BUF, so a read gets all of it
                feed.write(i.to_bytes(4, "little"))
        except BrokenPipeError:
            pass  # every child has died; its exit status tells below
        feed.close()
        rows, errors, lost = {}, [], False
        for pid in list(children):
            data = children[pid].read()
            children.pop(pid).close()
            if os.waitpid(pid, 0)[1] != 0:
                lost = True
                continue
            done, failed = pickle.loads(data)
            rows.update(done)
            if failed is not None:
                errors.append(failed)
    finally:
        queue.close()
        feed.close()
        for pid, pipe in children.items():  # left only by an error here
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if lost:
        raise MemoryError("a worker process was killed")
    if errors:
        raise min(errors, key=lambda f: largest_first.index(f[0]))[1]
    return [rows[i] for i in range(n)]


def _serve(cells: _Cells, queue: BinaryIO, answer: int) -> None:
    """A forked child's work: fit the cells whose 4-byte indices it reads
    from ``queue`` until the queue ends, then pickle its rows, and the
    index and error of its failed cell if one failed, into ``answer``.
    After a failure it reads the queue to its end and fits nothing more.
    An error that cannot be pickled goes back as a RuntimeError naming its
    type and message."""
    done, failed = {}, None
    while record := queue.read(4):
        if failed is None:
            index = int.from_bytes(record, "little")
            try:
                done[index] = cells.fit(index)
            except Exception as err:
                failed = (index, err)
    try:
        reply = pickle.dumps((done, failed))
    except Exception:
        index, err = failed
        stand_in = RuntimeError(f"{type(err).__name__}: {err}")
        reply = pickle.dumps((done, (index, stand_in)))
    with open(answer, "wb") as pipe:
        pipe.write(reply)
