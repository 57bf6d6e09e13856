"""Alternating trainer, evaluation, and the cross-validation protocol.

Training alternates a CCCP w-step with a stochastic subgradient
theta-step, starting from zero parameters with the w-step first.  Because
the theta-step is stochastic, the trainer keeps the best regularized
objective seen and measures termination on that best-so-far sequence: it
stops once a full round improves it by less than C * epsilon, or when the
round budget is hit.  The returned parameters are the best iterate.

The protocol trains over a C grid with per-class stratified shuffle
splits, evaluates on the held-out part with the ground-truth latent
annotations, and reports fold rows plus per-C mean and standard deviation
(population convention) of the test loss scaled to [0, 100].
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .baselines import ilsvm_train, lsvm_train
from .errors import ConfigError, InputError, SolverError
from .losses import HyperParams, LossFunction, regularized_objective
from .model import Dataset, ModelParams, predict
from .thetasolver import SSDConfig, ssd_theta
from .wsolver import cccp_w

DEFAULT_C_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2)
METHODS = ("dissim", "lsvm", "ilsvm")


@dataclass(frozen=True)
class TrainConfig:
    """Everything one training run needs besides the data and the loss."""

    hyper: HyperParams = HyperParams()
    ssd: SSDConfig = SSDConfig()
    inner_tol: float = 1e-4
    max_outer_rounds: int = 40
    C_grid: tuple[float, ...] = DEFAULT_C_GRID
    split_seed: int = 0

    def __post_init__(self):
        if not self.inner_tol > 0:
            raise ConfigError(f"inner_tol must be positive, got {self.inner_tol}")
        if self.max_outer_rounds < 1:
            raise ConfigError(
                f"max_outer_rounds must be >= 1, got {self.max_outer_rounds}"
            )
        if len(self.C_grid) < 1 or any(c <= 0 for c in self.C_grid):
            raise ConfigError("C grid must be non-empty and positive")
        if list(self.C_grid) != sorted(self.C_grid) or len(set(self.C_grid)) != len(
            self.C_grid
        ):
            raise ConfigError("C grid must be strictly increasing")


@dataclass
class TrainedModel:
    params: ModelParams
    trace: list[float] = field(default_factory=list)
    termination: str = "tolerance"  # "tolerance" or "round_budget"


@dataclass(frozen=True)
class FoldResult:
    C: float
    fold: int
    test_loss: float  # in [0, 100]
    train_objective: float
    wallclock_seconds: float = 0.0


@dataclass(frozen=True)
class CurvePoint:
    C: float
    mean: float
    std: float


@dataclass
class ProtocolResult:
    rows: list[FoldResult]
    summary: list[CurvePoint]


def _round_seed(base: int, round_index: int) -> int:
    return int(
        np.random.SeedSequence(entropy=(base, round_index)).generate_state(1)[0]
    )


def train(dataset: Dataset, loss: LossFunction, config: TrainConfig) -> TrainedModel:
    """Block-coordinate descent on the regularized objective.

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
            theta, _ = ssd_theta(dataset, w, theta, loss, hyper, ssd_cfg)
        except SolverError as err:
            raise SolverError(
                f"round {round_index}: {err}",
                last_iterate=err.last_iterate,
                round_index=round_index,
            ) from err
        obj = regularized_objective(w, theta, dataset, loss, hyper)
        decrease = best_obj - min(best_obj, obj)
        if obj < best_obj:
            best_obj = obj
            best_w, best_theta = w.copy(), theta.copy()
        trace.append(best_obj)
        if decrease < hyper.C * hyper.epsilon:
            termination = "tolerance"
            break
    return TrainedModel(
        params=ModelParams(best_w, best_theta),
        trace=trace,
        termination=termination,
    )


def evaluate(params: ModelParams, dataset: Dataset, loss: LossFunction) -> float:
    """Mean prediction loss against ground-truth annotations, on [0, 100]."""
    total = 0.0
    for sample in dataset:
        if sample.truth_latent is None:
            raise InputError(
                f"sample {sample.id} has no ground-truth latent annotation"
            )
        y_hat, k_hat = predict(params.w, sample)
        total += loss(sample.truth_label, sample.truth_latent, y_hat, k_hat, sample)
    return 100.0 * total / len(dataset)


def stratified_split(
    dataset: Dataset, split: float, rng: np.random.Generator
) -> tuple[Dataset, Dataset]:
    """Per-class shuffle split; every class keeps at least one sample on
    each side, so classes need at least two samples."""
    if not 0.0 < split < 1.0:
        raise ConfigError(f"split fraction must lie in (0, 1), got {split}")
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


def _fit(method: str, dataset: Dataset, loss: LossFunction, config: TrainConfig):
    """Train one model by the named method; returns (params, objective
    trace, termination reason).  The command line and the protocol both
    dispatch through here."""
    if method == "dissim":
        model = train(dataset, loss, config)
        return model.params, model.trace, model.termination
    if method == "lsvm":
        fit = lsvm_train
    elif method == "ilsvm":
        fit = ilsvm_train
    else:
        raise ConfigError(f"unknown method {method!r}; pick one of {METHODS}")
    hyper = config.hyper
    params, report = fit(dataset, loss, hyper.C, hyper.epsilon, config.inner_tol)
    return params, report.trace, "tolerance"


def run_protocol(
    dataset: Dataset,
    loss: LossFunction,
    config: TrainConfig,
    n_folds: int = 5,
    split: float = 0.6,
    method: str = "dissim",
) -> ProtocolResult:
    """Stratified shuffle-split protocol over the C grid.

    Fold f uses a split seeded by (config.split_seed, f), so identical
    configs reproduce identical splits and results.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; pick one of {METHODS}")
    if n_folds < 1:
        raise ConfigError(f"n_folds must be >= 1, got {n_folds}")
    rows: list[FoldResult] = []
    for fold in range(n_folds):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(config.split_seed, fold))
        )
        train_ds, test_ds = stratified_split(dataset, split, rng)
        for C in config.C_grid:
            cfg = replace(config, hyper=replace(config.hyper, C=C))
            started = time.perf_counter()
            params, trace, _ = _fit(method, train_ds, loss, cfg)
            test_loss = evaluate(params, test_ds, loss)
            rows.append(
                FoldResult(
                    C=C,
                    fold=fold,
                    test_loss=test_loss,
                    train_objective=trace[-1],
                    wallclock_seconds=time.perf_counter() - started,
                )
            )
    summary = []
    for C in config.C_grid:
        losses = np.array([r.test_loss for r in rows if r.C == C])
        summary.append(
            CurvePoint(C=C, mean=float(losses.mean()), std=float(losses.std()))
        )
    return ProtocolResult(rows=rows, summary=summary)
