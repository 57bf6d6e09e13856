"""Latent-SVM style baselines sharing the cutting-plane machinery.

Both baselines learn only the prediction parameters w and replace the
expected loss with a pointwise loss measured against a per-sample latent
reference that is re-estimated every outer round:

  * lsvm_train    references the best-scoring latent at the truth label
                  (the same imputation CCCP uses for its anchors);
  * ilsvm_train   references the latent minimizing the loss against the
                  current prediction, i.e. the point-mass latent
                  distribution that a degenerate conditional would pick.

With a latent-independent loss the pointwise and expected losses coincide
exactly, so lsvm_train and the dissimilarity w-solver walk identical
iterate sequences from the same start.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .losses import LossFunction
from .model import Dataset, ModelParams, predict
from .wsolver import DEFAULT_PLANE_BUDGET, WSolverReport, _cccp_loop


def _pointwise_tables(dataset: Dataset, refs: Sequence[int], loss: LossFunction):
    """Per-sample (labels, K) tables of loss(truth, ref, y, k)."""
    return [loss.table(sample)[ref] for sample, ref in zip(dataset, refs)]


def lsvm_train(
    dataset: Dataset,
    loss: LossFunction,
    C: float,
    epsilon: float = 1e-3,
    inner_tol: float = 1e-4,
    w_init: Optional[np.ndarray] = None,
    plane_budget: int = DEFAULT_PLANE_BUDGET,
) -> tuple[ModelParams, WSolverReport]:
    """Latent SVM: impute the latent by score, measure loss against it."""

    def build(w, imputed):
        return _pointwise_tables(dataset, imputed, loss)

    w, report = _cccp_loop(
        dataset, build, C, epsilon, inner_tol, w_init, plane_budget
    )
    return ModelParams(w, np.zeros(dataset.d_theta)), report


def ilsvm_latent_estimates(
    w: np.ndarray, dataset: Dataset, loss: LossFunction
) -> list[int]:
    """Per-sample latent minimizing the loss against the current
    prediction; ties break to the smallest index."""
    refs = []
    for sample in dataset:
        y_hat, k_hat = predict(w, sample)
        refs.append(int(np.argmin(loss.table(sample)[:, y_hat, k_hat])))
    return refs


def ilsvm_train(
    dataset: Dataset,
    loss: LossFunction,
    C: float,
    epsilon: float = 1e-3,
    inner_tol: float = 1e-4,
    w_init: Optional[np.ndarray] = None,
    plane_budget: int = DEFAULT_PLANE_BUDGET,
) -> tuple[ModelParams, WSolverReport]:
    """Iterative latent SVM: estimate the latent reference by minimizing
    the loss against the prediction, then solve the convex problem with
    the loss measured against that reference."""

    def build(w, imputed):
        refs = ilsvm_latent_estimates(w, dataset, loss)
        return _pointwise_tables(dataset, refs, loss)

    w, report = _cccp_loop(
        dataset, build, C, epsilon, inner_tol, w_init, plane_budget
    )
    return ModelParams(w, np.zeros(dataset.d_theta)), report


def delta_restricted_objective(
    dataset: Dataset,
    w: np.ndarray,
    placements: Sequence[int],
    loss: LossFunction,
    beta: float,
) -> float:
    """Dissimilarity objective when the latent conditional is restricted
    to point masses at the given placements.

    A point mass has zero self diversity, so beta enters with weight zero;
    the parameter is kept for symmetry with the unrestricted objective.
    """
    del beta
    total = 0.0
    for sample, placement in zip(dataset, placements):
        if not (0 <= placement < sample.num_latents):
            raise IndexError(
                f"placement {placement} outside [0, {sample.num_latents})"
            )
        y_hat, k_hat = predict(w, sample)
        total += loss(sample.truth_label, placement, y_hat, k_hat, sample)
    return total / len(dataset)
