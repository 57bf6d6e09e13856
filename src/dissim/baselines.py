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

A baseline subproblem is fixed by the anchors and the table references
(lsvm's anchors themselves, ilsvm's reference latents), so both methods
key it by those integers and solve it at most once per training set, loss,
C and inner_tol: the store is ``loss.stack(dataset).solves``, and it lives
as long as the training set does.  Both start from w = 0, where ilsvm's
references equal lsvm's anchors, so an ilsvm run after an lsvm run on the
same training set and loss reuses its first solves; the protocol fits
every method on one split per fold to get that reuse.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .losses import HyperParams, LossFunction
from .model import Dataset, ModelParams
from .wsolver import DEFAULT_INNER_TOL, WSolverReport, _cccp_loop


def _latent_svm_train(
    dataset: Dataset,
    loss: LossFunction,
    C: float,
    epsilon: float,
    inner_tol: float,
    references: Callable[[np.ndarray, list[int]], list[int]],
) -> tuple[ModelParams, WSolverReport]:
    """The CCCP run both baselines make: the loss is measured against
    ``references(scores, imputed)``, one latent index per sample from the
    round's scores, and a subproblem is keyed by the anchors plus those
    references."""

    stack = loss.stack(dataset)

    def build(scores, imputed):
        refs = references(scores, imputed)
        return stack.pointwise(refs), tuple(refs)

    solved = stack.solves.setdefault((C, inner_tol), {})
    w, report = _cccp_loop(dataset, build, C, epsilon, inner_tol, None, solved)
    return ModelParams(w, np.zeros(dataset.d_theta)), report


def lsvm_train(
    dataset: Dataset,
    loss: LossFunction,
    C: float,
    epsilon: float = HyperParams.epsilon,
    inner_tol: float = DEFAULT_INNER_TOL,
) -> tuple[ModelParams, WSolverReport]:
    """Latent SVM: impute the latent by score, measure loss against it."""
    return _latent_svm_train(
        dataset, loss, C, epsilon, inner_tol, lambda scores, imputed: imputed
    )


def ilsvm_latent_estimates(
    w: np.ndarray, dataset: Dataset, loss: LossFunction
) -> list[int]:
    """Per-sample latent minimizing the loss against the current
    prediction; ties break to the smallest index."""
    stack = loss.stack(dataset)
    scoring = stack.scoring
    return stack.closest_latents(*scoring.predict(scoring.scores(w)))


def ilsvm_train(
    dataset: Dataset,
    loss: LossFunction,
    C: float,
    epsilon: float = HyperParams.epsilon,
    inner_tol: float = DEFAULT_INNER_TOL,
) -> tuple[ModelParams, WSolverReport]:
    """Iterative latent SVM: estimate the latent reference by minimizing
    the loss against the prediction, then solve the convex problem with
    the loss measured against that reference."""
    # ilsvm_latent_estimates at the round's scores; the argmin never picks
    # the higher of two rows with equal tables, so refs identify the
    # tables for the repeat check
    stack = loss.stack(dataset)
    return _latent_svm_train(
        dataset, loss, C, epsilon, inner_tol,
        lambda scores, imputed: stack.closest_latents(*stack.scoring.predict(scores)),
    )
