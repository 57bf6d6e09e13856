"""Stochastic subgradient solver for the distribution parameters.

At fixed w the training objective restricted to theta is

    (J / 2) ||theta||^2 + C * mean_i [ slack_i(w, theta)
                                       - beta * self_diversity_i(theta) ].

Dividing by C and writing lam = J / C gives a shrinkage-plus-loss form
suited to a Pegasos-style descent: at step t, pick one sample uniformly
at random and move along

    g_t = lam * theta + grad slack_i - beta * grad self_diversity_i

with step size exactly 1 / (lam * t).  No averaging and no step floor.

All gradients flow through the softmax latent conditional.  With
p = P_theta(. | s), mean feature pbar = phi^T p, and a per-latent weight
vector v, the common building block is

    sum_k v_k p_k (phi_k - pbar).

The slack gradient applies Danskin's rule: differentiate the expected
loss at the current loss-augmented argmax (valid off tie points).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .losses import (  # noqa: F401  (expected_loss_table: perfbench wraps this binding)
    HyperParams,
    LossFunction,
    _augmented,
    _loss_column,
    _SampleView,
    expected_loss_table,
    upper_bound,
)
from .model import Dataset, SampleRecord, _posterior, latent_posterior, score_table


@dataclass(frozen=True)
class SSDConfig:
    """Budget and seeding of the stochastic subgradient run.

    ``steps`` fixes the budget outright; left unset the budget is
    ``steps_per_sample`` times the training set size (default 50 per
    sample).  The shrinkage weight is always J / C from the
    hyperparameters.
    """

    steps: Optional[int] = None
    steps_per_sample: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.steps is not None and self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.steps_per_sample < 1:
            raise ConfigError(
                f"steps_per_sample must be >= 1, got {self.steps_per_sample}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _weighted_feature_pull(
    probs: np.ndarray,
    phi_t: np.ndarray,
    mean_feature: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """sum_k weights_k probs_k (phi_k - mean_feature), where phi_t is
    phi.T and mean_feature is phi.T @ probs."""
    pw = probs * weights
    return phi_t @ pw - float(np.add.reduce(pw)) * mean_feature


def _gradients(view: _SampleView, probs: np.ndarray, column: np.ndarray):
    """Gradients in theta of ``probs @ column`` (the expected loss of the
    candidate with this loss column) and of the self diversity: two pulls
    sharing the mean feature.  Exact zeros for a latent-independent loss."""
    if not view.latent_dependent:
        zeros = np.zeros(view.phi.shape[1])
        return zeros, zeros
    phi_t, at_truth = view.phi_t, view.at_truth
    mean_feature = phi_t @ probs
    self_weights = at_truth @ probs + probs @ at_truth
    return (
        _weighted_feature_pull(probs, phi_t, mean_feature, column),
        _weighted_feature_pull(probs, phi_t, mean_feature, self_weights),
    )


def _step_gradients(view: _SampleView, scores: np.ndarray, probs: np.ndarray):
    """The slack subgradient (Danskin: the expected-loss gradient at the
    loss-augmented argmax) and the self-diversity gradient at one sample."""
    y, k = divmod(int(_augmented(view, scores, probs).argmax()), scores.shape[1])
    return _gradients(view, probs, view.table[:, y, k])


def grad_expected_loss(
    theta: np.ndarray, sample: SampleRecord, y: int, k: int, loss: LossFunction
) -> np.ndarray:
    """Gradient in theta of the expected loss of candidate (y, k)."""
    probs = latent_posterior(theta, sample)
    view = loss.view(sample)
    return _gradients(view, probs, _loss_column(view, y, k))[0]


def grad_self_diversity(
    theta: np.ndarray, sample: SampleRecord, loss: LossFunction
) -> np.ndarray:
    """Gradient in theta of the conditional's self diversity."""
    probs = latent_posterior(theta, sample)
    view = loss.view(sample)
    # any column: the self-diversity gradient does not read it
    return _gradients(view, probs, view.table[:, 0, 0])[1]


def grad_slack(
    w: np.ndarray, theta: np.ndarray, sample: SampleRecord, loss: LossFunction
) -> np.ndarray:
    """Subgradient in theta of the sample slack, via the loss-augmented
    argmax (Danskin; a subgradient at tie points)."""
    probs = latent_posterior(theta, sample)
    view = loss.view(sample)
    return _step_gradients(view, score_table(w, sample), probs)[0]


def theta_objective(
    w: np.ndarray,
    theta: np.ndarray,
    dataset: Dataset,
    loss: LossFunction,
    hyper: HyperParams,
) -> float:
    """The theta subproblem objective at fixed w:
    (J / 2) ||theta||^2 + C * upper_bound."""
    theta = np.asarray(theta, dtype=np.float64)
    reg = 0.5 * hyper.J * float(theta @ theta)
    return reg + hyper.C * upper_bound(w, theta, dataset, loss, hyper.beta)


_INDEX_BLOCK = 4096


def _step_indices(rng: np.random.Generator, n: int, steps: int):
    """``steps`` uniform sample indices in [0, n), drawn in blocks of at
    most ``_INDEX_BLOCK``.

    A block draw ``rng.integers(n, size=b)`` yields the same indices as b
    scalar draws ``rng.integers(n)`` (the tests pin this); blocks keep the
    memory bounded for any budget.
    """
    for start in range(0, steps, _INDEX_BLOCK):
        size = min(_INDEX_BLOCK, steps - start)
        yield from rng.integers(n, size=size).tolist()


def ssd_theta(
    dataset: Dataset,
    w: np.ndarray,
    theta_init: np.ndarray,
    loss: LossFunction,
    hyper: HyperParams,
    config: SSDConfig = SSDConfig(),
) -> np.ndarray:
    """Stochastic subgradient descent on the theta subproblem.

    Returns the final iterate.  Fully deterministic given the config
    seed.  Each step calls ``_step_gradients``, the core that
    ``grad_slack`` and ``grad_self_diversity`` call too, on the loss's
    cached per-sample views, with every score table at w sliced from one
    product over ``loss.stack(dataset)``.
    """
    n = len(dataset)
    steps = (
        config.steps if config.steps is not None else config.steps_per_sample * n
    )
    lam = hyper.J / hyper.C
    if not lam > 0:
        raise ConfigError(f"shrinkage weight must be positive, got {lam}")
    theta = np.array(theta_init, dtype=np.float64)
    if theta.shape != (dataset.d_theta,):
        raise ConfigError(
            f"theta has shape {theta.shape}, expected ({dataset.d_theta},)"
        )
    beta = hyper.beta
    stack = loss.stack(dataset)
    scores = stack.scoring.scores(w)
    views = [
        (view, scores[i, :, : len(view.phi)]) for i, view in enumerate(stack.views)
    ]
    rng = np.random.default_rng(config.seed)
    for t, i in enumerate(_step_indices(rng, n, steps), 1):
        view, scores = views[i]
        probs = _posterior(view.phi, theta)
        g_slack, g_selfdiv = _step_gradients(view, scores, probs)
        g = lam * theta + g_slack - beta * g_selfdiv
        theta = theta - g / (lam * t)
    return theta
