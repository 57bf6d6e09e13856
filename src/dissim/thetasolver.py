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
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError
from .losses import (
    HyperParams,
    LossFunction,
    _expected_loss_by_label,
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


def _grad_expected_from_probs(
    probs: np.ndarray, sample: SampleRecord, y: int, k: int, loss: LossFunction
) -> np.ndarray:
    if not loss.latent_dependent:
        return np.zeros(sample.phi.shape[1])
    phi_t = sample.phi.T
    column = loss.table(sample)[:, y, k]
    return _weighted_feature_pull(probs, phi_t, phi_t @ probs, column)


def _self_diversity_weights(probs: np.ndarray, at_truth: np.ndarray) -> np.ndarray:
    """Per-latent weights of the self-diversity gradient, given the loss
    table's truth-label slice T[:, truth, :]."""
    return at_truth @ probs + probs @ at_truth


def _grad_self_diversity_from_probs(
    probs: np.ndarray, sample: SampleRecord, loss: LossFunction
) -> np.ndarray:
    if not loss.latent_dependent:
        return np.zeros(sample.phi.shape[1])
    phi_t = sample.phi.T
    weights = _self_diversity_weights(
        probs, loss.table(sample)[:, sample.truth_label, :]
    )
    return _weighted_feature_pull(probs, phi_t, phi_t @ probs, weights)


def grad_expected_loss(
    theta: np.ndarray, sample: SampleRecord, y: int, k: int, loss: LossFunction
) -> np.ndarray:
    """Gradient in theta of the expected loss of candidate (y, k)."""
    if not (0 <= y < sample.psi.shape[0]):
        raise IndexError(f"label {y} outside [0, {sample.psi.shape[0]})")
    if not (0 <= k < sample.num_latents):
        raise IndexError(f"latent index {k} outside [0, {sample.num_latents})")
    probs = latent_posterior(theta, sample)
    return _grad_expected_from_probs(probs, sample, y, k, loss)


def grad_self_diversity(
    theta: np.ndarray, sample: SampleRecord, loss: LossFunction
) -> np.ndarray:
    """Gradient in theta of the conditional's self diversity."""
    probs = latent_posterior(theta, sample)
    return _grad_self_diversity_from_probs(probs, sample, loss)


def grad_slack(
    w: np.ndarray, theta: np.ndarray, sample: SampleRecord, loss: LossFunction
) -> np.ndarray:
    """Subgradient in theta of the sample slack, via the loss-augmented
    argmax (Danskin; a subgradient at tie points)."""
    probs = latent_posterior(theta, sample)
    table = score_table(w, sample) + expected_loss_table(probs, sample, loss)
    y, k = divmod(int(np.argmax(table)), sample.num_latents)
    return _grad_expected_from_probs(probs, sample, y, k, loss)


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


class _SampleView(NamedTuple):
    """What one SSD step reads of a sample, looked up once per call."""

    phi: np.ndarray
    phi_t: np.ndarray  # phi.T
    scores: np.ndarray  # score_table at the fixed w
    table: np.ndarray  # the loss table T[j, y, k]
    by_label: np.ndarray  # T.transpose(1, 0, 2)
    at_truth: np.ndarray  # T[:, truth_label, :]
    num_latents: int


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
    seed.  Each step makes the IEEE operations of ``latent_posterior``,
    ``expected_loss_table`` and the ``grad_*`` functions in their order,
    on per-sample views built once per call.
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
    if np.shape(w) != (dataset.d_w,):
        raise ConfigError(f"w has shape {np.shape(w)}, expected ({dataset.d_w},)")
    beta = hyper.beta
    if not loss.latent_dependent:
        # both gradients vanish: only the shrinkage moves theta
        zeros = np.zeros(dataset.d_theta)
        for t in range(1, steps + 1):
            g = lam * theta + zeros - beta * zeros
            theta = theta - g / (lam * t)
        return theta
    views = []
    for s in dataset:
        T = loss.table(s)
        views.append(
            _SampleView(
                s.phi,
                s.phi.T,
                score_table(w, s),
                T,
                T.transpose(1, 0, 2),
                T[:, s.truth_label, :],
                s.num_latents,
            )
        )
    rng = np.random.default_rng(config.seed)
    for t, i in enumerate(_step_indices(rng, n, steps), 1):
        phi, phi_t, scores, T, by_label, at_truth, K = views[i]
        probs = _posterior(phi, theta)
        table = scores + _expected_loss_by_label(probs, by_label)
        y, k = divmod(int(table.argmax()), K)
        mean_feature = phi_t @ probs
        g_slack = _weighted_feature_pull(probs, phi_t, mean_feature, T[:, y, k])
        g_selfdiv = _weighted_feature_pull(
            probs, phi_t, mean_feature, _self_diversity_weights(probs, at_truth)
        )
        g = lam * theta + g_slack - beta * g_selfdiv
        theta = theta - g / (lam * t)
    return theta
