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
from .losses import (
    HyperParams,
    LossFunction,
    _self_diversity_from_probs,
    expected_loss_table,
    upper_bound,
)
from .model import Dataset, SampleRecord, latent_posterior, score_table


@dataclass(frozen=True)
class SSDConfig:
    """Budget and seeding of the stochastic subgradient run.

    ``steps`` fixes the budget outright; left unset the budget is
    ``steps_per_sample`` times the training set size (default 50 per
    sample).  ``lam`` is the shrinkage weight; left unset it is J / C
    from the hyperparameters.
    """

    steps: Optional[int] = None
    steps_per_sample: int = 50
    seed: int = 0
    lam: Optional[float] = None

    def __post_init__(self):
        if self.steps is not None and self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.steps_per_sample < 1:
            raise ConfigError(
                f"steps_per_sample must be >= 1, got {self.steps_per_sample}"
            )
        if self.lam is not None and not self.lam > 0:
            raise ConfigError(f"lam must be positive, got {self.lam}")


def _weighted_feature_pull(
    probs: np.ndarray, phi: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """sum_k weights_k probs_k (phi_k - mean feature)."""
    pw = probs * weights
    mean_feature = phi.T @ probs
    return phi.T @ pw - float(pw.sum()) * mean_feature


def _grad_expected_from_probs(
    probs: np.ndarray, sample: SampleRecord, y: int, k: int, loss: LossFunction
) -> np.ndarray:
    if not loss.latent_dependent:
        return np.zeros(sample.phi.shape[1])
    column = loss.table(sample)[:, y, k]
    return _weighted_feature_pull(probs, sample.phi, column)


def _grad_self_diversity_from_probs(
    probs: np.ndarray, sample: SampleRecord, loss: LossFunction
) -> np.ndarray:
    if not loss.latent_dependent:
        return np.zeros(sample.phi.shape[1])
    M = loss.table(sample)[:, sample.truth_label, :]
    weights = M @ probs + probs @ M
    return _weighted_feature_pull(probs, sample.phi, weights)


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


def ssd_theta(
    dataset: Dataset,
    w: np.ndarray,
    theta_init: np.ndarray,
    loss: LossFunction,
    hyper: HyperParams,
    config: SSDConfig = SSDConfig(),
) -> tuple[np.ndarray, list[float]]:
    """Stochastic subgradient descent on the theta subproblem.

    Returns the final iterate and the objective trace, recorded at the
    start, after every n steps, and at the end.  Fully deterministic
    given the config seed.
    """
    n = len(dataset)
    samples = list(dataset)
    steps = (
        config.steps if config.steps is not None else config.steps_per_sample * n
    )
    lam = config.lam if config.lam is not None else hyper.J / hyper.C
    if not lam > 0:
        raise ConfigError(f"shrinkage weight must be positive, got {lam}")
    theta = np.array(theta_init, dtype=np.float64)
    if theta.shape != (dataset.d_theta,):
        raise ConfigError(
            f"theta has shape {theta.shape}, expected ({dataset.d_theta},)"
        )
    rng = np.random.default_rng(config.seed)
    score_tables = [score_table(w, s) for s in samples]
    trace = [theta_objective(w, theta, dataset, loss, hyper)]
    for t in range(1, steps + 1):
        i = int(rng.integers(n))
        sample = samples[i]
        probs = latent_posterior(theta, sample)
        table = score_tables[i] + expected_loss_table(probs, sample, loss)
        y, k = divmod(int(np.argmax(table)), sample.num_latents)
        g_slack = _grad_expected_from_probs(probs, sample, y, k, loss)
        g_selfdiv = _grad_self_diversity_from_probs(probs, sample, loss)
        g = lam * theta + g_slack - hyper.beta * g_selfdiv
        theta = theta - g / (lam * t)
        if t % n == 0:
            trace.append(theta_objective(w, theta, dataset, loss, hyper))
    if steps % n != 0:
        trace.append(theta_objective(w, theta, dataset, loss, hyper))
    return theta, trace
