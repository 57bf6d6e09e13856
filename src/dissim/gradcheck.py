"""Finite-difference verification of the analytic theta gradients.

Central differences with step h have truncation error O(h^2); with
h = STEP = 1e-5 the checked gradients agree to well below the relative
TOLERANCE of 1e-6 whenever the quantity is smooth at the draw.  The
slack term is only piecewise smooth, so draws whose loss-augmented argmax
is within a 1e-3 margin of the runner-up are skipped and redrawn.

Relative error uses a norm floor so near-zero gradients are compared
absolutely:  |analytic - numeric| / max(|numeric|, 1e-3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, InputError
from .losses import (
    LossFunction,
    _augmented,
    expected_loss,
    self_diversity,
    slack,
)
from .model import Dataset, latent_posterior, score_table
from .thetasolver import grad_expected_loss, grad_self_diversity, grad_slack

STEP = 1e-5
TOLERANCE = 1e-6
TIE_MARGIN = 1e-3
NORM_FLOOR = 1e-3

TERMS = ("expected_loss", "self_diversity", "slack")


@dataclass(frozen=True)
class GradCheckResult:
    draws: int
    tolerance: float
    worst: dict[str, float]
    skipped_ties: int = 0

    @property
    def passed(self) -> bool:
        return all(v <= self.tolerance for v in self.worst.values())


def central_difference(
    f: Callable[[np.ndarray], float], theta: np.ndarray, step: float
) -> np.ndarray:
    grad = np.empty_like(theta)
    for j in range(theta.size):
        bump = np.zeros_like(theta)
        bump[j] = step
        grad[j] = (f(theta + bump) - f(theta - bump)) / (2.0 * step)
    return grad


def _relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(numeric)), NORM_FLOOR)
    return float(np.linalg.norm(analytic - numeric)) / scale


def run_gradient_checks(
    dataset: Dataset,
    loss: LossFunction,
    seed: int = 0,
    draws: int = 50,
    corrupt: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> GradCheckResult:
    """Check all three analytic gradients on random draws.

    ``corrupt`` is a testing hook applied to every analytic gradient
    before comparison; pass a perturbation to verify the check fails.
    """
    if draws < 1:
        raise ConfigError(f"draws must be >= 1, got {draws}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    samples = list(dataset)
    worst = {term: 0.0 for term in TERMS}
    skipped_ties = 0
    checked = 0
    attempts = 0
    max_attempts = 50 * draws
    while checked < draws:
        attempts += 1
        if attempts > max_attempts:
            raise InputError(
                "could not find enough draws clear of slack tie points; "
                f"checked {checked} of {draws}"
            )
        sample = samples[int(rng.integers(len(samples)))]
        d_theta = sample.phi.shape[1]
        theta = 0.5 * rng.standard_normal(d_theta)
        w = 0.5 * rng.standard_normal(sample.psi.shape[2])
        y = int(rng.integers(sample.psi.shape[0]))
        k = int(rng.integers(sample.num_latents))

        # Slack is piecewise smooth; require a clear argmax margin.
        probs = latent_posterior(theta, sample)
        table = _augmented(loss.view(sample), score_table(w, sample), probs)
        flat = np.sort(table.ravel())
        if flat.size > 1 and flat[-1] - flat[-2] <= TIE_MARGIN:
            skipped_ties += 1
            continue

        analytic = {
            "expected_loss": grad_expected_loss(theta, sample, y, k, loss),
            "self_diversity": grad_self_diversity(theta, sample, loss),
            "slack": grad_slack(w, theta, sample, loss),
        }
        if corrupt is not None:
            analytic = {name: corrupt(g) for name, g in analytic.items()}

        numeric = {
            "expected_loss": central_difference(
                lambda th: expected_loss(th, sample, y, k, loss), theta, STEP
            ),
            "self_diversity": central_difference(
                lambda th: self_diversity(th, sample, loss), theta, STEP
            ),
            "slack": central_difference(
                lambda th: slack(w, th, sample, loss), theta, STEP
            ),
        }
        for term in TERMS:
            worst[term] = max(
                worst[term], _relative_error(analytic[term], numeric[term])
            )
        checked += 1
    return GradCheckResult(draws, TOLERANCE, worst, skipped_ties)
