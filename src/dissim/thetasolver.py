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

The steps run in the compiled kernel (``_kernel.c``, loaded by
``dissim._kernel``) where it loaded, else in the Python loop
``_ssd_python``.  The kernel makes the loop's IEEE operations in the
same order and calls the functions numpy calls (its BLAS's
``cblas_dgemv`` and its float64 exp loop), so both return the same
theta bit for bit.  The kernel takes the sets ``_kernel.ssd_samples``
accepts, which every generated or loaded task is; the loop runs others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._kernel import SSD as _SSD, address
from .errors import ConfigError
from .losses import (  # noqa: F401  (expected_loss_table: perfbench wraps this binding)
    HyperParams,
    LossFunction,
    _loss_column,
    _SampleView,
    _SetView,
    expected_loss_table,
    upper_bound,
)
from .model import (
    Dataset,
    SampleRecord,
    _posterior,
    _vector,
    latent_posterior,
    score_table,
)


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


def _step_gradients(
    view: _SampleView,
    scores: Optional[np.ndarray],
    probs: Optional[np.ndarray],
    column: Optional[np.ndarray] = None,
) -> tuple[list[float], list[float]]:
    """The per-sample core: the gradients in theta of ``probs @ column``
    (the expected loss of one candidate; by default the loss-augmented
    argmax of ``scores``, which makes it the slack subgradient by
    Danskin's rule) and of the self diversity, as lists of floats.  Exact
    zeros for a latent-independent loss, which reads no ``probs``.

    Each is the pull  sum_k v_k p_k (phi_k - pbar) = phi.T @ (p * v) -
    sum(p * v) * pbar.  Its last ``u - s * m`` runs on Python floats: the
    IEEE operations numpy makes elementwise, in the same order (CPython
    fuses none into an FMA).  ``probs @ at_truth`` is row ``truth_label``
    of ``probs @ by_label``, the same product on the same view.  Each BLAS
    call gets a freshly allocated vector, never a row of a shared buffer,
    whose alignment can change the kernel's rounding.
    """
    _, phi_t, table, by_label, at_truth, truth, latent_dependent = view
    if not latent_dependent:
        zeros = [0.0] * phi_t.shape[0]
        return zeros, zeros
    expected = probs @ by_label
    if column is None:
        y, k = divmod(int((scores + expected).argmax()), scores.shape[1])
        column = table[:, y, k]
    mean = phi_t.dot(probs).tolist()
    pw = probs * column
    s = float(np.add.reduce(pw))
    g_loss = [u - s * m for u, m in zip(phi_t.dot(pw).tolist(), mean)]
    pw = probs * (at_truth.dot(probs) + expected[truth])
    s = float(np.add.reduce(pw))
    g_self = [u - s * m for u, m in zip(phi_t.dot(pw).tolist(), mean)]
    return g_loss, g_self


def grad_expected_loss(
    theta: np.ndarray, sample: SampleRecord, y: int, k: int, loss: LossFunction
) -> np.ndarray:
    """Gradient in theta of the expected loss of candidate (y, k)."""
    probs = latent_posterior(theta, sample)
    view = loss.view(sample)
    return np.array(_step_gradients(view, None, probs, _loss_column(view, y, k))[0])


def grad_self_diversity(
    theta: np.ndarray, sample: SampleRecord, loss: LossFunction
) -> np.ndarray:
    """Gradient in theta of the conditional's self diversity."""
    probs = latent_posterior(theta, sample)
    view = loss.view(sample)
    # any column: the self-diversity gradient does not read it
    return np.array(_step_gradients(view, None, probs, view.table[:, 0, 0])[1])


def grad_slack(
    w: np.ndarray, theta: np.ndarray, sample: SampleRecord, loss: LossFunction
) -> np.ndarray:
    """Subgradient in theta of the sample slack, via the loss-augmented
    argmax (Danskin; a subgradient at tie points)."""
    probs = latent_posterior(theta, sample)
    view = loss.view(sample)
    return np.array(_step_gradients(view, score_table(w, sample), probs)[0])


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


def _index_blocks(rng: np.random.Generator, n: int, steps: int):
    """``steps`` uniform sample indices in [0, n), as int64 arrays of at
    most ``_INDEX_BLOCK``.

    One draw ``rng.integers(n, size=b)`` yields the same indices as b
    scalar draws ``rng.integers(n)`` (the tests pin this); drawing in
    blocks keeps the memory bounded for any budget.
    """
    for start in range(0, steps, _INDEX_BLOCK):
        yield rng.integers(n, size=min(_INDEX_BLOCK, steps - start))


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
    seed.  The steps run on ``_ssd_loop``, the path selected at import:
    the compiled kernel where it loaded, else the Python loop
    (``_ssd_python``); both return the same theta bit for bit.  Every
    score table at w is sliced from the product that the score stack's
    memo kept at w, the one the w step ended on.
    """
    n = len(dataset)
    steps = (
        config.steps if config.steps is not None else config.steps_per_sample * n
    )
    lam = hyper.J / hyper.C
    if not lam > 0:
        raise ConfigError(f"shrinkage weight must be positive, got {lam}")
    theta = _vector("theta", theta_init, dataset.d_theta)
    stack = loss.stack(dataset)
    scores = stack.scoring.scores(w)
    blocks = _index_blocks(np.random.default_rng(config.seed), n, steps)
    return _ssd_loop(stack, scores, theta, lam, hyper.beta, blocks)


def _ssd_python(
    stack: _SetView, scores: np.ndarray, theta: np.ndarray, lam: float,
    beta: float, blocks,
) -> np.ndarray:
    """The steps of ``ssd_theta`` on the index blocks, in Python.

    Each step calls ``_step_gradients``, the core that the public
    gradients call too, on the loss's cached per-sample view.  A
    latent-independent loss's gradients are exact zeros, so its steps
    compute no posterior.
    """
    views = [
        (view, scores[i, :, : len(view.phi)]) for i, view in enumerate(stack.views)
    ]
    current = theta.tolist()
    indices = (i for block in blocks for i in block.tolist())
    for t, i in enumerate(indices, 1):
        view, scores = views[i]
        probs = _posterior(view.phi, theta) if view.latent_dependent else None
        g_slack, g_selfdiv = _step_gradients(view, scores, probs)
        # theta - (lam * theta + g_slack - beta * g_selfdiv) / (lam * t),
        # entry by entry, as numpy computes it elementwise
        rate = lam * t
        current = [
            th - (lam * th + gs - beta * gd) / rate
            for th, gs, gd in zip(current, g_slack, g_selfdiv)
        ]
        theta = np.array(current)
    return theta


def _ssd_kernel(
    stack: _SetView, scores: np.ndarray, theta: np.ndarray, lam: float,
    beta: float, blocks,
) -> np.ndarray:
    """``_ssd_python`` in the compiled kernel (``_kernel.c``), which makes
    the same IEEE operations in the same order through the functions
    numpy calls: its BLAS's ``cblas_dgemv`` and its float64 exp loop.  A
    set that ``_kernel.ssd_samples`` does not take runs ``_ssd_python``."""
    samples = stack.step_samples
    if samples is None:
        return _ssd_python(stack, scores, theta, lam, beta, blocks)
    d = theta.size
    theta = np.array(theta)
    scores_at = address(scores, stack.scoring.shape, False, "SSD")
    theta_at = address(theta, (d,), True, "SSD")
    _, labels, Kmax = stack.scoring.shape
    t = 1
    for block in blocks:
        count = block.size
        if _SSD(samples, address(block, (count,), False, "SSD", np.int64),
                count, t, scores_at, labels, Kmax, d, lam, beta, theta_at):
            raise MemoryError("the SSD kernel could not allocate its buffers")
        t += count
    return theta


# one SSD path per platform: the kernel where it loaded, else the loop
_ssd_loop = _ssd_python if _SSD is None else _ssd_kernel
