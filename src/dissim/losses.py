"""Loss functions over (label, latent) pairs and the training objectives.

The central quantity is a diversity between two distributions P, Q over a
shared finite space under a pairwise loss:

    H(P, Q) = sum_{a,b} loss(a, b) P(a) Q(b)

and the dissimilarity coefficient derived from it (a Jensen difference):

    D(P, Q) = H(P, Q) - beta H(P, P) - (1 - beta) H(Q, Q),   beta in (0, 1).

Training compares the delta distribution placed by prediction under w
against the log-linear latent conditional under theta.  Because one side
is a delta, its self term vanishes and the per-sample objective reduces to

    expected_loss(theta, s, predict(w, s))  -  beta * self_diversity(theta, s)

averaged over the dataset.  A convex-in-w upper bound replaces the first
term with a margin-style slack; the bound, its regularized version, and
all the pieces live here.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError
from .model import (
    Dataset,
    FiniteDistribution,
    SampleRecord,
    latent_posterior,
    predict,
    score_table,
)


@dataclass(frozen=True)
class HyperParams:
    """Weights of the regularized training problem.

    C trades regularization against the loss bound, J scales the theta
    regularizer, beta weights the prediction-side self term, epsilon is
    the solver termination tolerance (solvers stop once an outer step
    decreases the objective by less than C * epsilon).
    """

    C: float = 1.0
    J: float = 0.1
    beta: float = 0.1
    epsilon: float = 1e-3

    def __post_init__(self):
        if not self.C > 0:
            raise ConfigError(f"C must be positive, got {self.C}")
        if not self.J > 0:
            raise ConfigError(f"J must be positive, got {self.J}")
        if not 0.0 < self.beta < 1.0:
            raise ConfigError(f"beta must lie in (0, 1), got {self.beta}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")


def overlap_ratio(box_a, box_b) -> float:
    """Intersection over union of two half-open integer pixel boxes."""
    ax0, ay0, ax1, ay1 = box_a
    bx0, by0, bx1, by1 = box_b
    if ax0 >= ax1 or ay0 >= ay1 or bx0 >= bx1 or by0 >= by1:
        raise InputError("overlap_ratio requires boxes with positive area")
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    inter = max(iw, 0) * max(ih, 0)
    area_a = (ax1 - ax0) * (ay1 - ay0)
    area_b = (bx1 - bx0) * (by1 - by0)
    return inter / (area_a + area_b - inter)


def iou_matrix(boxes: np.ndarray) -> np.ndarray:
    """Pairwise intersection-over-union for an (K, 4) integer box array."""
    x0, y0, x1, y1 = boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3]
    iw = np.minimum(x1[:, None], x1[None, :]) - np.maximum(x0[:, None], x0[None, :])
    ih = np.minimum(y1[:, None], y1[None, :]) - np.maximum(y0[:, None], y0[None, :])
    inter = np.clip(iw, 0, None) * np.clip(ih, 0, None)
    area = (x1 - x0) * (y1 - y0)
    union = area[:, None] + area[None, :] - inter
    return inter / union


class LossFunction:
    """Pairwise loss over (label, latent) pairs, valued in [0, 1].

    A subclass defines its loss twice over: ``__call__`` for one pair of
    candidates and ``pair_matrix`` for every latent pair at fixed labels.
    Training code consumes it only through ``table(sample)``, the
    per-sample tensor T[j, y, k] = loss(truth, j, y, k) of shape
    (K, labels, K).  Expected losses, self diversities, their gradients
    and the pointwise baseline tables are all contractions of T against
    the latent conditional or a point mass.

    ``latent_dependent`` is False when the loss ignores latent indices
    entirely; several evaluators exploit that to shortcut expectations
    (the expectation of a constant is the constant, exactly).
    """

    kind: str = ""
    latent_dependent: bool = True

    def __init__(self):
        self._tables = weakref.WeakKeyDictionary()

    def __call__(
        self, y1: int, k1: int, y2: int, k2: int, sample: SampleRecord
    ) -> float:
        raise NotImplementedError

    def pair_matrix(self, sample: SampleRecord, y1: int, y2: int) -> np.ndarray:
        """Loss values for all latent pairs at fixed labels, shape (K, K)."""
        K = sample.num_latents
        return np.array(
            [[self(y1, k1, y2, k2, sample) for k2 in range(K)] for k1 in range(K)]
        )

    def table(self, sample: SampleRecord) -> np.ndarray:
        """Read-only T[j, y, k] = loss(truth, j, y, k), shape (K, labels, K).

        Built once per sample from ``pair_matrix`` and kept for as long as
        the sample lives.
        """
        T = self._tables.get(sample)
        if T is None:
            truth, num_labels = sample.truth_label, sample.psi.shape[0]
            T = np.stack(
                [self.pair_matrix(sample, truth, y) for y in range(num_labels)],
                axis=1,
            )
            T.flags.writeable = False
            self._tables[sample] = T
        return T


class ZeroOneLoss(LossFunction):
    """Zero exactly when both label and latent index match."""

    kind = "zero_one"
    latent_dependent = True

    def __call__(self, y1, k1, y2, k2, sample):
        return 0.0 if (y1 == y2 and k1 == k2) else 1.0

    def pair_matrix(self, sample, y1, y2):
        K = sample.num_latents
        if y1 != y2:
            return np.ones((K, K))
        return np.ones((K, K)) - np.eye(K)


class LabelOnlyZeroOneLoss(LossFunction):
    """Zero-one loss on labels alone; latent values are ignored.

    Provided to exercise the latent-independent reduction: with this loss
    the theta-side self term vanishes identically and learning w reduces
    to a latent-space SVM.
    """

    kind = "zero_one_label_only"
    latent_dependent = False

    def __call__(self, y1, k1, y2, k2, sample):
        return 0.0 if y1 == y2 else 1.0

    def pair_matrix(self, sample, y1, y2):
        K = sample.num_latents
        return np.full((K, K), 0.0 if y1 == y2 else 1.0)


def _require_boxes(sample: SampleRecord) -> None:
    if not sample.geometric:
        raise ConfigError(f"overlap loss needs boxes; sample {sample.id} has none")


class OverlapLoss(LossFunction):
    """One minus box overlap when labels agree, one otherwise.

    Requires geometric samples (every latent value carries a box).
    """

    kind = "overlap"
    latent_dependent = True

    def __call__(self, y1, k1, y2, k2, sample):
        if y1 != y2:
            return 1.0
        _require_boxes(sample)
        boxes = sample.latent_space
        return 1.0 - overlap_ratio(boxes[k1].box, boxes[k2].box)

    def pair_matrix(self, sample, y1, y2):
        K = sample.num_latents
        if y1 != y2:
            return np.ones((K, K))
        _require_boxes(sample)
        return 1.0 - iou_matrix(sample.boxes)


LOSS_KINDS = ("zero_one", "overlap")


def make_loss(kind: str) -> LossFunction:
    """Loss factory for the command line and the protocol harness."""
    if kind == "zero_one":
        return ZeroOneLoss()
    if kind == "overlap":
        return OverlapLoss()
    if kind == "zero_one_label_only":
        return LabelOnlyZeroOneLoss()
    raise ConfigError(f"unknown loss kind {kind!r}")


def expected_loss_table(
    probs: np.ndarray, sample: SampleRecord, loss: LossFunction
) -> np.ndarray:
    """Expected loss of every candidate under a latent distribution.

    Entry (y, k) is  sum_j probs[j] * loss(truth_label, j, y, k);
    shape (num_labels, K).  For latent-independent losses the expectation
    is the constant itself, returned exactly.
    """
    T = loss.table(sample)
    if not loss.latent_dependent:
        return T[0].copy()
    # Batched over labels, each label's entries round exactly as a product
    # against that label's (K, K) slice alone.  One flat (K, labels * K)
    # product would not: BLAS treats trailing rows apart, so entries move
    # by an ulp whenever K is not a multiple of the kernel width.
    return probs @ T.transpose(1, 0, 2)


def expected_loss(
    theta: np.ndarray, sample: SampleRecord, y: int, k: int, loss: LossFunction
) -> float:
    """Loss of candidate (y, k) averaged over the latent conditional."""
    if not (0 <= y < sample.psi.shape[0]):
        raise IndexError(f"label {y} outside [0, {sample.psi.shape[0]})")
    if not (0 <= k < sample.num_latents):
        raise IndexError(f"latent index {k} outside [0, {sample.num_latents})")
    column = loss.table(sample)[:, y, k]
    if not loss.latent_dependent:
        return float(column[0])
    return float(latent_posterior(theta, sample) @ column)


def _self_diversity_from_probs(
    probs: np.ndarray, sample: SampleRecord, loss: LossFunction
) -> float:
    if not loss.latent_dependent:
        return 0.0
    M = loss.table(sample)[:, sample.truth_label, :]
    return float(probs @ M @ probs)


def self_diversity(
    theta: np.ndarray, sample: SampleRecord, loss: LossFunction
) -> float:
    """Diversity of the latent conditional against itself at the truth label.

    Zero for latent-independent losses and for point-mass conditionals.
    """
    if not loss.latent_dependent:
        return 0.0
    probs = latent_posterior(theta, sample)
    return _self_diversity_from_probs(probs, sample, loss)


def _as_loss_matrix(pairwise_loss, size: int) -> np.ndarray:
    if callable(pairwise_loss):
        return np.array(
            [[pairwise_loss(a, b) for b in range(size)] for a in range(size)]
        )
    matrix = np.asarray(pairwise_loss, dtype=np.float64)
    if matrix.shape != (size, size):
        raise InputError(
            f"pairwise loss matrix has shape {matrix.shape}, expected ({size}, {size})"
        )
    return matrix


def diversity(
    p: FiniteDistribution, q: FiniteDistribution, pairwise_loss
) -> float:
    """H(P, Q) under a pairwise loss given as a callable (a, b) -> real
    or an explicit square matrix."""
    if len(p) != len(q):
        raise InputError(
            f"distributions live on different spaces ({len(p)} vs {len(q)})"
        )
    matrix = _as_loss_matrix(pairwise_loss, len(p))
    return float(p.probs @ matrix @ q.probs)


def dissimilarity(
    p: FiniteDistribution,
    q: FiniteDistribution,
    pairwise_loss,
    beta: float,
) -> float:
    """Jensen-difference dissimilarity coefficient between P and Q."""
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"beta must lie in (0, 1), got {beta}")
    if len(p) != len(q):
        raise InputError(
            f"distributions live on different spaces ({len(p)} vs {len(q)})"
        )
    matrix = _as_loss_matrix(pairwise_loss, len(p))
    cross = float(p.probs @ matrix @ q.probs)
    self_p = float(p.probs @ matrix @ p.probs)
    self_q = float(q.probs @ matrix @ q.probs)
    return cross - beta * self_p - (1.0 - beta) * self_q


def dissimilarity_objective(
    w: np.ndarray,
    theta: np.ndarray,
    dataset: Dataset,
    loss: LossFunction,
    beta: float,
) -> float:
    """Mean per-sample dissimilarity between the prediction delta and the
    latent conditional.

    The delta's self term is identically zero, so each sample contributes
    expected_loss at the predicted candidate minus beta times the
    conditional's self diversity.
    """
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"beta must lie in (0, 1), got {beta}")
    total = 0.0
    for sample in dataset:
        y, k = predict(w, sample)
        probs = latent_posterior(theta, sample)
        table = expected_loss_table(probs, sample, loss)
        total += table[y, k] - beta * _self_diversity_from_probs(probs, sample, loss)
    return total / len(dataset)


def slack(
    w: np.ndarray, theta: np.ndarray, sample: SampleRecord, loss: LossFunction
) -> float:
    """Margin-style slack upper-bounding the expected loss at the prediction:

        max_{y,k} [score + expected_loss] - max_k score(truth_label, k).
    """
    table = score_table(w, sample)
    probs = latent_posterior(theta, sample)
    augmented = table + expected_loss_table(probs, sample, loss)
    return float(augmented.max() - table[sample.truth_label].max())


def upper_bound(
    w: np.ndarray,
    theta: np.ndarray,
    dataset: Dataset,
    loss: LossFunction,
    beta: float,
) -> float:
    """Convex-in-w surrogate of the dissimilarity objective:
    mean slack minus beta times mean self diversity."""
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"beta must lie in (0, 1), got {beta}")
    total = 0.0
    for sample in dataset:
        probs = latent_posterior(theta, sample)
        table = score_table(w, sample)
        augmented = table + expected_loss_table(probs, sample, loss)
        xi = float(augmented.max() - table[sample.truth_label].max())
        total += xi - beta * _self_diversity_from_probs(probs, sample, loss)
    return total / len(dataset)


def regularized_objective(
    w: np.ndarray,
    theta: np.ndarray,
    dataset: Dataset,
    loss: LossFunction,
    hyper: HyperParams,
) -> float:
    """Full training objective:
    ||w||^2 / 2 + J ||theta||^2 / 2 + C * upper_bound."""
    w = np.asarray(w, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    reg = 0.5 * float(w @ w) + 0.5 * hyper.J * float(theta @ theta)
    return reg + hyper.C * upper_bound(w, theta, dataset, loss, hyper.beta)
