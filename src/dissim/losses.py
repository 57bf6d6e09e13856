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

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._kernel import ssd_samples
from .errors import ConfigError, InputError
from .model import (
    Dataset,
    FiniteDistribution,
    SampleRecord,
    _vector,
    latent_posterior,
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
        for name in ("C", "J", "epsilon"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        _check_beta(self.beta)


def _check_beta(beta: float) -> None:
    """ConfigError unless beta lies in the open interval (0, 1)."""
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"beta must lie in (0, 1), got {beta}")


def iou_matrix(boxes: np.ndarray) -> np.ndarray:
    """Pairwise intersection-over-union for an (K, 4) integer box array.

    Exact up to the final division for boxes within ``BOX_COORD_LIMIT``
    (``SampleRecord`` enforces it): every area and union is below 2**53.
    """
    x0, y0, x1, y1 = boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3]
    iw = np.minimum(x1[:, None], x1[None, :]) - np.maximum(x0[:, None], x0[None, :])
    ih = np.minimum(y1[:, None], y1[None, :]) - np.maximum(y0[:, None], y0[None, :])
    inter = np.clip(iw, 0, None) * np.clip(ih, 0, None)
    area = (x1 - x0) * (y1 - y0)
    union = area[:, None] + area[None, :] - inter
    return inter / union


class _SampleView(NamedTuple):
    """What the loss terms read of one sample under one loss, built once
    by ``LossFunction.view``.  The public per-sample terms below read it
    directly; ``_expected_losses`` and ``_augmented`` are the tables that
    ``slack`` and the gradient checks share.  ``thetasolver._step_gradients``
    reads the view's fields itself and forms the same expected-loss table,
    ``probs @ by_label``."""

    phi: np.ndarray
    phi_t: np.ndarray  # phi.T
    table: np.ndarray  # the loss table T[j, y, k]
    by_label: np.ndarray  # T.transpose(1, 0, 2)
    at_truth: np.ndarray  # T[:, truth_label, :]
    truth_label: int
    latent_dependent: bool


class _Group(NamedTuple):
    """The samples of one latent-space size K, stacked."""

    rows: object  # their positions in the set: a slice or an index array
    phi: np.ndarray  # (n_g, K, d_theta)
    by_label: np.ndarray  # (n_g, labels, K, K): each sample's view.by_label
    at_truth: np.ndarray  # (n_g, K, K): each sample's view.at_truth


class _SetView:
    """What the training loop reads of a whole set under one loss, built
    once by ``LossFunction.stack``: the set's score stack
    (``model._ScoreStack``, shared by every loss), the per-sample views,
    and their phi, ``by_label`` and ``at_truth`` stacked per latent-space
    size K (``blocks``, in the order of ``scoring.groups``).  The groups
    stay inside: each term but ``posteriors``, whose per-group result
    only feeds the others, returns one array in dataset order, padded as
    ``scoring.ungroup`` pads it.  ``solves`` is the baselines' store of
    solved convex subproblems on this set: keyed by (C, inner_tol), then
    by (anchors, refs) (see ``wsolver._cccp_loop``), it lives as long as
    the view does.  ``step_samples`` is what the compiled SSD steps read
    of the views, built on first use.  ``posteriors`` and
    ``expected_losses`` keep their last results while the view lives, so
    one round's objective and the next w step compute each once, and, in
    slots of their own, the results at the origin (the all-``+0.0``
    theta), where every fit starts, so a set pays for them once per loss.

    Each batched term makes the per-sample core's IEEE operations on each
    row: the products are the same BLAS kernels per row (``probs @
    by_label`` as ``probs[:, None, None, :] @ by_label``), the row sums
    are numpy's pairwise sum of one contiguous row, and each posterior's
    log is one ``math.log`` per row, as ``model._log_sum_exp`` takes it.
    So every term equals its per-sample form bit for bit.
    """

    def __init__(self, dataset: Dataset, loss: "LossFunction"):
        self.scoring = scoring = dataset._score_stack
        self.views = views = [loss.view(s) for s in dataset.samples]
        self.latent_dependent = loss.latent_dependent
        self.d_theta = dataset.d_theta
        self.solves: dict = {}
        self._posteriors = self._tables = (None, None)
        self._origin_key = bytes(8 * self.d_theta)  # the all-+0.0 theta
        self._origin_probs = self._origin_tables = None  # built on first use
        self.blocks = []
        for _, rows in scoring.groups:
            idx = np.arange(len(views))[rows].tolist()
            by_label = np.stack([views[i].by_label for i in idx])
            at_truth = by_label[np.arange(len(idx)), scoring.truth_labels[rows]]
            phi = np.stack([views[i].phi for i in idx])
            self.blocks.append(_Group(rows, phi, by_label, at_truth))

    @cached_property
    def step_samples(self):
        """``_kernel.ssd_samples`` of the views, or None where the
        compiled SSD steps do not take this set."""
        return ssd_samples(self.views)

    def posteriors(self, theta: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per group, every sample's latent conditional, (n_g, K), as a
        tuple of read-only arrays; the last is kept, keyed on theta's bytes,
        and the origin's in a slot that no other theta evicts."""
        theta = _vector("theta", theta, self.d_theta)
        key = theta.tobytes()
        if key == self._origin_key:
            if self._origin_probs is None:
                self._origin_probs = self._posteriors_at(theta)
            return self._origin_probs
        cached, probs = self._posteriors
        if key != cached:
            probs = self._posteriors_at(theta)
            self._posteriors = (key, probs)
        return probs

    def _posteriors_at(self, theta: np.ndarray) -> tuple[np.ndarray, ...]:
        out = []
        for g in self.blocks:
            n_g, K, d = g.phi.shape
            activations = (g.phi.reshape(n_g * K, d) @ theta).reshape(n_g, K)
            shift = np.maximum.reduce(activations, axis=1)
            sums = np.add.reduce(np.exp(activations - shift[:, None]), axis=1)
            log_z = shift + np.array([math.log(x) for x in sums.tolist()])
            out.append(np.exp(activations - log_z[:, None]))
            out[-1].setflags(write=False)
        return tuple(out)

    def expected_losses(self, probs: tuple[np.ndarray, ...]) -> np.ndarray:
        """Every sample's expected-loss table, one read-only (n, labels, K)
        array in dataset order, -inf at the padded candidates; the constant
        itself, exactly, for a latent-independent loss.  The tables of the
        last ``posteriors`` result and of the origin's are kept, keyed on
        that tuple itself."""
        if probs is self._origin_probs:
            if self._origin_tables is None:
                self._origin_tables = self._tables_of(probs)
            return self._origin_tables
        cached, tables = self._tables
        if probs is not cached:
            tables = self._tables_of(probs)
            if probs is self._posteriors[1]:
                self._tables = (probs, tables)
        return tables

    def _tables_of(self, probs: tuple[np.ndarray, ...]) -> np.ndarray:
        tables = self.scoring.ungroup([
            (p[:, None, None, :] @ g.by_label)[:, :, 0, :]
            if self.latent_dependent else g.by_label[:, :, 0, :]
            for p, g in zip(probs, self.blocks)
        ])
        tables.setflags(write=False)
        return tables

    def self_diversities(self, probs: tuple[np.ndarray, ...]) -> np.ndarray:
        """Every sample's self diversity, one (n,) array in dataset order."""
        if not self.latent_dependent:
            return np.zeros(self.scoring.shape[0])
        return self.scoring.ungroup([
            (p[:, None, :] @ g.at_truth @ p[:, :, None])[:, 0, 0]
            for p, g in zip(probs, self.blocks)
        ])

    def pointwise(self, refs) -> np.ndarray:
        """The tables T_i[refs_i] (labels, K), the loss of every candidate
        against one latent per sample, padded as ``expected_losses`` pads
        them."""
        refs = np.asarray(refs)
        return self.scoring.ungroup([
            g.by_label[np.arange(len(g.by_label)), :, refs[g.rows], :]
            for g in self.blocks
        ])

    def closest_latents(self, labels: np.ndarray, latents: np.ndarray) -> list[int]:
        """Per sample, in dataset order, the latent j minimizing
        T_i[j, labels_i, latents_i], the loss against candidate
        (labels_i, latents_i); ties break to the smallest j."""
        return self.scoring.ungroup([
            np.argmin(g.by_label[np.arange(len(g.by_label)), labels[g.rows], :,
                                 latents[g.rows]], axis=1)
            for g in self.blocks
        ]).tolist()


class LossFunction:
    """Pairwise loss over (label, latent) pairs, valued in [0, 1].

    A subclass defines its loss once, as ``pair_matrix``: the values for
    every latent pair at fixed labels.  Everything else reads it through
    ``view(sample)``, the one cached per-sample view, whose ``table`` is
    the tensor T[j, y, k] = loss(truth, j, y, k) of shape (K, labels, K)
    (also returned by ``table(sample)``).  Expected losses, self
    diversities, their gradients and the pointwise baseline tables are
    all contractions of T against the latent conditional or a point mass.
    ``stack(dataset)`` is the set-level twin of ``view``: the views of a
    training set stacked, from which the training loop batches those
    terms over all samples at once.

    ``latent_dependent`` is False when the loss ignores latent indices
    entirely; the per-sample core (``_SampleView``) then shortcuts
    expectations (the expectation of a constant is the constant, exactly)
    and returns exact zero gradients.

    ``kind`` names the loss in model and results files, as one
    whitespace-free token; ``make_loss`` builds the kinds in
    ``LOSS_KINDS`` from it.
    """

    kind: str = "custom"
    latent_dependent: bool = True

    def __init__(self):
        self._views = weakref.WeakKeyDictionary()
        self._stacks = weakref.WeakKeyDictionary()

    def pair_matrix(self, sample: SampleRecord, y1: int, y2: int) -> np.ndarray:
        """Loss values for all latent pairs at fixed labels, shape (K, K):
        entry (k1, k2) is loss(y1, k1, y2, k2)."""
        raise NotImplementedError

    def view(self, sample: SampleRecord) -> _SampleView:
        """The per-sample view every loss term reads: the loss table, its
        slices and the sample's phi.

        Built once per sample from ``pair_matrix`` and kept for as long as
        the sample lives.
        """
        view = self._views.get(sample)
        if view is None:
            truth, num_labels = sample.truth_label, sample.psi.shape[0]
            T = np.stack(
                [self.pair_matrix(sample, truth, y) for y in range(num_labels)],
                axis=1,
            )
            T.flags.writeable = False
            by_label, at_truth = T.transpose(1, 0, 2), T[:, truth, :]
            view = _SampleView(sample.phi, sample.phi.T, T, by_label, at_truth,
                               truth, self.latent_dependent)
            self._views[sample] = view
        return view

    def stack(self, dataset: Dataset) -> _SetView:
        """The set-level twin of ``view``: the dataset's samples stacked
        for batched scoring, imputation and loss terms.

        Built once per dataset and kept for as long as the dataset lives.
        """
        stack = self._stacks.get(dataset)
        if stack is None:
            stack = self._stacks[dataset] = _SetView(dataset, self)
        return stack

    def table(self, sample: SampleRecord) -> np.ndarray:
        """Read-only T[j, y, k] = loss(truth, j, y, k), shape (K, labels, K),
        the table of ``view(sample)``."""
        return self.view(sample).table


class ZeroOneLoss(LossFunction):
    """Zero exactly when both label and latent index match."""

    kind = "zero_one"
    latent_dependent = True

    def pair_matrix(self, sample, y1, y2):
        K = sample.num_latents
        if y1 != y2:
            return np.ones((K, K))
        return np.ones((K, K)) - np.eye(K)


class LabelOnlyZeroOneLoss(LossFunction):
    """Zero-one loss on labels alone; latent values are ignored.

    Provided to exercise the latent-independent reduction: with this loss
    the theta-side self term vanishes identically and learning w reduces
    to a latent-space SVM.  Constructed directly; ``make_loss`` offers
    only ``LOSS_KINDS``.
    """

    kind = "label_zero_one"
    latent_dependent = False

    def pair_matrix(self, sample, y1, y2):
        K = sample.num_latents
        return np.full((K, K), 0.0 if y1 == y2 else 1.0)


class OverlapLoss(LossFunction):
    """One minus box overlap when labels agree, one otherwise.

    Requires geometric samples (every latent value carries a box).
    """

    kind = "overlap"
    latent_dependent = True

    def pair_matrix(self, sample, y1, y2):
        K = sample.num_latents
        if y1 != y2:
            return np.ones((K, K))
        if not sample.geometric:
            raise ConfigError(
                f"overlap loss needs boxes; sample {sample.id} has none"
            )
        return 1.0 - iou_matrix(sample.boxes)


_LOSSES = {cls.kind: cls for cls in (ZeroOneLoss, OverlapLoss)}
LOSS_KINDS = tuple(_LOSSES)


def make_loss(kind: str) -> LossFunction:
    """Loss factory for the command line and the protocol harness."""
    if kind not in _LOSSES:
        raise ConfigError(f"unknown loss kind {kind!r}")
    return _LOSSES[kind]()


def _loss_column(view: _SampleView, y: int, k: int) -> np.ndarray:
    """T[:, y, k], the loss of candidate (y, k) against each truth latent."""
    K, num_labels = view.table.shape[:2]
    if not (0 <= y < num_labels):
        raise IndexError(f"label {y} outside [0, {num_labels})")
    if not (0 <= k < K):
        raise IndexError(f"latent index {k} outside [0, {K})")
    return view.table[:, y, k]


def _expected_losses(view: _SampleView, probs: np.ndarray) -> np.ndarray:
    """The expected-loss table, shape (num_labels, K); the constant itself,
    exactly, for a latent-independent loss."""
    if not view.latent_dependent:
        return view.table[0].copy()
    # Batched over labels, each label's entries round exactly as a product
    # against that label's (K, K) slice alone.  One flat (K, labels * K)
    # product would not: BLAS treats trailing rows apart, so entries move
    # by an ulp whenever K is not a multiple of the kernel width.
    return probs @ view.by_label


def _augmented(view: _SampleView, scores: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """The loss-augmented table: score plus expected loss per candidate."""
    return scores + _expected_losses(view, probs)


def expected_loss_table(
    probs: np.ndarray, sample: SampleRecord, loss: LossFunction
) -> np.ndarray:
    """Expected loss of every candidate under a latent distribution.

    Entry (y, k) is  sum_j probs[j] * loss(truth_label, j, y, k);
    shape (num_labels, K).  For latent-independent losses the expectation
    is the constant itself, returned exactly.
    """
    return _expected_losses(loss.view(sample), probs)


def expected_loss(
    theta: np.ndarray, sample: SampleRecord, y: int, k: int, loss: LossFunction
) -> float:
    """Loss of candidate (y, k) averaged over the latent conditional."""
    probs = latent_posterior(theta, sample)
    view = loss.view(sample)
    # a column dot product, which rounds apart from the batched table
    column = _loss_column(view, y, k)
    if not view.latent_dependent:
        return float(column[0])
    return float(probs @ column)


def self_diversity(
    theta: np.ndarray, sample: SampleRecord, loss: LossFunction
) -> float:
    """Diversity of the latent conditional against itself at the truth label.

    Zero for latent-independent losses and for point-mass conditionals.
    """
    probs = latent_posterior(theta, sample)
    view = loss.view(sample)
    if not view.latent_dependent:
        return 0.0
    return float(probs @ view.at_truth @ probs)


def _as_loss_matrix(pairwise_loss, size: int) -> np.ndarray:
    matrix = np.asarray(pairwise_loss, dtype=np.float64)
    if matrix.shape != (size, size):
        raise InputError(
            f"pairwise loss matrix has shape {matrix.shape}, expected ({size}, {size})"
        )
    return matrix


def diversity(
    p: FiniteDistribution, q: FiniteDistribution, pairwise_loss
) -> float:
    """H(P, Q) under a pairwise loss given as a square matrix."""
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
    _check_beta(beta)
    matrix = _as_loss_matrix(pairwise_loss, len(p))
    return (
        diversity(p, q, matrix)
        - beta * diversity(p, p, matrix)
        - (1.0 - beta) * diversity(q, q, matrix)
    )


def slack(
    w: np.ndarray, theta: np.ndarray, sample: SampleRecord, loss: LossFunction
) -> float:
    """Margin-style slack upper-bounding the expected loss at the prediction:

        max_{y,k} [score + expected_loss] - max_k score(truth_label, k).
    """
    scores = score_table(w, sample)
    probs = latent_posterior(theta, sample)
    augmented = _augmented(loss.view(sample), scores, probs)
    return float(augmented.max() - scores[sample.truth_label].max())


def upper_bound(
    w: np.ndarray,
    theta: np.ndarray,
    dataset: Dataset,
    loss: LossFunction,
    beta: float,
) -> float:
    """Convex-in-w surrogate of the dissimilarity objective:
    mean slack minus beta times mean self diversity.  Each slack is
    ``model._ScoreStack.slacks``, the one the w-step's objective reads."""
    _check_beta(beta)
    stack = loss.stack(dataset)
    probs = stack.posteriors(theta)
    scores = stack.scoring.scores(w)
    terms = stack.scoring.slacks(scores, stack.expected_losses(probs))
    total = 0.0
    # a sequential sum, in dataset order
    for term in (terms - beta * stack.self_diversities(probs)).tolist():
        total += term
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
