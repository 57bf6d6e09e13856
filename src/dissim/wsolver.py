"""Cutting-plane solver and CCCP outer loop for the prediction parameters.

The convex inner problem is a one-slack structured SVM.  Given per-sample
augmentation tables ``aug_i`` (a (labels, K) array of loss terms) and a
frozen anchor latent index per sample, solve

    min_w  ||w||^2 / 2 + C * xi
    s.t.   xi >= mean_i [ w . psi_i(y', k') + aug_i(y', k')
                          - w . psi_i(truth_i, anchor_i) ]
           jointly over per-sample candidate choices (y', k').

Constraints are generated lazily: each round adds the currently most
violated joint assignment as a cutting plane and re-solves the restricted
quadratic program in the dual by coordinate ascent (plane multipliers
>= 0 summing to at most C, with single-coordinate and pairwise-exchange
moves).  The primal iterate is recovered as the multiplier-weighted sum
of plane directions.

The outer CCCP loop alternates anchor re-imputation with inner solves.
The alternation continues through iterates that fail to improve (with a
latent-dependent loss a single round can overshoot before re-imputation
pays off), while the report only ever records the best objective seen,
so traces are non-increasing by construction and the returned parameters
match the last trace entry.  The loop stops when a round improves the
best value by less than C * epsilon, when a convex subproblem repeats
(fixed point or cycle), or with an error once the round budget is spent.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import SolverError
from .losses import LossFunction, expected_loss_table
from .model import Dataset, SampleRecord, latent_posterior, score_table

DEFAULT_PLANE_BUDGET = 500
DEFAULT_CCCP_BUDGET = 1000


@dataclass(frozen=True)
class CuttingPlane:
    """One generated constraint: xi >= offset - w . direction."""

    direction: np.ndarray
    offset: float


@dataclass
class WSolverReport:
    """Outcome of a CCCP run.

    ``iterations`` counts inner convex solves.  ``trace`` holds the
    objective at the initial point and after every accepted iterate;
    ``iterates`` holds the matching parameter vectors.
    """

    iterations: int
    final_objective: float
    trace: list[float] = field(default_factory=list)
    iterates: list[np.ndarray] = field(default_factory=list)


def latent_impute(w: np.ndarray, sample: SampleRecord) -> int:
    """Best-scoring latent index at the truth label; ties break low."""
    return int(np.argmax(score_table(w, sample)[sample.truth_label]))


def loss_augmented_argmax(
    w: np.ndarray, theta: np.ndarray, sample: SampleRecord, loss: LossFunction
) -> tuple[int, int]:
    """Maximizer of score plus expected loss over all (label, latent)
    candidates; ties break to the smallest label, then latent index."""
    probs = latent_posterior(theta, sample)
    table = score_table(w, sample) + expected_loss_table(probs, sample, loss)
    flat = int(np.argmax(table))
    return divmod(flat, sample.num_latents)


class _InnerData:
    """Stacked views of the dataset plus augmentation tables and anchors.

    Candidate scoring is one matrix product over all samples.  Samples
    whose latent space is smaller than the largest K are padded to it:
    zero psi rows, -inf augmentation entries (a padded candidate never
    wins) and a -inf mask on the padded truth-label columns.  Ties break
    row-major (smallest label, then latent).
    """

    def __init__(self, dataset: Dataset, tables: Sequence[np.ndarray], anchors):
        samples = list(dataset)
        self.n = n = len(samples)
        self.d_w = dataset.d_w
        L, K = dataset.num_labels, max(s.num_latents for s in samples)
        psi = np.zeros((n, L, K, self.d_w))
        aug = np.full((n, L, K), -np.inf)
        self.truth_mask = np.zeros((n, K))
        for i, (s, table) in enumerate(zip(samples, tables)):
            psi[i, :, : s.num_latents] = s.psi
            aug[i, :, : s.num_latents] = table
            self.truth_mask[i, s.num_latents :] = -np.inf
        self.psi_stack = psi.reshape(n, L * K, self.d_w)
        self.aug_stack = aug.reshape(n, L * K)
        self.truth_cols = np.array(
            [s.truth_label * K + np.arange(K) for s in samples]
        )
        self.anchor_rows = np.array(
            [s.psi[s.truth_label, a] for s, a in zip(samples, anchors)]
        )

    def _flat_scores(self, w: np.ndarray) -> np.ndarray:
        n, ck, d = self.psi_stack.shape
        return (self.psi_stack.reshape(n * ck, d) @ w).reshape(n, ck)

    def most_violated(self, w: np.ndarray):
        """Most violated joint assignment at w: plane direction, offset,
        and a hashable assignment key."""
        scores = self._flat_scores(w)
        picks = np.argmax(scores + self.aug_stack, axis=1)
        rows = np.arange(self.n)
        direction = (self.anchor_rows - self.psi_stack[rows, picks]).mean(axis=0)
        offset = float(self.aug_stack[rows, picks].mean())
        return direction, offset, picks.tobytes()

    def true_objective(self, w: np.ndarray, C: float) -> float:
        """Value of the unconvexified problem at w with these tables:
        regularizer plus C times the mean of (loss-augmented max minus
        the best truth-label score)."""
        reg = 0.5 * float(w @ w)
        scores = self._flat_scores(w)
        hinge = (scores + self.aug_stack).max(axis=1)
        truth = np.take_along_axis(scores, self.truth_cols, axis=1)
        ref = (truth + self.truth_mask).max(axis=1)
        return reg + C * float((hinge - ref).mean())


def _qp_coordinate_ascent(
    G: np.ndarray,
    b: np.ndarray,
    C: float,
    alpha: np.ndarray,
    tol: float,
    max_passes: int = 10_000,
) -> np.ndarray:
    """Maximize  b . alpha - alpha^T G alpha / 2  over alpha >= 0 with
    sum(alpha) <= C, by coordinate ascent.

    Single-coordinate moves respect the remaining budget; when the budget
    constraint is active, pairwise exchange moves redistribute mass
    between planes so the iteration cannot stall on the budget face.
    """
    m = b.size
    q = G @ alpha
    for _ in range(max_passes):
        biggest = 0.0
        for j in range(m):
            gjj = G[j, j]
            slope = b[j] - q[j]
            budget = C - float(alpha.sum()) + alpha[j]
            if gjj > 0.0:
                target = alpha[j] + slope / gjj
            else:
                target = budget if slope > 0.0 else 0.0
            new = min(max(target, 0.0), budget)
            delta = new - alpha[j]
            if delta != 0.0:
                alpha[j] = new
                q += delta * G[:, j]
                biggest = max(biggest, abs(delta))
        if float(alpha.sum()) >= C * (1.0 - 1e-12):
            for j in range(m):
                for l in range(j):
                    denom = G[j, j] - 2.0 * G[j, l] + G[l, l]
                    slope = (b[j] - q[j]) - (b[l] - q[l])
                    if denom > 0.0:
                        delta = slope / denom
                    else:
                        delta = alpha[l] if slope > 0.0 else -alpha[j]
                    delta = min(max(delta, -alpha[j]), alpha[l])
                    if delta != 0.0:
                        alpha[j] += delta
                        alpha[l] -= delta
                        q += delta * (G[:, j] - G[:, l])
                        biggest = max(biggest, abs(delta))
        if biggest <= tol:
            break
    return alpha


def _solve_inner(
    data: _InnerData,
    C: float,
    inner_tol: float,
    plane_budget: int = DEFAULT_PLANE_BUDGET,
):
    """Cutting-plane loop for the one-slack convex problem.

    Returns (w, xi, planes).  Every plane in the working set was violated
    by more than inner_tol when added, and no assignment is added twice.
    On return the true aggregate slack exceeds the QP slack variable by
    less than inner_tol.
    """
    w = np.zeros(data.d_w)
    directions = np.empty((0, data.d_w))
    offsets = np.empty(0)
    alpha = np.empty(0)
    planes: list[CuttingPlane] = []
    seen = set()
    xi = 0.0
    qp_tol = 1e-13 * max(1.0, C)
    while True:
        direction, offset, key = data.most_violated(w)
        violation = offset - float(direction @ w)
        if violation <= xi + inner_tol or key in seen:
            return w, xi, planes
        if len(planes) >= plane_budget:
            raise SolverError(
                f"cutting-plane budget {plane_budget} exhausted "
                f"(violation still {violation - xi:.3e} above slack)",
                last_iterate=w,
            )
        seen.add(key)
        planes.append(CuttingPlane(direction.copy(), offset))
        directions = np.vstack([directions, direction[None, :]])
        offsets = np.append(offsets, offset)
        alpha = np.append(alpha, 0.0)
        gram = directions @ directions.T
        alpha = _qp_coordinate_ascent(gram, offsets, C, alpha, qp_tol)
        w = alpha @ directions
        xi = max(0.0, float((offsets - directions @ w).max()))


def solve_inner_convex(
    dataset: Dataset,
    theta: np.ndarray,
    imputed: Sequence[int],
    loss: LossFunction,
    C: float,
    inner_tol: float = 1e-4,
    plane_budget: int = DEFAULT_PLANE_BUDGET,
) -> np.ndarray:
    """Solve the convex subproblem with expected-loss augmentation under
    theta and the given frozen anchor latents."""
    tables = [
        expected_loss_table(latent_posterior(theta, s), s, loss) for s in dataset
    ]
    data = _InnerData(dataset, tables, imputed)
    w, _, _ = _solve_inner(data, C, inner_tol, plane_budget)
    return w


def _problem_key(imputed: Sequence[int], tables: Sequence[np.ndarray]) -> tuple:
    """Identity of a convex subproblem: the anchors and a SHA-256 digest
    of the exact bytes of every augmentation table."""
    digest = hashlib.sha256()
    for table in tables:
        digest.update(np.ascontiguousarray(table))
    return tuple(imputed), digest.digest()


def _cccp_loop(
    dataset: Dataset,
    build_tables: Callable[[np.ndarray, list[int]], Sequence[np.ndarray]],
    C: float,
    epsilon: float,
    inner_tol: float,
    w_init: Optional[np.ndarray],
    plane_budget: int = DEFAULT_PLANE_BUDGET,
    max_iterations: int = DEFAULT_CCCP_BUDGET,
):
    """Generic CCCP alternation shared by the dissimilarity solver and the
    latent-SVM style baselines.

    ``build_tables(w, imputed)`` supplies the per-sample augmentation
    tables for the convex solve at the current iterate.  The alternation
    always proceeds from the newest iterate; the best iterate seen is
    what gets reported and returned.  Stops once a round improves the
    best objective by a non-negative amount below C * epsilon, or once
    the convex subproblem (anchors plus tables) repeats.
    """

    w = np.zeros(dataset.d_w) if w_init is None else np.array(w_init, dtype=np.float64)
    imputed = [latent_impute(w, s) for s in dataset]
    tables = build_tables(w, imputed)
    data = _InnerData(dataset, tables, imputed)
    best_w = w.copy()
    best = data.true_objective(w, C)
    trace = [best]
    iterates = [w.copy()]
    seen = {_problem_key(imputed, tables)}
    iterations = 0
    while True:
        if iterations >= max_iterations:
            raise SolverError(
                f"CCCP budget {max_iterations} exhausted", last_iterate=best_w
            )
        w_new, _, _ = _solve_inner(data, C, inner_tol, plane_budget)
        iterations += 1
        imputed_new = [latent_impute(w_new, s) for s in dataset]
        tables_new = build_tables(w_new, imputed_new)
        data_new = _InnerData(dataset, tables_new, imputed_new)
        obj_new = data_new.true_objective(w_new, C)
        improvement = best - obj_new
        if obj_new < best:
            best_w, best = w_new.copy(), obj_new
            trace.append(obj_new)
            iterates.append(w_new.copy())
        data = data_new
        if 0.0 <= improvement < C * epsilon:
            break
        key = _problem_key(imputed_new, tables_new)
        if key in seen:
            break
        seen.add(key)
    report = WSolverReport(
        iterations=iterations,
        final_objective=best,
        trace=trace,
        iterates=iterates,
    )
    return best_w, report


def cccp_w(
    dataset: Dataset,
    theta: np.ndarray,
    w_init: Optional[np.ndarray],
    loss: LossFunction,
    C: float,
    epsilon: float = 1e-3,
    inner_tol: float = 1e-4,
    plane_budget: int = DEFAULT_PLANE_BUDGET,
) -> tuple[np.ndarray, WSolverReport]:
    """CCCP descent on the prediction parameters at fixed theta.

    The augmentation is the expected loss under the latent conditional,
    which does not depend on w, so the tables are computed once.
    """
    tables = [
        expected_loss_table(latent_posterior(theta, s), s, loss) for s in dataset
    ]

    def build(w, imputed):
        return tables

    return _cccp_loop(
        dataset, build, C, epsilon, inner_tol, w_init, plane_budget
    )
