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

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._kernel import LIB as _KERNEL, address
from .errors import SolverError
from .losses import HyperParams, LossFunction
from .model import Dataset, SampleRecord, _ScoreStack, score_table

# Budgets of the dual QP's passes, the cutting planes of one convex
# solve, and the CCCP rounds of one run; each is read at call time.
DEFAULT_QP_PASSES = 10_000
DEFAULT_PLANE_BUDGET = 500
DEFAULT_CCCP_BUDGET = 1000
# the cutting-plane tolerance of a convex solve
DEFAULT_INNER_TOL = 1e-4


@dataclass(frozen=True)
class WSolverReport:
    """Outcome of a CCCP run.

    ``iterations`` counts CCCP iterations, each one convex subproblem,
    solved or (for the baselines) reused.  ``termination`` is why
    the loop stopped: ``"tolerance"`` (a round improved the best value
    by less than C * epsilon) or ``"repeat"`` (a convex subproblem came
    back).  ``trace`` holds the objective at the initial point and after
    every accepted iterate; ``iterates`` holds the matching parameter
    vectors.
    """

    iterations: int
    termination: str
    trace: list[float]
    iterates: list[np.ndarray]


def latent_impute(w: np.ndarray, sample: SampleRecord) -> int:
    """Best-scoring latent index at the truth label; ties break low."""
    return int(np.argmax(score_table(w, sample)[sample.truth_label]))


def _most_violated(stack: _ScoreStack, aug: np.ndarray, anchor_rows, w):
    """Most violated joint assignment at w under the (n, labels * K)
    tables ``aug``: plane direction, offset, and a hashable key.  Padded
    candidates carry -inf, and ties break row-major, as in ``predict``.
    Both means are ``np.add.reduce`` over the samples, divided by n: the
    reduction and the division ``ndarray.mean`` makes, without its
    Python wrapper."""
    n = len(aug)
    scores = stack.scores(w).reshape(n, -1)
    picks = np.argmax(scores + aug, axis=1)
    direction = np.add.reduce(anchor_rows - stack.rows(picks), axis=0) / n
    offset = float(np.add.reduce(aug[stack.index, picks])) / n
    return direction, offset, picks.tobytes()


def _qp_coordinate_ascent(
    G: np.ndarray,
    b: np.ndarray,
    C: float,
    alpha: np.ndarray,
    tol: float,
) -> np.ndarray:
    """Maximize  b . alpha - alpha^T G alpha / 2  over alpha >= 0 with
    sum(alpha) <= C, by coordinate ascent; alpha is updated in place.

    Single-coordinate moves respect the remaining budget; when the budget
    constraint is active, pairwise exchange moves redistribute mass
    between planes so the iteration cannot stall on the budget face.

    The iteration stops once no move in a pass exceeds tol.  On the
    budget face rounding can keep moves just above a tol near machine
    precision, so after DEFAULT_QP_PASSES passes the Frank-Wolfe duality gap,
    which bounds how far the objective is below its maximum, decides:
    alpha is returned if the gap is at most 1e-9 * max(1, C), and
    SolverError is raised otherwise.

    The passes run in the compiled kernel where it loaded, else in the
    Python loop (``_qp_passes``); both return the same alpha bit for bit.
    """
    if _qp_passes(G, b, C, alpha, tol, DEFAULT_QP_PASSES):
        return alpha
    grad = b - G @ alpha
    gap = max(0.0, C * float(grad.max())) - float(grad @ alpha)
    if gap <= 1e-9 * max(1.0, C):
        return alpha
    raise SolverError(
        f"dual QP not converged after {DEFAULT_QP_PASSES} passes "
        f"(duality gap {gap:.3e})",
        last_iterate=alpha,
    )


def _qp_python(
    G: np.ndarray, b: np.ndarray, C: float, alpha: np.ndarray, tol: float,
    passes: int,
) -> bool:
    """At most ``passes`` passes of ``_qp_coordinate_ascent``'s moves on
    alpha, in place; True once a pass moves nothing by more than tol.

    The loops run on Python floats, which the interpreter steps through
    several times faster than numpy scalars, and make the IEEE operations
    of the numpy formulation in its order: ``q += delta * G[:, j]``
    element by element, and the remaining budget from numpy's pairwise
    sum of alpha (``_numpy_sum``).  The iterates depend on that summation
    order, so a change to it changes which plane weights, and hence
    which w, the solver returns.

    A pairwise exchange updates ``q += delta * (G[:, j] - G[:, l])``.  The
    column difference of a pair is built once per call, as a list, on the
    pair's first move, and reused by its later moves; each element is the
    same ``gj - gl`` the numpy form computes, so the iterates stay the
    numpy formulation's bit for bit.  The differences are held only for
    pairs that moved, at most (pairs moved) x m floats per call (9,856
    floats, about 0.3 MB, on the largest call of a criterion-09-size fit
    with C = 100), and are freed when the call returns.
    """
    m = b.size
    diag = G.diagonal()
    # curvature along e_j - e_l, as G[j, j] - 2.0 * G[j, l] + G[l, l]
    curvature = (diag[:, None] - 2.0 * G + diag[None, :]).tolist()
    diag = diag.tolist()
    cols = G.T.tolist()
    offsets = b.tolist()
    q = (G @ alpha).tolist()
    a = alpha.tolist()
    total = _numpy_sum(a)
    # diffs[j][l], l < j: G[:, j] - G[:, l] once the pair has moved
    diffs = [[None] * j for j in range(m)]
    for _ in range(passes):
        biggest = 0.0
        for j in range(m):
            aj = a[j]
            slope = offsets[j] - q[j]
            budget = C - total + aj
            if diag[j] > 0.0:
                new = aj + slope / diag[j]
            else:
                new = budget if slope > 0.0 else 0.0
            # min(max(new, 0.0), budget), keeping the first argument on ties
            if new < 0.0:
                new = 0.0
            if budget < new:
                new = budget
            delta = new - aj
            if delta != 0.0:
                a[j] = new
                total = _numpy_sum(a)
                q = [qi + delta * gi for qi, gi in zip(q, cols[j])]
                if abs(delta) > biggest:
                    biggest = abs(delta)
        if total >= C * (1.0 - 1e-12):
            for j in range(m):
                curv_j, diffs_j = curvature[j], diffs[j]
                # a[j] and its residual offsets[j] - q[j] live in locals
                # for the row; a[j] is written back at the row's end
                aj = a[j]
                rj = offsets[j] - q[j]
                for l in range(j):
                    denom = curv_j[l]
                    slope = rj - (offsets[l] - q[l])
                    al = a[l]
                    if denom > 0.0:
                        delta = slope / denom
                    else:
                        delta = al if slope > 0.0 else -aj
                    # min(max(delta, -a[j]), a[l]), as above
                    if -aj > delta:
                        delta = -aj
                    if al < delta:
                        delta = al
                    if delta != 0.0:
                        aj += delta
                        a[l] = al - delta
                        diff = diffs_j[l]
                        if diff is None:
                            diff = diffs_j[l] = [
                                gj - gl for gj, gl in zip(cols[j], cols[l])
                            ]
                        q = [qi + delta * di for qi, di in zip(q, diff)]
                        rj = offsets[j] - q[j]
                        if abs(delta) > biggest:
                            biggest = abs(delta)
                a[j] = aj
            total = _numpy_sum(a)
        if biggest <= tol:
            alpha[:] = a
            return True
    alpha[:] = a
    return False


def _qp_kernel(
    G: np.ndarray, b: np.ndarray, C: float, alpha: np.ndarray, tol: float,
    passes: int,
) -> bool:
    """``_qp_python`` in the compiled kernel (``_kernel.c``), which makes
    the same IEEE operations in the same order on the arrays themselves."""
    m = b.size
    q = G @ alpha
    return bool(_KERNEL.dissim_qp_ascent(
        m, address(G, (m, m), False, "QP"), address(b, (m,), False, "QP"),
        C, address(alpha, (m,), True, "QP"), address(q, (m,), True, "QP"),
        tol, passes,
    ))


# one QP path per platform: the kernel where it loaded, else the loop
_qp_passes = _qp_python if _KERNEL is None else _qp_kernel


def _numpy_sum(values: list) -> float:
    """``float(np.sum(values))`` for a list of floats, bit for bit.

    numpy adds a float64 vector to 0.0 pairwise: fewer than 8 values in
    order; up to 128 values in 8 interleaved accumulators, combined as a
    tree, then the remainder in order; more than 128 as two halves (the
    first a multiple of 8 long), each summed the same way.
    """
    return 0.0 + _pairwise_sum(values, 0, len(values))


def _pairwise_sum(a: list, lo: int, n: int) -> float:
    if n < 8:
        total = 0.0
        for i in range(lo, lo + n):
            total += a[i]
        return total
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = a[lo : lo + 8]
        stop = lo + n - n % 8
        for i in range(lo + 8, stop, 8):
            r0 += a[i]
            r1 += a[i + 1]
            r2 += a[i + 2]
            r3 += a[i + 3]
            r4 += a[i + 4]
            r5 += a[i + 5]
            r6 += a[i + 6]
            r7 += a[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(stop, lo + n):
            total += a[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(a, lo, half) + _pairwise_sum(a, lo + half, n - half)


def _solve_inner(
    stack: _ScoreStack,
    tables: np.ndarray,
    anchor_rows: np.ndarray,
    C: float,
    inner_tol: float,
):
    """Cutting-plane loop for the one-slack convex problem with these
    (n, labels, K) tables, padded as ``loss.stack(dataset)`` pads them,
    and each sample's psi row at its truth label and anchor.

    Returns w.  Every plane in the working set was violated by more than
    inner_tol when added, and no assignment is added twice.  On return
    the true aggregate slack exceeds the QP slack variable by less than
    inner_tol.  Raises SolverError once DEFAULT_PLANE_BUDGET planes are not
    enough, or when the planes' Gram matrix overflows.

    The planes live in one store per call: buffers of directions, offsets
    and plane weights whose capacity doubles from 8 rows, with the working
    set as their filled prefix.  A new plane is written into the next row,
    and its weight starts at the buffer's zero.  Each round takes the full
    Gram matrix over the prefix, the same product on the same row layout as
    a freshly stacked array, and the QP updates the weights in place.
    """
    aug = tables.reshape(len(tables), -1)
    w = np.zeros(stack.d_w)
    store_directions = np.empty((8, stack.d_w))
    store_offsets = np.empty(8)
    store_alpha = np.zeros(8)
    m = 0
    seen = set()
    xi = 0.0
    qp_tol = 1e-13 * max(1.0, C)
    while True:
        direction, offset, key = _most_violated(stack, aug, anchor_rows, w)
        violation = offset - float(direction @ w)
        if violation <= xi + inner_tol or key in seen:
            return w
        if m >= DEFAULT_PLANE_BUDGET:
            raise SolverError(
                f"cutting-plane budget {DEFAULT_PLANE_BUDGET} exhausted "
                f"(violation still {violation - xi:.3e} above slack)",
                last_iterate=w,
            )
        seen.add(key)
        if m == store_offsets.size:
            store_directions = np.concatenate(
                [store_directions, np.empty_like(store_directions)])
            store_offsets = np.concatenate(
                [store_offsets, np.empty_like(store_offsets)])
            store_alpha = np.concatenate([store_alpha, np.zeros_like(store_alpha)])
        store_directions[m] = direction
        store_offsets[m] = offset
        m += 1
        directions, offsets, alpha = (
            store_directions[:m], store_offsets[:m], store_alpha[:m])
        gram = directions @ directions.T
        if not np.all(np.isfinite(gram)):
            raise SolverError(
                "cutting-plane Gram matrix is not finite (feature values "
                "too large)",
                last_iterate=w,
            )
        _qp_coordinate_ascent(gram, offsets, C, alpha, qp_tol)
        w = alpha @ directions
        xi = max(0.0, float((offsets - directions @ w).max()))


def _cccp_loop(
    dataset: Dataset,
    build_round: Callable[[np.ndarray, list[int]], tuple],
    C: float,
    epsilon: float,
    inner_tol: float,
    w_init: Optional[np.ndarray],
    solved: Optional[dict] = None,
):
    """Generic CCCP alternation shared by the dissimilarity solver and the
    latent-SVM style baselines.

    ``build_round(scores, imputed)`` returns ``(tables, refs)``: the
    augmentation tables for the convex solve at the iterate scored
    ``scores`` (as ``_solve_inner`` takes them), and a tuple of integers
    that, with the anchors, determines those tables (empty when the
    tables are fixed for the run).  A convex subproblem is keyed by the
    anchors plus refs.
    ``solved`` maps such keys to their solutions; a subproblem found
    there is not solved again, and each new solution is added.  The
    baselines pass the store of their training set's
    ``loss.stack(dataset)`` at this C and inner_tol; without one the store
    lasts this run only.
    The alternation always proceeds from the newest iterate; the best
    iterate seen is what gets reported and returned.  Stops once a round
    improves the best objective by a non-negative amount below
    C * epsilon, or once a subproblem repeats within the run, and raises
    SolverError once DEFAULT_CCCP_BUDGET rounds have not stopped it.

    Each iterate's scores are the score stack's kept product, made by the
    inner solve's last ``_most_violated``, and read by the imputation,
    ``build_round`` and the objective, ``||w||^2 / 2 + C * mean`` of the
    slacks that ``losses.upper_bound`` sums.
    """

    stack = dataset._score_stack
    w = np.zeros(dataset.d_w) if w_init is None else np.array(w_init, dtype=np.float64)
    # every iterate is read-only, so the report and the result share them
    w.flags.writeable = False
    solved = {} if solved is None else solved
    scores = stack.scores(w)
    imputed = stack.impute(scores)
    tables, refs = build_round(scores, imputed)
    best_w = w
    best = 0.5 * float(w @ w) + C * float(stack.slacks(scores, tables).mean())
    trace = [best]
    iterates = [w]
    key = (tuple(imputed), refs)
    seen = {key}
    iterations = 0
    while True:
        if iterations >= DEFAULT_CCCP_BUDGET:
            raise SolverError(
                f"CCCP budget {DEFAULT_CCCP_BUDGET} exhausted", last_iterate=best_w
            )
        w_new = solved.get(key)
        if w_new is None:
            w_new = _solve_inner(
                stack, tables, stack.anchor_rows(imputed), C, inner_tol)
            w_new.flags.writeable = False  # later runs read it too
            solved[key] = w_new
        iterations += 1
        scores = stack.scores(w_new)
        imputed = stack.impute(scores)
        tables, refs = build_round(scores, imputed)
        obj_new = 0.5 * float(w_new @ w_new) + C * float(
            stack.slacks(scores, tables).mean())
        improvement = best - obj_new
        if obj_new < best:
            best_w, best = w_new, obj_new
            trace.append(obj_new)
            iterates.append(w_new)
        if 0.0 <= improvement < C * epsilon:
            termination = "tolerance"
            break
        key = (tuple(imputed), refs)
        if key in seen:
            termination = "repeat"
            break
        seen.add(key)
    return best_w, WSolverReport(iterations, termination, trace, iterates)


def cccp_w(
    dataset: Dataset,
    theta: np.ndarray,
    w_init: Optional[np.ndarray],
    loss: LossFunction,
    C: float,
    epsilon: float = HyperParams.epsilon,
    inner_tol: float = DEFAULT_INNER_TOL,
) -> tuple[np.ndarray, WSolverReport]:
    """CCCP descent on the prediction parameters at fixed theta.

    The augmentation is the expected loss under the latent conditional,
    which does not depend on w, so the tables are computed once, batched
    over ``loss.stack(dataset)``.
    """
    tables = loss.stack(dataset).expected_losses(theta)

    def build(scores, imputed):
        return tables, ()

    return _cccp_loop(dataset, build, C, epsilon, inner_tol, w_init)
