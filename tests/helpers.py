"""Shared builders for randomized test instances, plus reference forms
of scoring, the latent conditional, the w-step's convex subproblem, its
cutting-plane loop with a freshly stacked working set, its most
violated assignment with ``ndarray.mean``, its dual QP and
the theta step that only the tests use, and the oracles the
src definitions are checked against: each loss pair by pair
(``scalar_loss``), the dissimilarity objective (a vectorized form and a
brute-force one), its point-mass restriction, the synthetic task's
analytic template model, the generator pooling one box at a time, the
dataset and model files laid out value by value (in the
block layout where psi is the class-block map of phi), the
loaders reading a file's whole text at once, a stand-in for a stacked
matrix that logs its products, and what tests that start processes need:
a check that no child is left, and a subprocess environment that imports
this ``dissim``.

Instances come in two flavours: abstract (no boxes, suitable for the
zero-one losses) and geometric (one box per latent value, suitable for
the overlap loss as well).  All randomness flows through an explicit
seed so failures replay exactly.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from unittest import mock

import numpy as np

import dissim
import dissim.dataio as dataio
import dissim.wsolver as wsolver
from dissim import (
    ConfigError,
    Dataset,
    FiniteDistribution,
    HyperParams,
    InputError,
    LabelOnlyZeroOneLoss,
    LossFunction,
    ModelParams,
    ModelRecord,
    OverlapLoss,
    SampleRecord,
    SolverError,
    SSDConfig,
    TaskSpec,
    TrainConfig,
    ZeroOneLoss,
    expected_loss_table,
    latent_posterior,
    score_table,
    self_diversity,
    slack,
    train,
)
from dissim.dataio import DATASET_MAGIC, MODEL_MAGIC
from dissim.model import _frozen_array, _log_sum_exp, _vector, predict
from dissim.synth import _signatures


def no_child_left() -> bool:
    """Whether this process has no child, running or unreaped.
    ``multiprocessing.active_children()`` lists only the children that
    ``multiprocessing`` started, so it cannot see ``os.fork`` children."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def src_env() -> dict:
    """This process's environment, with the ``src`` that ``dissim`` was
    imported from first on ``PYTHONPATH``, for a Python subprocess."""
    env = dict(os.environ)
    src = str(Path(dissim.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def make_sample(
    rng: np.random.Generator,
    sample_id: str,
    num_labels: int,
    num_latents: int,
    d_w: int,
    d_theta: int,
    geometric: bool = False,
    grid: int = 8,
    with_truth: bool = True,
) -> SampleRecord:
    boxes = None
    if geometric:
        side = max(2, grid // 2)
        boxes = []
        for _ in range(num_latents):
            x0 = int(rng.integers(0, grid - side + 1))
            y0 = int(rng.integers(0, grid - side + 1))
            boxes.append((x0, y0, x0 + side, y0 + side))
    return SampleRecord(
        id=sample_id,
        truth_label=int(rng.integers(0, num_labels)),
        psi=rng.standard_normal((num_labels, num_latents, d_w)),
        phi=rng.standard_normal((num_latents, d_theta)),
        boxes=boxes,
        truth_latent=int(rng.integers(0, num_latents)) if with_truth else None,
    )


def make_dataset(
    seed: int,
    n: int = 4,
    num_labels: int = 3,
    num_latents: int = 4,
    d_w: int = 5,
    d_theta: int = 3,
    geometric: bool = False,
    uniform_shapes: bool = True,
) -> Dataset:
    """Random dataset; set uniform_shapes=False to vary K per sample."""
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        k = num_latents if uniform_shapes else int(rng.integers(2, num_latents + 1))
        samples.append(
            make_sample(rng, f"s{i}", num_labels, k, d_w, d_theta, geometric)
        )
    return Dataset(num_labels, d_w, d_theta, tuple(samples))


# Replacement values for mutation fuzzing: empty, signs, boundary
# integers, non-numbers, non-finite and huge values, a byte that is not
# UTF-8 (as a surrogate escape), and CSV quoting characters.
MUTATION_TOKENS = ("", "-1", "0", "1", "2", "x", "nan", "-inf", "1e999",
                   "99999999999999999999999", "\udcff", "\"", ",")
MUTATIONS = ("delete", "duplicate", "rewrite")


def write_mutated(path, lines, op, where, token, replacement, sep=" "):
    """Write lines to path with line ``where`` (modulo the count) deleted,
    duplicated or rewritten; a rewrite replaces value field ``token``
    (modulo the field count), or the keyword on a one-field line."""
    lines = list(lines)
    i = where % len(lines)
    if op == "delete":
        lines[i : i + 1] = []
    elif op == "duplicate":
        lines.insert(i, lines[i])
    else:
        fields = lines[i].split(sep)
        j = 0 if len(fields) == 1 else 1 + token % (len(fields) - 1)
        fields[j] = replacement
        lines[i] = sep.join(fields)
    text = "\n".join(lines) + "\n"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


def reference_fmt_floats(values) -> str:
    """The per-value float formatter, one ``repr`` per value."""
    return " ".join(repr(float(v)) for v in values)


def reference_is_block(dataset: Dataset) -> bool:
    """Whether every sample's psi has the bits of the dense class-block
    map of its phi: phi[k] in block y of psi[y, k], +0.0 elsewhere."""
    L, d = dataset.num_labels, dataset.d_theta
    if dataset.d_w != L * d:
        return False
    for s in dataset:
        dense = np.zeros(s.psi.shape)
        for y in range(L):
            dense[y, :, y * d : (y + 1) * d] = s.phi
        if np.ascontiguousarray(s.psi).tobytes() != dense.tobytes():
            return False
    return True


def reference_header(dataset: Dataset, block: bool) -> list[str]:
    """A dataset file's header lines; a block file declares ``joint
    block``."""
    return [DATASET_MAGIC, f"labels {dataset.num_labels}", f"dw {dataset.d_w}",
            f"dtheta {dataset.d_theta}",
            f"geometric {1 if dataset.geometric else 0}",
            *(["joint block"] if block else []),
            f"samples {len(dataset)}"]


def reference_dataset_text(dataset: Dataset, dense: bool = False) -> str:
    """The text ``save_dataset`` writes, laid out value by value with
    ``reference_fmt_floats``: without psi rows where every psi is the
    block map of its phi, unless ``dense`` asks for the psi rows anyway
    (the layout of every file before the block layout)."""
    block = not dense and reference_is_block(dataset)
    out = reference_header(dataset, block)
    for s in dataset:
        out += [f"sample {s.id}", f"label {s.truth_label}"]
        if s.truth_latent is not None:
            out.append(f"truth_latent {s.truth_latent}")
        out.append(f"latents {s.num_latents}")
        for k in range(s.num_latents):
            box = "".join(f" {c}" for c in s.boxes[k].tolist()) if s.geometric else ""
            out.append(f"latent {k}{box}")
        for y in range(0 if block else dataset.num_labels):
            for k in range(s.num_latents):
                out.append(f"psi {y} {k} {reference_fmt_floats(s.psi[y, k])}")
        for k in range(s.num_latents):
            out.append(f"phi {k} {reference_fmt_floats(s.phi[k])}")
    return "\n".join(out) + "\n"


def reference_model_text(record: ModelRecord) -> str:
    """The text ``save_model`` writes, laid out value by value with
    ``reference_fmt_floats``."""
    out = [MODEL_MAGIC, f"method {record.method}", f"loss {record.loss_kind}",
           f"dw {record.params.w.size}", f"dtheta {record.params.theta.size}",
           f"termination {record.termination}",
           f"w {reference_fmt_floats(record.params.w)}",
           f"theta {reference_fmt_floats(record.params.theta)}",
           f"trace {len(record.trace)}"]
    out += [repr(float(v)) for v in record.trace]
    return "\n".join(out) + "\n"


def reference_generate(spec: TaskSpec) -> tuple[Dataset, dict[str, int]]:
    """``synth.generate`` as it was before it pooled the candidate boxes
    through one window view: one ``mean`` per box."""
    class_sigs, bg_sig = _signatures(spec)
    boxes_px = spec.candidate_boxes()
    boxes = _frozen_array(boxes_px, dtype=np.int64)
    g, d = spec.grid, spec.feature_dim
    c = spec.num_classes
    n = c * spec.per_class
    children = np.random.SeedSequence(entropy=spec.seed).spawn(n)
    samples = []
    truth = {}
    index = 0
    for label in range(c):
        for j in range(spec.per_class):
            rng = np.random.default_rng(children[index])
            index += 1
            planted = int(rng.integers(spec.boxes))
            cell_noise = rng.standard_normal((g, g, d))
            clutter_draw = rng.random((g, g))
            clutter_class = rng.integers(0, c, size=(g, g))
            cells = np.tile(bg_sig, (g, g, 1))
            clutter_mask = clutter_draw < spec.clutter
            cells[clutter_mask] = class_sigs[clutter_class[clutter_mask]]
            x0, y0, x1, y1 = boxes_px[planted]
            cells[y0:y1, x0:x1] = class_sigs[label]
            cells = cells + spec.noise * cell_noise
            pooled = np.empty((spec.boxes, d))
            for k, (bx0, by0, bx1, by1) in enumerate(boxes_px):
                pooled[k] = cells[by0:by1, bx0:bx1].mean(axis=(0, 1))
            phi = pooled
            psi = np.zeros((c, spec.boxes, c * d))
            for y in range(c):
                psi[y, :, y * d : (y + 1) * d] = pooled
            sample_id = f"c{label}s{j:03d}"
            samples.append(
                SampleRecord(
                    id=sample_id,
                    truth_label=label,
                    psi=psi,
                    phi=phi,
                    boxes=boxes,
                    truth_latent=planted,
                )
            )
            truth[sample_id] = planted
    dataset = Dataset(
        num_labels=c, d_w=c * d, d_theta=d, samples=tuple(samples)
    )
    return dataset, truth


def reference_read_text(path) -> str:
    """The file decoded as UTF-8 in one piece, line endings untranslated:
    the whole-text reading the loaders did before they streamed.  Bytes
    that do not decode are an InputError naming the line; the codec's
    position counts from the start of the file."""
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as err:
        line = raw.count(b"\n", 0, err.start) + 1
        raise InputError(f"{path} line {line}: not UTF-8 text ({err})") from err


class ReferenceLineReader(dataio._LineReader):
    """``dataio._LineReader`` over the list of the whole text's lines, as
    it read before it streamed; the field parsers are shared."""

    def __init__(self, path, handle):
        self.path = path
        self.lines = reference_read_text(path).splitlines()
        self.pos = 0

    def next(self) -> str:
        while self.pos < len(self.lines):
            line = self.lines[self.pos]
            self.pos += 1
            if line.strip():
                return line
        raise InputError(f"{self.path}: unexpected end of file")

    def peek(self):
        pos = self.pos
        while pos < len(self.lines):
            if self.lines[pos].strip():
                return self.lines[pos]
            pos += 1
        return None


def reference_load(load, path):
    """``load`` (one of the dataio loaders) reading the whole text at
    once: the dataset and model loaders through ``ReferenceLineReader``,
    the results loader with csv over the whole text in one piece."""
    with mock.patch.object(dataio, "_LineReader", ReferenceLineReader), \
            mock.patch.object(dataio, "_decoded_lines",
                              lambda handle, path: [reference_read_text(path)]):
        return load(path)


def random_params(rng: np.random.Generator, dataset: Dataset, scale: float = 1.0):
    w = scale * rng.standard_normal(dataset.d_w)
    theta = scale * rng.standard_normal(dataset.d_theta)
    return w, theta


def brute_distribution(rng: np.random.Generator, k: int) -> np.ndarray:
    p = rng.random(k) + 1e-9
    return p / p.sum()


def log_partition(theta: np.ndarray, sample: SampleRecord) -> float:
    """Log normalizer of the latent conditional."""
    return _log_sum_exp(sample.phi @ _vector("theta", theta, sample.phi.shape[1]))


def score(w: np.ndarray, sample: SampleRecord, y: int, k: int) -> float:
    """Linear score of one (label, latent) candidate under w."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (sample.psi.shape[2],):
        raise ConfigError(f"w has shape {w.shape}, expected psi's last axis")
    _check_pair(sample, y, k)
    return float(sample.psi[y, k] @ w)


def uniform_distribution(size: int) -> FiniteDistribution:
    return FiniteDistribution(np.full(size, 1.0 / size))


def point_mass(size: int, index: int) -> FiniteDistribution:
    probs = np.zeros(size)
    probs[index] = 1.0
    return FiniteDistribution(probs)


def conditional_distribution(
    theta: np.ndarray, sample: SampleRecord
) -> FiniteDistribution:
    """The latent conditional P_theta(. | sample) as a validated distribution."""
    return FiniteDistribution(latent_posterior(theta, sample))


def joint_conditional(
    theta: np.ndarray, sample: SampleRecord, y: int, k: int
) -> float:
    """Joint conditional over (label, latent): mass only on the truth label."""
    _check_pair(sample, y, k)
    if y != sample.truth_label:
        return 0.0
    return float(latent_posterior(theta, sample)[k])


def loss_augmented_argmax(
    w: np.ndarray, theta: np.ndarray, sample: SampleRecord, loss: LossFunction
) -> tuple[int, int]:
    """Maximizer of score plus expected loss over all (label, latent)
    candidates; ties break to the smallest label, then latent index."""
    probs = latent_posterior(theta, sample)
    table = score_table(w, sample) + expected_loss_table(probs, sample, loss)
    return divmod(int(np.argmax(table)), sample.num_latents)


def solve_inner_convex(
    dataset: Dataset,
    theta: np.ndarray,
    imputed,
    loss: LossFunction,
    C: float,
    inner_tol: float = 1e-4,
) -> np.ndarray:
    """The w-step's convex subproblem with expected-loss augmentation
    under theta and the given frozen anchor latents."""
    tables = [
        expected_loss_table(latent_posterior(theta, s), s, loss) for s in dataset
    ]
    return wsolver._solve_inner(dataset._score_stack, pad_tables(dataset, tables),
                                anchor_rows(dataset, imputed), C, inner_tol)


def reference_solve_inner(
    stack,
    tables: np.ndarray,
    anchor_rows: np.ndarray,
    C: float,
    inner_tol: float,
):
    """``wsolver._solve_inner`` with the working set stacked afresh for
    every plane (``np.vstack`` and ``np.append``), kept as the reference
    its plane store must match bit for bit.  The plane budget is read
    from ``wsolver`` at call time."""
    aug = tables.reshape(len(tables), -1)
    w = np.zeros(stack.d_w)
    directions = np.empty((0, stack.d_w))
    offsets = np.empty(0)
    alpha = np.empty(0)
    seen = set()
    xi = 0.0
    qp_tol = 1e-13 * max(1.0, C)
    while True:
        direction, offset, key = wsolver._most_violated(stack, aug, anchor_rows, w)
        violation = offset - float(direction @ w)
        if violation <= xi + inner_tol or key in seen:
            return w
        if offsets.size >= wsolver.DEFAULT_PLANE_BUDGET:
            raise SolverError(
                f"cutting-plane budget {wsolver.DEFAULT_PLANE_BUDGET} exhausted "
                f"(violation still {violation - xi:.3e} above slack)",
                last_iterate=w,
            )
        seen.add(key)
        directions = np.vstack([directions, direction[None, :]])
        offsets = np.append(offsets, offset)
        alpha = np.append(alpha, 0.0)
        gram = directions @ directions.T
        if not np.all(np.isfinite(gram)):
            raise SolverError(
                "cutting-plane Gram matrix is not finite (feature values "
                "too large)",
                last_iterate=w,
            )
        alpha = wsolver._qp_coordinate_ascent(gram, offsets, C, alpha, qp_tol)
        w = alpha @ directions
        xi = max(0.0, float((offsets - directions @ w).max()))


def reference_most_violated(stack, aug: np.ndarray, anchor_rows, w):
    """``wsolver._most_violated`` with its means taken by ``ndarray.mean``
    and the picked rows gathered by 2-D fancy indexing on a reshape of
    the stack's psi, kept as the reference its bare reductions and
    ``take`` must match bit for bit."""
    n = len(aug)
    scores = stack.scores(w).reshape(n, -1)
    picks = np.argmax(scores + aug, axis=1)
    picked = stack._psi_rows.reshape(n, aug.shape[1], -1)[np.arange(n), picks]
    direction = (anchor_rows - picked).mean(axis=0)
    offset = float(aug[np.arange(n), picks].mean())
    return direction, offset, picks.tobytes()


def anchor_rows(dataset: Dataset, anchors) -> np.ndarray:
    """Each sample's psi row at its truth label and anchor latent, as the
    (n, d_w) array ``wsolver._solve_inner`` takes."""
    return np.array([s.psi[s.truth_label, k] for s, k in zip(dataset, anchors)])


def pad_tables(dataset: Dataset, tables) -> np.ndarray:
    """One (labels, K_i) table per sample as the (n, labels, K) array
    ``wsolver._solve_inner`` takes: -inf at the padded candidates."""
    K = max(s.num_latents for s in dataset)
    out = np.full((len(dataset), dataset.num_labels, K), -np.inf)
    for i, table in enumerate(tables):
        out[i, :, : table.shape[1]] = table
    return out


def _check_pair(sample: SampleRecord, y: int, k: int) -> None:
    if not (0 <= y < sample.psi.shape[0]):
        raise IndexError(f"label {y} outside [0, {sample.psi.shape[0]})")
    if not (0 <= k < sample.num_latents):
        raise IndexError(f"latent index {k} outside [0, {sample.num_latents})")


def reference_qp_coordinate_ascent(
    G: np.ndarray,
    b: np.ndarray,
    C: float,
    alpha: np.ndarray,
    tol: float,
) -> np.ndarray:
    """The dual QP of ``wsolver._qp_coordinate_ascent`` on numpy arrays
    and scalars, kept as the reference its Python-float loops must match
    bit for bit.

    Maximize  b . alpha - alpha^T G alpha / 2  over alpha >= 0 with
    sum(alpha) <= C, by coordinate ascent.

    Single-coordinate moves respect the remaining budget; when the budget
    constraint is active, pairwise exchange moves redistribute mass
    between planes so the iteration cannot stall on the budget face.

    The iteration stops once no move in a pass exceeds tol.  On the
    budget face rounding can keep moves just above a tol near machine
    precision, so after ``wsolver.DEFAULT_QP_PASSES`` passes (read at call
    time) the Frank-Wolfe duality gap, which bounds how far the objective
    is below its maximum, decides: alpha is returned if the gap is at most
    1e-9 * max(1, C), and SolverError is raised otherwise.
    """
    max_passes = wsolver.DEFAULT_QP_PASSES
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
            return alpha
    grad = b - G @ alpha
    gap = max(0.0, C * float(grad.max())) - float(grad @ alpha)
    if gap <= 1e-9 * max(1.0, C):
        return alpha
    raise SolverError(
        f"dual QP not converged after {max_passes} passes "
        f"(duality gap {gap:.3e})",
        last_iterate=alpha,
    )


def _reference_log_sum_exp(activations: np.ndarray) -> float:
    shift = float(activations.max())
    return shift + math.log(float(np.exp(activations - shift).sum()))


def _reference_posterior(theta: np.ndarray, sample: SampleRecord) -> np.ndarray:
    activations = sample.phi @ theta
    return np.exp(activations - _reference_log_sum_exp(activations))


def _reference_expected_loss_table(
    probs: np.ndarray, sample: SampleRecord, loss: LossFunction
) -> np.ndarray:
    T = loss.table(sample)
    if not loss.latent_dependent:
        return T[0].copy()
    return probs @ T.transpose(1, 0, 2)


def _reference_pull(
    probs: np.ndarray, phi: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    pw = probs * weights
    mean_feature = phi.T @ probs
    return phi.T @ pw - float(pw.sum()) * mean_feature


def _reference_grad_expected(probs, sample, y, k, loss) -> np.ndarray:
    if not loss.latent_dependent:
        return np.zeros(sample.phi.shape[1])
    column = loss.table(sample)[:, y, k]
    return _reference_pull(probs, sample.phi, column)


def _reference_grad_self_diversity(probs, sample, loss) -> np.ndarray:
    if not loss.latent_dependent:
        return np.zeros(sample.phi.shape[1])
    M = loss.table(sample)[:, sample.truth_label, :]
    weights = M @ probs + probs @ M
    return _reference_pull(probs, sample.phi, weights)


def reference_ssd_theta(
    dataset: Dataset,
    w: np.ndarray,
    theta_init: np.ndarray,
    loss: LossFunction,
    hyper: HyperParams,
    config: SSDConfig = SSDConfig(),
) -> np.ndarray:
    """``thetasolver.ssd_theta`` as one scalar index draw and one lookup
    of every table per step, kept as the reference that its per-sample
    views must match bit for bit.

    The latent conditional, the expected-loss table and the gradient
    pulls are written out here in the form they had in that loop
    (``ndarray`` method reductions, ``phi.T @ probs`` once per pull), so
    the comparison covers the private cores the solver shares with the
    public functions.
    """
    n = len(dataset)
    samples = list(dataset)
    steps = (
        config.steps if config.steps is not None else config.steps_per_sample * n
    )
    lam = hyper.J / hyper.C
    theta = np.array(theta_init, dtype=np.float64)
    rng = np.random.default_rng(config.seed)
    score_tables = [score_table(w, s) for s in samples]
    for t in range(1, steps + 1):
        i = int(rng.integers(n))
        sample = samples[i]
        probs = _reference_posterior(theta, sample)
        table = score_tables[i] + _reference_expected_loss_table(probs, sample, loss)
        y, k = divmod(int(np.argmax(table)), sample.num_latents)
        g_slack = _reference_grad_expected(probs, sample, y, k, loss)
        g_selfdiv = _reference_grad_self_diversity(probs, sample, loss)
        g = lam * theta + g_slack - hyper.beta * g_selfdiv
        theta = theta - g / (lam * t)
    return theta


# The per-sample loops that ``LossFunction.stack`` replaced in the
# training path, kept as the references the stacked forms must match bit
# for bit.


def reference_impute(w: np.ndarray, dataset: Dataset) -> list[int]:
    """CCCP's anchors: each sample's best latent at its truth label."""
    return [int(np.argmax(score_table(w, s)[s.truth_label])) for s in dataset]


def reference_ilsvm_latent_estimates(
    w: np.ndarray, dataset: Dataset, loss: LossFunction
) -> list[int]:
    refs = []
    for sample in dataset:
        y_hat, k_hat = predict(w, sample)
        refs.append(int(np.argmin(loss.table(sample)[:, y_hat, k_hat])))
    return refs


def reference_pointwise_tables(dataset: Dataset, refs, loss: LossFunction):
    """The baselines' tables: loss(truth, ref, y, k) per sample."""
    return [loss.table(sample)[ref] for sample, ref in zip(dataset, refs)]


def reference_cccp_tables(theta: np.ndarray, dataset: Dataset, loss: LossFunction):
    """``cccp_w``'s expected-loss tables, one per sample."""
    return [expected_loss_table(latent_posterior(theta, s), s, loss) for s in dataset]


def reference_score_tables(w: np.ndarray, dataset: Dataset):
    """``ssd_theta``'s score tables, one per sample."""
    return [score_table(w, s) for s in dataset]


def reference_upper_bound(
    w: np.ndarray, theta: np.ndarray, dataset: Dataset, loss: LossFunction,
    beta: float,
) -> float:
    total = 0.0
    for sample in dataset:
        xi = slack(w, theta, sample, loss)
        total += xi - beta * self_diversity(theta, sample, loss)
    return total / len(dataset)


def reference_evaluate(params: ModelParams, dataset: Dataset, loss: LossFunction):
    total = 0.0
    for sample in dataset:
        y_hat, k_hat = predict(params.w, sample)
        total += float(loss.table(sample)[sample.truth_latent, y_hat, k_hat])
    return 100.0 * total / len(dataset)


def stack_case(seed: int, uniform: bool, n: int = 8) -> Dataset:
    """A geometric dataset for comparing stacked terms with the references:
    latent spaces of 9 (more than numpy's 8 pairwise accumulators) or
    ragged ones of 2 to 9."""
    return make_dataset(seed, n=n, num_labels=3, num_latents=9, d_w=6,
                        d_theta=4, geometric=True, uniform_shapes=uniform)


class LoggedProducts:
    """Stands in for a stacked matrix and logs the vector of every product
    taken with it; ``reshape`` gives the bare array, or a logged stand-in
    for it with ``log_reshapes``."""

    def __init__(self, array, log, log_reshapes=False):
        self.array, self.log, self.log_reshapes = array, log, log_reshapes
        self.shape = array.shape

    def reshape(self, *shape):
        array = self.array.reshape(*shape)
        return LoggedProducts(array, self.log) if self.log_reshapes else array

    def __matmul__(self, vector):
        self.log.append(np.array(vector))
        return self.array @ vector


def origin_products(dataset: Dataset, loss_classes, C_grid) -> tuple[int, dict]:
    """Fit ``dataset`` with ``dissim`` at every C of ``C_grid`` under each
    loss, logging every product with the score stack's ``_psi_rows`` and
    each loss's stacked phi; the number of products at the all-``+0.0``
    w, and per loss class the number at the all-``+0.0`` theta."""
    ws, thetas = [], {}
    scoring = dataset._score_stack
    scoring._psi_rows = LoggedProducts(scoring._psi_rows, ws)
    for loss_cls in loss_classes:
        loss = loss_cls()
        stack = loss.stack(dataset)
        (group,) = stack.blocks
        thetas[loss_cls] = []
        stack.blocks = [group._replace(
            phi=LoggedProducts(group.phi, thetas[loss_cls], True))]
        for C in C_grid:
            train(dataset, loss, TrainConfig(
                hyper=HyperParams(C=C), ssd=SSDConfig(steps_per_sample=10, seed=0),
                inner_tol=1e-2, max_outer_rounds=4))

    def at_origin(log):
        return sum(v.tobytes() == bytes(v.nbytes) for v in log)

    return at_origin(ws), {k: at_origin(log) for k, log in thetas.items()}


class StubZeroLoss(ZeroOneLoss):
    """Loss identically zero; handy for degenerate checks."""

    def pair_matrix(self, sample, y1, y2):
        k = sample.num_latents
        return np.zeros((k, k))


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


def scalar_loss(
    loss: LossFunction, y1: int, k1: int, y2: int, k2: int, sample: SampleRecord
) -> float:
    """loss(y1, k1, y2, k2) for one pair of candidates, from each loss's
    definition in plain Python: the oracle that ``loss.table`` and
    ``pair_matrix`` must match entry for entry."""
    if isinstance(loss, StubZeroLoss):
        return 0.0
    if isinstance(loss, OverlapLoss):
        if y1 != y2:
            return 1.0
        if not sample.geometric:
            raise ConfigError(f"overlap loss needs boxes; sample {sample.id} has none")
        boxes = sample.boxes
        return 1.0 - overlap_ratio(boxes[k1].tolist(), boxes[k2].tolist())
    if isinstance(loss, LabelOnlyZeroOneLoss):
        return 0.0 if y1 == y2 else 1.0
    if isinstance(loss, ZeroOneLoss):
        return 0.0 if (y1 == y2 and k1 == k2) else 1.0
    raise TypeError(f"no scalar definition of {type(loss).__name__}")


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
        total += table[y, k] - beta * self_diversity(theta, sample, loss)
    return total / len(dataset)


def delta_restricted_objective(
    dataset: Dataset,
    w: np.ndarray,
    placements,
    loss: LossFunction,
) -> float:
    """Dissimilarity objective when the latent conditional is restricted
    to point masses at the given placements.

    A point mass has zero self diversity, so the diversity weight beta
    does not enter.
    """
    total = 0.0
    for sample, placement in zip(dataset, placements):
        if not (0 <= placement < sample.num_latents):
            raise IndexError(
                f"placement {placement} outside [0, {sample.num_latents})"
            )
        y_hat, k_hat = predict(w, sample)
        total += scalar_loss(loss, sample.truth_label, placement, y_hat, k_hat, sample)
    return total / len(dataset)


def template_model(spec: TaskSpec) -> ModelParams:
    """The analytic block template: block y holds class signature y.

    At zero noise and zero clutter this model predicts the truth label and
    the planted box for every generated sample.
    """
    class_sigs, _ = _signatures(spec)
    return ModelParams(class_sigs.ravel(), np.zeros(spec.feature_dim))


ORACLE_SIZE_LIMIT = 1_000_000


def oracle_objective(
    w: np.ndarray,
    theta: np.ndarray,
    dataset: Dataset,
    loss: LossFunction,
    beta: float,
) -> float:
    """Brute-force dissimilarity objective: mean over samples of the
    expected loss at the score argmax minus beta times the conditional's
    self diversity.  Plain loops and scalar math throughout; a
    deliberately naive re-implementation (its own softmax, argmax and
    losses) that shares no code with the vectorized evaluators.

    Refuses instances larger than n * labels * K^2 = 1e6 terms.
    """
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"beta must lie in (0, 1), got {beta}")
    n = len(dataset)
    work = sum(
        dataset.num_labels * s.num_latents * s.num_latents for s in dataset
    )
    if work > ORACLE_SIZE_LIMIT:
        raise InputError(
            f"oracle refuses instances above {ORACLE_SIZE_LIMIT} terms, got {work}"
        )
    w_list = [float(v) for v in np.asarray(w, dtype=np.float64)]
    theta_list = [float(v) for v in np.asarray(theta, dtype=np.float64)]
    total = 0.0
    for sample in dataset:
        K = sample.num_latents
        labels = sample.psi.shape[0]
        truth = sample.truth_label

        activations = []
        for k in range(K):
            acc = 0.0
            for j, tj in enumerate(theta_list):
                acc += tj * float(sample.phi[k, j])
            activations.append(acc)
        peak = max(activations)
        weights = [math.exp(a - peak) for a in activations]
        z = sum(weights)
        probs = [v / z for v in weights]

        best_y, best_k, best_score = 0, 0, None
        for y in range(labels):
            for k in range(K):
                acc = 0.0
                for j, wj in enumerate(w_list):
                    acc += wj * float(sample.psi[y, k, j])
                if best_score is None or acc > best_score:
                    best_y, best_k, best_score = y, k, acc

        exp_loss = 0.0
        for k in range(K):
            exp_loss += probs[k] * scalar_loss(loss, truth, k, best_y, best_k, sample)

        self_div = 0.0
        for k1 in range(K):
            for k2 in range(K):
                self_div += (
                    probs[k1] * probs[k2]
                    * scalar_loss(loss, truth, k1, truth, k2, sample)
                )

        total += exp_loss - beta * self_div
    return total / n
