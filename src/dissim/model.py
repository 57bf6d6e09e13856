"""Core types and scoring for linear latent-variable predictors.

A sample couples a class label with a finite latent space and two
precomputed feature tables.  The joint table ``psi`` scores
(label, latent) candidates through the prediction parameters ``w``;
the table ``phi`` drives a log-linear distribution over the latent
space through the distribution parameters ``theta``:

    score(w, s, y, k)   = w . psi[y, k]
    P_theta(k | s)      = exp(theta . phi[k]) / Z(theta, s)

Prediction maximizes the score jointly over labels and latent values.
Ties are broken deterministically: smallest label first, then smallest
latent index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConfigError, InputError

# Box coordinates lie in [-BOX_COORD_LIMIT, BOX_COORD_LIMIT).  Box sides
# then stay below 2**26, and every area and every union of two boxes
# below 2**53: exact in int64 and in float64, so an intersection over
# union is one correctly rounded division.
BOX_COORD_LIMIT = 2**25


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    """A read-only array of values.  A read-only array of this dtype whose
    innermost axis is contiguous is kept as is (a strided window such as
    ``_block_embedding``'s psi included), so every vector is contiguous;
    anything else becomes a contiguous array.  A writeable array of the
    caller's is copied, not frozen under the caller's hands; an array
    built here from other values is frozen as is."""
    if (
        isinstance(values, np.ndarray)
        and not values.flags.writeable
        and values.dtype == dtype
        and values.ndim > 0
        and values.strides[-1] == values.itemsize
    ):
        return values
    arr = np.ascontiguousarray(values, dtype=dtype)
    if (
        isinstance(values, np.ndarray)
        and values.flags.writeable
        and np.may_share_memory(arr, values)
    ):
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _block_embedding(phi: np.ndarray, labels: int) -> np.ndarray:
    """psi of a sample with these pooled features: psi[y, k] is phi[k] in
    block y of length d and zeros elsewhere, shape (labels, K, labels * d).

    Returned as a read-only window on one buffer of (labels - 1) * d +
    K * labels * d doubles: (labels - 1) * d zeros, then per latent k the
    row phi[k] followed by (labels - 1) * d zeros.  Label y's view starts
    y * d doubles before row 0, so its block y lands on phi and every
    other block on zeros; the dense array would hold about labels times
    more.
    """
    K, d = phi.shape
    width = labels * d
    buffer = np.zeros((labels - 1) * d + K * width)
    start = (labels - 1) * d
    buffer[start:].reshape(K, width)[:, :d] = phi
    step = buffer.itemsize
    # the ndarray constructor, not as_strided: every as_strided call left a
    # block on CPython's free lists (it copies a dict), memory that a
    # traced save went on counting
    window = np.ndarray((labels, K, width), np.float64, buffer, start * step,
                        (-d * step, width * step, step))
    window.flags.writeable = False
    return window


@dataclass(frozen=True, eq=False)
class SampleRecord:
    """A weakly supervised sample: label observed, latent value unobserved.

    psi has shape (num_labels, K, d_w) and phi has shape (K, d_theta),
    where K is the size of the latent space.  ``boxes`` is present for
    geometric latent spaces (localization tasks) and absent for abstract
    ones: a (K, 4) int64 array holding latent value k's half-open pixel
    box (x0, y0, x1, y1) in row k; every box has positive area and every
    coordinate is an integer in [-BOX_COORD_LIMIT, BOX_COORD_LIMIT).
    ``truth_latent`` is a ground-truth latent index carried by synthetic
    data for evaluation only; training code never reads it.
    """

    id: str
    truth_label: int
    psi: np.ndarray
    phi: np.ndarray
    boxes: Optional[np.ndarray] = None
    truth_latent: Optional[int] = None

    def __post_init__(self):
        if not self.id:
            raise InputError("sample id must be a non-empty string")
        object.__setattr__(self, "psi", _frozen_array(self.psi))
        object.__setattr__(self, "phi", _frozen_array(self.phi))
        if self.psi.ndim != 3:
            raise ConfigError(f"sample {self.id}: psi must be 3-d (labels, K, d_w)")
        if self.phi.ndim != 2:
            raise ConfigError(f"sample {self.id}: phi must be 2-d (K, d_theta)")
        K = self.psi.shape[1]
        if K < 1:
            raise InputError(f"sample {self.id}: latent space must be non-empty")
        if self.phi.shape[0] != K:
            raise ConfigError(
                f"sample {self.id}: feature tables must cover all {K} latent values"
            )
        if not (0 <= self.truth_label < self.psi.shape[0]):
            raise InputError(
                f"sample {self.id}: truth label {self.truth_label} outside "
                f"[0, {self.psi.shape[0]})"
            )
        # each label's extremes (with 0.0, so an empty row passes): NaN and
        # the infinities show in them, and a reduction along rows reads a
        # block window in place, where an elementwise isfinite on its three
        # axes would buffer a dense copy of it
        rows = self.psi.reshape(self.psi.shape[0], -1)
        extremes = (rows.max(axis=1, initial=0.0), rows.min(axis=1, initial=0.0))
        if not np.isfinite(extremes).all() or not np.all(np.isfinite(self.phi)):
            raise InputError(f"sample {self.id}: feature tables must be finite")
        if self.truth_latent is not None and not (0 <= self.truth_latent < K):
            raise InputError(
                f"sample {self.id}: truth latent {self.truth_latent} outside [0, {K})"
            )
        if self.boxes is None:
            return
        boxes = np.asarray(self.boxes)
        if boxes.shape != (K, 4):
            raise InputError(
                f"sample {self.id}: boxes must have shape ({K}, 4), "
                f"got {boxes.shape}"
            )
        # compared before the int64 cast, so no value outside the bound (or
        # NaN) reaches the cast
        if not (-BOX_COORD_LIMIT <= boxes.min() and boxes.max() < BOX_COORD_LIMIT):
            raise InputError(
                f"sample {self.id}: box coordinates must lie in "
                f"[{-BOX_COORD_LIMIT}, {BOX_COORD_LIMIT})"
            )
        # and no fraction either: the cast would truncate it
        if boxes.dtype.kind not in "iub" and not np.array_equal(boxes, np.floor(boxes)):
            raise InputError(f"sample {self.id}: box coordinates must be integers")
        boxes = _frozen_array(boxes, dtype=np.int64)
        object.__setattr__(self, "boxes", boxes)
        degenerate = (boxes[:, 0] >= boxes[:, 2]) | (boxes[:, 1] >= boxes[:, 3])
        if degenerate.any():
            k = int(np.argmax(degenerate))
            raise InputError(
                f"sample {self.id}: degenerate box {tuple(boxes[k].tolist())} "
                f"at latent {k}: need x0 < x1 and y0 < y1"
            )

    @property
    def num_latents(self) -> int:
        return self.psi.shape[1]

    @property
    def geometric(self) -> bool:
        return self.boxes is not None


@dataclass(frozen=True, eq=False)
class Dataset:
    """A collection of samples sharing label count and feature dimensions.
    Frozen, as every record is, so what is derived from it (the score
    stack, a loss's stacked view) is built once and lives as long as it."""

    num_labels: int
    d_w: int
    d_theta: int
    samples: tuple[SampleRecord, ...]

    def __post_init__(self):
        if self.num_labels < 2:
            raise ConfigError(f"need at least 2 labels, got {self.num_labels}")
        object.__setattr__(self, "samples", tuple(self.samples))
        if not self.samples:
            raise InputError("dataset must contain at least one sample")
        seen_ids = set()
        geometric = self.samples[0].geometric
        for s in self.samples:
            if s.id in seen_ids:
                raise InputError(f"duplicate sample id {s.id!r}")
            seen_ids.add(s.id)
            if s.psi.shape[0] != self.num_labels:
                raise ConfigError(
                    f"sample {s.id}: psi covers {s.psi.shape[0]} labels, "
                    f"dataset declares {self.num_labels}"
                )
            if s.psi.shape[2] != self.d_w:
                raise ConfigError(
                    f"sample {s.id}: psi dimension {s.psi.shape[2]} != d_w {self.d_w}"
                )
            if s.phi.shape[1] != self.d_theta:
                raise ConfigError(
                    f"sample {s.id}: phi dimension {s.phi.shape[1]} != "
                    f"d_theta {self.d_theta}"
                )
            if s.geometric != geometric:
                raise InputError(
                    "either all samples carry boxes or none do "
                    f"(sample {s.id} disagrees)"
                )

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    @property
    def geometric(self) -> bool:
        return self.samples[0].geometric

    @cached_property
    def _score_stack(self) -> _ScoreStack:
        """The set's score stack, one per dataset whatever the loss."""
        return _ScoreStack(self)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """The two linear parameter vectors of a trained model."""

    w: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", _frozen_array(self.w))
        object.__setattr__(self, "theta", _frozen_array(self.theta))
        if self.w.ndim != 1 or self.theta.ndim != 1:
            raise ConfigError("w and theta must be vectors")
        if not np.all(np.isfinite(self.w)) or not np.all(np.isfinite(self.theta)):
            raise InputError("model parameters must be finite")


@dataclass(frozen=True, eq=False)
class FiniteDistribution:
    """A probability vector over a finite latent space."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _frozen_array(self.probs))
        if self.probs.ndim != 1 or self.probs.size < 1:
            raise InputError("probability vector must be a non-empty 1-d array")
        if np.any(self.probs < 0.0) or np.any(self.probs > 1.0):
            raise InputError("probabilities must lie in [0, 1]")
        total = float(self.probs.sum())
        if abs(total - 1.0) > 1e-10:
            raise InputError(f"probabilities sum to {total}, expected 1 within 1e-10")

    def __len__(self) -> int:
        return self.probs.size


def _vector(name: str, values, size: int) -> np.ndarray:
    """values as a float64 vector of this size; ConfigError naming the
    parameter otherwise."""
    vec = np.asarray(values, dtype=np.float64)
    if vec.shape != (size,):
        raise ConfigError(f"{name} has shape {vec.shape}, expected ({size},)")
    return vec


def score_table(w: np.ndarray, sample: SampleRecord) -> np.ndarray:
    """All candidate scores at once, shape (num_labels, K)."""
    num_labels, K, d_w = sample.psi.shape
    w = _vector("w", w, d_w)
    return (sample.psi.reshape(num_labels * K, d_w) @ w).reshape(num_labels, K)


def predict(w: np.ndarray, sample: SampleRecord) -> tuple[int, int]:
    """Jointly maximizing (label, latent) pair; ties break to the smallest
    label, then the smallest latent index."""
    table = score_table(w, sample)
    flat = int(np.argmax(table))
    y, k = divmod(flat, sample.num_latents)
    return y, k


class _Kept:
    """A memo of a function of one float64 vector: the last result, keyed
    on the vector's bytes (so an in-place edit misses, and -0.0 is not
    0.0), and the result at the all-``+0.0`` origin, which no other key
    evicts.  The function comes with each call: a bound method kept here
    would be a cycle that keeps its owner until a cyclic collection."""

    def __init__(self, size: int):
        self._origin_key = bytes(8 * size)
        self._origin = None  # built on first use
        self._last = (None, None)  # (key, result)

    def get(self, vector: np.ndarray, compute):
        """``compute(vector)``, or the kept result for these bytes."""
        key = vector.tobytes()
        if key == self._origin_key:
            if self._origin is None:
                self._origin = compute(vector)
            return self._origin
        cached, result = self._last  # read once: key and result stay a pair
        if key != cached:
            result = compute(vector)
            self._last = (key, result)
        return result


class _ScoreStack:
    """Every sample's candidates stacked for one score product.

    psi is padded to the largest latent-space size K with zero rows, so
    each score is still a dot product over d_w and equals the
    per-sample ``score_table`` entry.  ``mask`` is -inf at the padded
    latent indices of each sample (0 elsewhere), so a padded candidate
    never wins an argmax.  Ties break row-major, as in ``predict``.
    ``groups`` lists each latent-space size with the positions of its
    samples, in dataset order: a reduction over K runs per group,
    unpadded, and ``ungroup`` puts the per-group results back in order.
    ``scores`` keeps its products in a ``_Kept`` memo while the dataset
    lives: the last one, so the callers of a round that score one w share
    it, and the one at the origin, where every fit and every convex w step
    starts, so a set pays for it once.

    The padded psi is private: a solver reads candidate rows only through
    ``rows`` and ``anchor_rows``, indexed as ``scores`` lays candidates
    out, so candidate (y, k) of a sample is its flat index y * K + k.
    ``index`` is the read-only ``np.arange(n)`` that pairs each sample
    with its own entry in the per-sample gathers.
    """

    def __init__(self, dataset: Dataset):
        samples = dataset.samples
        n, L, d = len(samples), dataset.num_labels, dataset.d_w
        sizes = [s.num_latents for s in samples]
        K = max(sizes)
        psi = np.zeros((n, L, K, d))
        self.mask = np.zeros((n, K))
        members: dict[int, list[int]] = {}
        for i, s in enumerate(samples):
            psi[i, :, : sizes[i]] = s.psi
            self.mask[i, sizes[i] :] = -np.inf
            members.setdefault(sizes[i], []).append(i)
        # two views of one buffer, every candidate a row: the product's,
        # and the gathers', where sample i's candidates start at row
        # _first[i]; as separate objects, either can be stood in for
        # (to log products, say) without touching the other
        self._psi_rows = psi.reshape(n * L * K, d)
        self._candidates = psi.reshape(n * L * K, d)
        self.index = np.arange(n)
        self.index.flags.writeable = False
        self._first = self.index * (L * K)
        self.shape = (n, L, K)
        self.d_w = d
        self.truth_labels = np.array([s.truth_label for s in samples])
        # one group is the whole set, indexed by a slice so that reading
        # it makes no copy
        self.groups = (
            [(K, slice(None))]
            if len(members) == 1
            else [(k, np.array(rows)) for k, rows in members.items()]
        )
        self._kept = _Kept(d)

    def scores(self, w: np.ndarray) -> np.ndarray:
        """All candidate scores, shape (n, labels, K), read-only and kept
        as ``_Kept`` keeps them."""
        return self._kept.get(_vector("w", w, self.d_w), self._product)

    def _product(self, w: np.ndarray) -> np.ndarray:
        scores = (self._psi_rows @ w).reshape(self.shape)
        scores.setflags(write=False)
        return scores

    def rows(self, flat: np.ndarray) -> np.ndarray:
        """Per sample i, the psi row of its candidate ``flat[i]``, indexed
        as ``scores.reshape(n, -1)`` lays out its candidates: a new (n, d_w)
        array."""
        return self._candidates.take(self._first + flat, axis=0)

    def anchor_rows(self, imputed) -> np.ndarray:
        """Per sample, the psi row at its truth label and imputed latent."""
        return self.rows(self.truth_labels * self.shape[2] + np.asarray(imputed))

    def impute(self, scores: np.ndarray) -> list[int]:
        """Per sample, the best-scoring latent index at the truth label;
        ties break low."""
        truth = scores[self.index, self.truth_labels]
        return np.argmax(truth + self.mask, axis=1).tolist()

    def predict(self, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per sample, the jointly best (label, latent) pair as two index
        arrays; ties break as in ``predict``."""
        n, L, K = self.shape
        flat = np.argmax((scores + self.mask[:, None, :]).reshape(n, L * K), axis=1)
        return np.divmod(flat, K)

    def slacks(self, scores: np.ndarray, tables: np.ndarray) -> np.ndarray:
        """Per sample, the max of ``scores + tables`` (-inf at the padded
        candidates) minus the best truth-label score: the slack.  A max is
        exact in any layout, so each equals its per-sample form."""
        n = self.shape[0]
        hinge = (scores + tables).reshape(n, -1).max(axis=1)
        truth = scores[self.index, self.truth_labels]
        return hinge - (truth + self.mask).max(axis=1)

    def ungroup(self, parts: list[np.ndarray]) -> np.ndarray:
        """Per-group values back in dataset order: (n_g,) parts as one
        (n,) array, (n_g, labels, K) tables as one (n, labels, K) array
        with -inf at the padded candidates."""
        if len(parts) == 1:
            return parts[0]
        if parts[0].ndim == 1:
            out = np.empty(self.shape[0], dtype=parts[0].dtype)
            for (_, rows), part in zip(self.groups, parts):
                out[rows] = part
        else:
            out = np.full(self.shape, -np.inf)
            for (K, rows), part in zip(self.groups, parts):
                out[rows, :, :K] = part
        return out


def _log_sum_exp(activations: np.ndarray) -> float:
    """Max-shifted log-sum-exp: large activations cannot overflow.

    The max is read at ``argmax``, which is the first NaN if there is one,
    as ``ndarray.max`` propagates it; the sum is ``np.add.reduce``, the
    kernel behind ``ndarray.sum`` without its Python wrapper.
    """
    shift = activations.item(activations.argmax())
    return shift + math.log(float(np.add.reduce(np.exp(activations - shift))))


def _posterior(phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """``latent_posterior`` for a checked float64 theta."""
    activations = phi.dot(theta)
    return np.exp(activations - _log_sum_exp(activations))


def latent_posterior(theta: np.ndarray, sample: SampleRecord) -> np.ndarray:
    """Log-linear latent distribution as a bare probability vector."""
    return _posterior(sample.phi, _vector("theta", theta, sample.phi.shape[1]))
