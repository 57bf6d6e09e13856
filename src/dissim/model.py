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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, InputError

# Axis-aligned box in integer pixel units, half-open: (x0, y0, x1, y1).
Box = tuple[int, int, int, int]


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class LatentValue:
    """One element of a sample's latent space.

    ``box`` is present for geometric latent spaces (localization tasks)
    and absent for abstract ones.  Boxes must have positive area.
    """

    index: int
    box: Optional[Box] = None

    def __post_init__(self):
        if self.index < 0:
            raise InputError(f"latent index must be >= 0, got {self.index}")
        if self.box is not None:
            box = tuple(int(v) for v in self.box)
            object.__setattr__(self, "box", box)
            x0, y0, x1, y1 = box
            if not (x0 < x1 and y0 < y1):
                raise InputError(f"degenerate box {box}: need x0 < x1 and y0 < y1")


@dataclass(eq=False)
class SampleRecord:
    """A weakly supervised sample: label observed, latent value unobserved.

    psi has shape (num_labels, K, d_w) and phi has shape (K, d_theta),
    where K is the size of the latent space.  ``truth_latent`` is a
    ground-truth latent index carried by synthetic data for evaluation
    only; training code never reads it.
    """

    id: str
    truth_label: int
    latent_space: tuple[LatentValue, ...]
    psi: np.ndarray
    phi: np.ndarray
    truth_latent: Optional[int] = None
    boxes: Optional[np.ndarray] = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if not self.id:
            raise InputError("sample id must be a non-empty string")
        self.latent_space = tuple(self.latent_space)
        if len(self.latent_space) < 1:
            raise InputError(f"sample {self.id}: latent space must be non-empty")
        for k, latent in enumerate(self.latent_space):
            if latent.index != k:
                raise InputError(
                    f"sample {self.id}: latent indices must be contiguous from 0, "
                    f"found {latent.index} at position {k}"
                )
        with_box = [lv.box is not None for lv in self.latent_space]
        if any(with_box) and not all(with_box):
            raise InputError(
                f"sample {self.id}: either all latent values carry a box or none do"
            )

        self.psi = _frozen_array(self.psi)
        self.phi = _frozen_array(self.phi)
        K = len(self.latent_space)
        if self.psi.ndim != 3:
            raise ConfigError(f"sample {self.id}: psi must be 3-d (labels, K, d_w)")
        if self.phi.ndim != 2:
            raise ConfigError(f"sample {self.id}: phi must be 2-d (K, d_theta)")
        if self.psi.shape[1] != K or self.phi.shape[0] != K:
            raise ConfigError(
                f"sample {self.id}: feature tables must cover all {K} latent values"
            )
        if not (0 <= self.truth_label < self.psi.shape[0]):
            raise InputError(
                f"sample {self.id}: truth label {self.truth_label} outside "
                f"[0, {self.psi.shape[0]})"
            )
        if not np.all(np.isfinite(self.psi)) or not np.all(np.isfinite(self.phi)):
            raise InputError(f"sample {self.id}: feature tables must be finite")
        if self.truth_latent is not None and not (0 <= self.truth_latent < K):
            raise InputError(
                f"sample {self.id}: truth latent {self.truth_latent} outside [0, {K})"
            )
        if all(with_box):
            self.boxes = _frozen_array(
                [lv.box for lv in self.latent_space], dtype=np.int64
            )

    @property
    def num_latents(self) -> int:
        return len(self.latent_space)

    @property
    def geometric(self) -> bool:
        return self.boxes is not None


@dataclass(eq=False)
class Dataset:
    """A collection of samples sharing label count and feature dimensions."""

    num_labels: int
    d_w: int
    d_theta: int
    samples: tuple[SampleRecord, ...]

    def __post_init__(self):
        if self.num_labels < 2:
            raise ConfigError(f"need at least 2 labels, got {self.num_labels}")
        self.samples = tuple(self.samples)
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


@dataclass(eq=False)
class ModelParams:
    """The two linear parameter vectors of a trained model."""

    w: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        self.w = _frozen_array(self.w)
        self.theta = _frozen_array(self.theta)
        if self.w.ndim != 1 or self.theta.ndim != 1:
            raise ConfigError("w and theta must be vectors")
        if not np.all(np.isfinite(self.w)) or not np.all(np.isfinite(self.theta)):
            raise InputError("model parameters must be finite")

    @classmethod
    def zeros(cls, d_w: int, d_theta: int) -> "ModelParams":
        return cls(np.zeros(d_w), np.zeros(d_theta))


@dataclass(eq=False)
class FiniteDistribution:
    """A probability vector over a finite latent space."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = _frozen_array(self.probs)
        if self.probs.ndim != 1 or self.probs.size < 1:
            raise InputError("probability vector must be a non-empty 1-d array")
        if np.any(self.probs < 0.0) or np.any(self.probs > 1.0):
            raise InputError("probabilities must lie in [0, 1]")
        total = float(self.probs.sum())
        if abs(total - 1.0) > 1e-10:
            raise InputError(f"probabilities sum to {total}, expected 1 within 1e-10")

    @classmethod
    def uniform(cls, size: int) -> "FiniteDistribution":
        return cls(np.full(size, 1.0 / size))

    @classmethod
    def point_mass(cls, size: int, index: int) -> "FiniteDistribution":
        probs = np.zeros(size)
        probs[index] = 1.0
        return cls(probs)

    def __len__(self) -> int:
        return self.probs.size


def _check_w(w: np.ndarray, sample: SampleRecord) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (sample.psi.shape[2],):
        raise ConfigError(
            f"w has shape {w.shape}, expected ({sample.psi.shape[2]},)"
        )
    return w


def _check_theta(theta: np.ndarray, sample: SampleRecord) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (sample.phi.shape[1],):
        raise ConfigError(
            f"theta has shape {theta.shape}, expected ({sample.phi.shape[1]},)"
        )
    return theta


def _check_pair(sample: SampleRecord, y: int, k: int) -> None:
    if not (0 <= y < sample.psi.shape[0]):
        raise IndexError(f"label {y} outside [0, {sample.psi.shape[0]})")
    if not (0 <= k < sample.num_latents):
        raise IndexError(f"latent index {k} outside [0, {sample.num_latents})")


def score(w: np.ndarray, sample: SampleRecord, y: int, k: int) -> float:
    """Linear score of the (label, latent) candidate under w."""
    w = _check_w(w, sample)
    _check_pair(sample, y, k)
    return float(sample.psi[y, k] @ w)


def score_table(w: np.ndarray, sample: SampleRecord) -> np.ndarray:
    """All candidate scores at once, shape (num_labels, K)."""
    w = _check_w(w, sample)
    num_labels, K, d_w = sample.psi.shape
    return (sample.psi.reshape(num_labels * K, d_w) @ w).reshape(num_labels, K)


def predict(w: np.ndarray, sample: SampleRecord) -> tuple[int, int]:
    """Jointly maximizing (label, latent) pair; ties break to the smallest
    label, then the smallest latent index."""
    table = score_table(w, sample)
    flat = int(np.argmax(table))
    y, k = divmod(flat, sample.num_latents)
    return y, k


def _log_sum_exp(activations: np.ndarray) -> float:
    """Max-shifted log-sum-exp: large activations cannot overflow."""
    shift = float(activations.max())
    return shift + math.log(float(np.exp(activations - shift).sum()))


def latent_posterior(theta: np.ndarray, sample: SampleRecord) -> np.ndarray:
    """Log-linear latent distribution as a bare probability vector."""
    activations = sample.phi @ _check_theta(theta, sample)
    return np.exp(activations - _log_sum_exp(activations))


def log_partition(theta: np.ndarray, sample: SampleRecord) -> float:
    """Log normalizer of the latent conditional."""
    return _log_sum_exp(sample.phi @ _check_theta(theta, sample))


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
