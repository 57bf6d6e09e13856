"""Synthetic weakly supervised localization benchmark.

Each sample is a G x G grid of d-dimensional cell features.  One candidate
box is planted with the class signature; the rest of the grid carries a
background signature, except that each background cell independently
switches to a random class signature with probability ``clutter`` (decoy
appearance).  Gaussian noise of scale ``noise`` is added to every cell.
Candidate boxes of side ``box_cells`` are enumerated on an integer stride
grid; the latent task is to localize the planted box given only the label.

Signatures are orthonormal (classes plus background), so at zero noise and
zero clutter the block template whose y-th block is the y-th class
signature scores the planted candidate strictly highest: a perfect model
exists.

Clutter decisions are drawn unconditionally per cell and thresholded
against ``clutter``, so raising the rate at a fixed seed only switches
cells whose draw falls between the two rates; planted-box features are
bit-identical across rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError
from .model import Dataset, SampleRecord, _frozen_array

GroundTruth = dict[str, int]


@dataclass(frozen=True)
class TaskSpec:
    """Generator settings; the defaults give the benchmark used throughout.

    ``boxes`` must be a perfect square whose side fits the stride grid:
    with side m, (grid - box_cells) must be divisible by m - 1 (stride at
    least 1), so candidates tile a regular lattice.  Signatures need
    feature_dim >= num_classes + 1 to be orthonormal with the background.
    """

    num_classes: int = 6
    per_class: int = 45
    grid: int = 8
    boxes: int = 16
    box_cells: int = 5
    feature_dim: int = 8
    clutter: float = 0.3
    noise: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.num_classes}")
        if self.per_class < 1:
            raise ConfigError(f"per_class must be >= 1, got {self.per_class}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.box_cells <= self.grid:
            raise ConfigError(
                f"box_cells must lie in [1, grid], got {self.box_cells}"
            )
        if self.boxes < 1:
            raise ConfigError(f"boxes must be >= 1, got {self.boxes}")
        side = math.isqrt(self.boxes)
        if side * side != self.boxes:
            raise ConfigError(f"boxes must be a perfect square, got {self.boxes}")
        if side > 1:
            span = self.grid - self.box_cells
            if span < side - 1 or span % (side - 1) != 0:
                raise ConfigError(
                    f"no integer stride places {self.boxes} boxes of side "
                    f"{self.box_cells} on a {self.grid}-cell grid"
                )
        if self.feature_dim < self.num_classes + 1:
            raise ConfigError(
                f"feature_dim must be >= num_classes + 1 for orthonormal "
                f"signatures, got {self.feature_dim} < {self.num_classes + 1}"
            )
        if not 0.0 <= self.clutter <= 1.0:
            raise ConfigError(f"clutter must lie in [0, 1], got {self.clutter}")
        if self.noise < 0.0:
            raise ConfigError(f"noise must be >= 0, got {self.noise}")

    @property
    def stride(self) -> int:
        side = math.isqrt(self.boxes)
        if side == 1:
            return 1
        return (self.grid - self.box_cells) // (side - 1)

    def candidate_boxes(self) -> list[tuple[int, int, int, int]]:
        """Half-open pixel boxes (x0, y0, x1, y1), one cell = one pixel,
        enumerated row-major over the stride lattice."""
        side = math.isqrt(self.boxes)
        coords = [i * self.stride for i in range(side)]
        return [
            (c, r, c + self.box_cells, r + self.box_cells)
            for r in coords
            for c in coords
        ]


# Distinct entropy stream for signature construction, separate from the
# per-sample spawn tree.
_SIGNATURE_STREAM = 0x516


def _signatures(spec: TaskSpec) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal class signatures plus a background signature."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(spec.seed, _SIGNATURE_STREAM))
    )
    raw = rng.standard_normal((spec.feature_dim, spec.num_classes + 1))
    q, _ = np.linalg.qr(raw)
    basis = q.T
    return basis[: spec.num_classes], basis[spec.num_classes]


def generate(spec: TaskSpec) -> tuple[Dataset, GroundTruth]:
    """Build the benchmark dataset and its ground-truth latent map.

    Bit-reproducible: per-sample streams are spawned from the spec seed,
    and every random quantity (planted position, noise, clutter draws) is
    generated regardless of the rates that gate its use.
    """
    class_sigs, bg_sig = _signatures(spec)
    boxes_px = spec.candidate_boxes()
    boxes = _frozen_array(boxes_px, dtype=np.int64)
    g, d = spec.grid, spec.feature_dim
    side, b, stride = math.isqrt(spec.boxes), spec.box_cells, spec.stride
    c = spec.num_classes
    n = c * spec.per_class
    children = np.random.SeedSequence(entropy=spec.seed).spawn(n)
    samples = []
    truth: GroundTruth = {}
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
            decoys = clutter_draw < spec.clutter
            cells[decoys] = class_sigs[clutter_class[decoys]]
            x0, y0, x1, y1 = boxes_px[planted]
            cells[y0:y1, x0:x1] = class_sigs[label]
            cells = cells + spec.noise * cell_noise
            # every candidate's cells as one (side, side, b, b, d) view, its
            # boxes one stride apart in the row-major order of boxes_px; the
            # mean runs over the contiguous feature axis innermost, as a
            # per-box mean does, so each box's cells are added in the same
            # order and the bits agree
            rows, cols, feats = cells.strides
            windows = as_strided(
                cells, (side, side, b, b, d),
                (stride * rows, stride * cols, rows, cols, feats),
                writeable=False,
            )
            phi = windows.mean(axis=(2, 3)).reshape(spec.boxes, d)
            psi = np.zeros((c, spec.boxes, c * d))
            for y in range(c):
                psi[y, :, y * d : (y + 1) * d] = phi
            # frozen here, so SampleRecord keeps them without a copy
            phi.flags.writeable = psi.flags.writeable = False
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
