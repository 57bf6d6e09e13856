"""Synthetic localization benchmark and the brute-force oracle."""

import numpy as np
import pytest

from dissim import (
    ConfigError,
    InputError,
    ModelParams,
    OverlapLoss,
    TaskSpec,
    ZeroOneLoss,
    evaluate,
    generate,
    score_table,
    upper_bound,
)
from helpers import (
    dissimilarity_objective,
    make_dataset,
    oracle_objective,
    reference_generate,
    template_model,
)


SMALL = TaskSpec(num_classes=3, per_class=4, noise=0.0, clutter=0.0, seed=1)


class TestTaskSpec:
    def test_defaults(self):
        spec = TaskSpec()
        assert (spec.num_classes, spec.per_class, spec.grid) == (6, 45, 8)
        assert (spec.boxes, spec.box_cells, spec.feature_dim) == (16, 5, 8)
        assert (spec.clutter, spec.noise) == (0.3, 0.5)

    def test_stride_is_integral(self):
        assert TaskSpec().stride == 1
        with pytest.raises(ConfigError):
            TaskSpec(grid=9, boxes=16, box_cells=5)

    def test_boxes_must_be_square_count(self):
        with pytest.raises(ConfigError):
            TaskSpec(boxes=15)
        for boxes in (0, -4):
            with pytest.raises(ConfigError, match="boxes must be >= 1"):
                TaskSpec(boxes=boxes)

    def test_feature_dim_floor(self):
        with pytest.raises(ConfigError):
            TaskSpec(num_classes=8, feature_dim=8)

    def test_rate_validation(self):
        with pytest.raises(ConfigError):
            TaskSpec(clutter=1.5)
        with pytest.raises(ConfigError):
            TaskSpec(noise=-0.1)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_noise_is_a_config_error(self, noise):
        with pytest.raises(ConfigError, match="noise must be finite"):
            TaskSpec(noise=noise)

    def test_candidate_boxes_cover_grid(self):
        boxes = TaskSpec().candidate_boxes()
        assert len(boxes) == 16
        assert boxes[0] == (0, 0, 5, 5)
        assert boxes[-1] == (3, 3, 8, 8)
        for x0, y0, x1, y1 in boxes:
            assert x1 - x0 == 5 and y1 - y0 == 5
            assert 0 <= x0 and x1 <= 8 and 0 <= y0 and y1 <= 8


class TestGenerate:
    def test_shapes_and_geometry(self):
        dset, truth = generate(SMALL)
        assert len(dset) == 12
        assert dset.num_labels == 3
        assert dset.geometric
        for s in dset:
            assert s.psi.shape == (3, 16, 3 * 8)
            assert s.phi.shape == (16, 8)
            assert s.truth_latent is not None
            assert truth[s.id] == s.truth_latent

    def test_bit_identical_regeneration(self):
        a, _ = generate(SMALL)
        b, _ = generate(SMALL)
        for sa, sb in zip(a, b):
            assert sa.id == sb.id
            np.testing.assert_array_equal(sa.psi, sb.psi)
            np.testing.assert_array_equal(sa.phi, sb.phi)
            assert sa.truth_latent == sb.truth_latent

    def test_seed_changes_data(self):
        a, _ = generate(SMALL)
        b, _ = generate(TaskSpec(num_classes=3, per_class=4, noise=0.0,
                                 clutter=0.0, seed=2))
        assert not np.array_equal(a.samples[0].phi, b.samples[0].phi)

    def test_clutter_rate_preserves_planted_features(self):
        lo, _ = generate(TaskSpec(num_classes=3, per_class=4, clutter=0.1,
                                  seed=3))
        hi, _ = generate(TaskSpec(num_classes=3, per_class=4, clutter=0.6,
                                  seed=3))
        changed = 0
        for sa, sb in zip(lo, hi):
            assert sa.truth_latent == sb.truth_latent
            np.testing.assert_array_equal(
                sa.phi[sa.truth_latent], sb.phi[sb.truth_latent]
            )
            changed += int(not np.array_equal(sa.phi, sb.phi))
        assert changed > 0

    def test_labels_balanced(self):
        dset, _ = generate(SMALL)
        counts = np.bincount([s.truth_label for s in dset], minlength=3)
        np.testing.assert_array_equal(counts, [4, 4, 4])


# layouts for the pooling check: 1, 4, 9, 16, 25 and 64 boxes at strides
# 1, 2 and 4, a box as large as the grid, 12 classes of dimension 13, and
# noise-free grids without clutter and all clutter
POOLING_LAYOUTS = [
    dict(boxes=1),
    dict(boxes=1, box_cells=8),
    dict(boxes=4, box_cells=4),
    dict(boxes=4, box_cells=6),
    dict(boxes=9, box_cells=4),
    dict(boxes=9, grid=9, box_cells=1),
    dict(boxes=16),
    dict(boxes=16, grid=13, box_cells=1),
    dict(boxes=25, box_cells=4),
    dict(boxes=25, grid=12, box_cells=4),
    dict(boxes=64, box_cells=1),
    dict(num_classes=12, feature_dim=13),
    dict(noise=0.0, clutter=0.0),
    dict(noise=0.0, clutter=1.0),
]


class TestPoolingMatchesReference:
    """generate pools every candidate box through one window view, and
    gives the bits the per-box loop in helpers gives."""

    @pytest.mark.parametrize("layout", POOLING_LAYOUTS,
                             ids=lambda kw: "-".join(f"{k}{v}" for k, v in
                                                     kw.items()))
    def test_bit_equal(self, layout):
        spec = TaskSpec(per_class=3, seed=11, **layout)
        (dset, truth), (ref, ref_truth) = generate(spec), reference_generate(spec)
        assert truth == ref_truth
        for s, r in zip(dset, ref, strict=True):
            assert (s.id, s.truth_label, s.truth_latent) == (
                r.id, r.truth_label, r.truth_latent)
            assert s.psi.tobytes() == r.psi.tobytes()
            assert s.phi.tobytes() == r.phi.tobytes()
            assert s.boxes.tobytes() == r.boxes.tobytes()
            assert not (s.psi.flags.writeable or s.phi.flags.writeable)


# the generate flag sets whose files CI compares with the base commit's
GENERATE_FLAG_SETS = [
    dict(),
    dict(noise=0.0, clutter=0.0),
    dict(boxes=9, box_cells=4),
    dict(boxes=1, box_cells=8),
    dict(num_classes=12, feature_dim=13),
    dict(per_class=225),
]


def owning_array(arr):
    """The array that owns arr's memory, found through its bases."""
    while not (isinstance(arr, np.ndarray) and arr.flags.owndata):
        arr = arr.base
    return arr


class TestPsiWindows:
    """generate stores each sample's psi as a read-only window on one
    buffer: the dense block embedding's bits in a labels-fold smaller
    buffer."""

    @pytest.mark.parametrize("flags", GENERATE_FLAG_SETS,
                             ids=lambda kw: "-".join(f"{k}{v}" for k, v in
                                                     kw.items()) or "default")
    def test_window_is_the_dense_embedding(self, flags):
        spec = TaskSpec(seed=0, **flags)
        dset, _ = generate(spec)
        L, d = spec.num_classes, spec.feature_dim
        for s in dset:
            K = s.num_latents
            dense = np.zeros((L, K, L * d))
            for y in range(L):
                dense[y, :, y * d : (y + 1) * d] = s.phi
            assert s.psi.shape == dense.shape
            assert np.ascontiguousarray(s.psi).tobytes() == dense.tobytes()
            assert not s.psi.flags.writeable
            assert owning_array(s.psi).size == (L - 1) * d + K * L * d


class TestTemplateModel:
    def test_perfect_on_clean_data(self):
        dset, _ = generate(SMALL)
        params = template_model(SMALL)
        assert evaluate(params, dset, ZeroOneLoss()) == 0.0
        assert evaluate(params, dset, OverlapLoss()) == 0.0

    def test_truth_scores_strictly_maximal(self):
        dset, _ = generate(SMALL)
        params = template_model(SMALL)
        for s in dset:
            table = score_table(params.w, s)
            best = table[s.truth_label, s.truth_latent]
            table_flat = table.ravel().copy()
            table_flat[s.truth_label * 16 + s.truth_latent] = -np.inf
            assert best > table_flat.max()


class TestOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_fast_objective(self, seed):
        dset = make_dataset(800 + seed, n=3, num_labels=2, num_latents=4,
                            d_w=4, d_theta=3)
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(4)
        theta = rng.standard_normal(3)
        fast = dissimilarity_objective(w, theta, dset, ZeroOneLoss(), 0.1)
        slow = oracle_objective(w, theta, dset, ZeroOneLoss(), 0.1)
        assert slow == pytest.approx(fast, abs=1e-12)

    def test_zero_on_perfect_agreement(self):
        dset, _ = generate(SMALL)
        params = template_model(SMALL)
        # the conditional is uniform but the loss at the predicted pair is
        # measured against truth; plant theta mass on the truth box instead
        from dissim import Dataset, SampleRecord

        planted = []
        for s in dset:
            phi = np.zeros_like(np.asarray(s.phi))
            phi[s.truth_latent] = 50.0 * np.ones(s.phi.shape[1])
            planted.append(SampleRecord(
                id=s.id, truth_label=s.truth_label,
                boxes=s.boxes, psi=s.psi, phi=phi,
                truth_latent=s.truth_latent,
            ))
        dset2 = Dataset(dset.num_labels, dset.d_w, dset.d_theta,
                        tuple(planted))
        theta = np.ones(dset.d_theta)
        v = oracle_objective(params.w, theta, dset2, ZeroOneLoss(), 0.1)
        assert v == pytest.approx(0.0, abs=1e-9)

    def test_size_limit(self):
        spec = TaskSpec(num_classes=6, per_class=109)
        dset, _ = generate(spec)
        with pytest.raises(InputError):
            oracle_objective(np.zeros(dset.d_w), np.zeros(dset.d_theta),
                             dset, ZeroOneLoss(), 0.1)

    def test_bound_still_dominates_on_synthetic_data(self):
        dset, _ = generate(SMALL)
        rng = np.random.default_rng(9)
        w = rng.standard_normal(dset.d_w)
        theta = rng.standard_normal(dset.d_theta)
        loss = OverlapLoss()
        assert upper_bound(w, theta, dset, loss, 0.1) >= (
            dissimilarity_objective(w, theta, dset, loss, 0.1) - 1e-12
        )
