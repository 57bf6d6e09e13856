"""Data model, scoring, prediction, and latent conditional."""

import dataclasses
import importlib
import inspect
import pkgutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dissim
from dissim import (
    ConfigError,
    Dataset,
    FiniteDistribution,
    InputError,
    ModelParams,
    OverlapLoss,
    SampleRecord,
    TaskSpec,
    ZeroOneLoss,
    generate,
    latent_posterior,
    score_table,
)
from dissim.model import _block_embedding, _frozen_array, _log_sum_exp, predict
from helpers import (
    _reference_log_sum_exp,
    _reference_posterior,
    conditional_distribution,
    joint_conditional,
    log_partition,
    make_dataset,
    make_sample,
    origin_products,
    score,
    stack_case,
)
from helpers import anchor_rows as reference_anchor_rows


def tiny_sample(num_labels=2, num_latents=2, d_w=2, d_theta=2, psi=None, phi=None):
    if psi is None:
        psi = np.arange(num_labels * num_latents * d_w, dtype=float).reshape(
            num_labels, num_latents, d_w
        )
    if phi is None:
        phi = np.zeros((num_latents, d_theta))
    return SampleRecord(
        id="t0",
        truth_label=0,
        psi=np.asarray(psi, dtype=float),
        phi=np.asarray(phi, dtype=float),
    )


class TestValidation:
    def test_mixed_boxes_rejected(self):
        # a box for only one of the two latent values
        with pytest.raises(InputError, match=r"shape \(2, 4\)"):
            SampleRecord(
                id="bad",
                truth_label=0,
                psi=np.zeros((2, 2, 3)),
                phi=np.zeros((2, 2)),
                boxes=[(0, 0, 1, 1)],
            )

    def test_degenerate_box_rejected(self):
        def sample(*boxes):
            return SampleRecord(
                id="b",
                truth_label=0,
                psi=np.zeros((2, len(boxes), 3)),
                phi=np.zeros((len(boxes), 2)),
                boxes=boxes,
            )

        with pytest.raises(InputError, match="at latent 1"):
            sample((0, 0, 1, 1), (1, 1, 1, 2))
        with pytest.raises(InputError):
            sample((0, 2, 1, 1))
        for big in ((0, 0, 2**63, 1), (-(2**63) - 1, 0, 1, 1),
                    (0, 0, 2**64, 1), (0, 0, 10**30, 1),
                    (-(2**63), 0, 2**63 - 1, 1),
                    (0, 0, 2**25, 1), (-(2**25) - 1, 0, 1, 1)):
            with pytest.raises(InputError, match="must lie in"):
                sample(big)
        # the int64 cast would truncate these to (0, 0, 1, 1) and (0, 0, 0, 1)
        for fractional in ((0, 0, 1.5, 1.9), (0, 0, 0.5, 1)):
            with pytest.raises(InputError, match="sample b: box coordinates "
                                                 "must be integers"):
                sample(fractional)
        # areas and unions of these two wrap around in int64
        with pytest.raises(InputError, match="must lie in"):
            sample((0, 0, 3037000500, 3037000500),
                   (1, 0, 3037000501, 3037000500))
        edge = sample((-(2**25), 0, 2**25 - 1, 1))
        assert edge.boxes.dtype == np.int64
        assert edge.boxes.tolist() == [[-(2**25), 0, 2**25 - 1, 1]]
        assert not edge.boxes.flags.writeable

    def test_nonfinite_features_rejected(self):
        psi = np.zeros((2, 2, 3))
        psi[1, 1, 2] = np.nan
        with pytest.raises(InputError):
            SampleRecord(
                id="bad",
                truth_label=0,
                psi=psi,
                phi=np.zeros((2, 2)),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_nonfinite_psi_value_rejected(self, bad):
        phi = np.random.default_rng(3).standard_normal((4, 3))
        window = _block_embedding(phi, 3)
        for where in np.ndindex(window.shape):
            for psi in (np.array(window), np.array(-window)):
                psi[where] = bad
                with pytest.raises(InputError, match="^sample bad: feature "
                                                     "tables must be finite$"):
                    SampleRecord(id="bad", truth_label=0, psi=psi, phi=phi)
        # no value, nothing to reject
        SampleRecord(id="ok", truth_label=0, psi=np.zeros((2, 4, 0)), phi=phi)

    def test_window_record_allocates_no_psi_sized_buffer(self):
        dset, _ = generate(TaskSpec(per_class=1, seed=0))
        sample = dset.samples[0]
        window = sample.psi
        assert not window.flags.c_contiguous

        def build():
            return SampleRecord(id=sample.id, truth_label=sample.truth_label,
                                psi=window, phi=sample.phi)

        build()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            record = build()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert record.psi is window
        assert peak < window.nbytes // 4

    def test_psi_shape_mismatch_rejected(self):
        with pytest.raises((InputError, ConfigError)):
            SampleRecord(
                id="bad",
                truth_label=0,
                psi=np.zeros((2, 3, 3)),
                phi=np.zeros((2, 2)),
            )

    def test_truth_label_out_of_range_rejected(self):
        with pytest.raises(InputError):
            SampleRecord(
                id="bad",
                truth_label=5,
                psi=np.zeros((2, 1, 3)),
                phi=np.zeros((1, 2)),
            )

    def test_dataset_requires_unique_ids(self):
        rng = np.random.default_rng(0)
        a = make_sample(rng, "dup", 2, 2, 3, 2)
        b = make_sample(rng, "dup", 2, 2, 3, 2)
        with pytest.raises(InputError):
            Dataset(2, 3, 2, (a, b))

    def test_dataset_rejects_dimension_disagreement(self):
        rng = np.random.default_rng(0)
        a = make_sample(rng, "a", 2, 2, 3, 2)
        b = make_sample(rng, "b", 2, 2, 4, 2)
        with pytest.raises((InputError, ConfigError)):
            Dataset(2, 3, 2, (a, b))

    def test_dataset_rejects_mixed_geometry(self):
        rng = np.random.default_rng(0)
        a = make_sample(rng, "a", 2, 2, 3, 2, geometric=True)
        b = make_sample(rng, "b", 2, 2, 3, 2, geometric=False)
        with pytest.raises(InputError):
            Dataset(2, 3, 2, (a, b))

    def test_model_params_reject_nonfinite(self):
        with pytest.raises(InputError):
            ModelParams(np.array([1.0, np.inf]), np.zeros(2))

    def test_arrays_are_frozen(self):
        sample = tiny_sample()
        with pytest.raises(ValueError):
            sample.psi[0, 0, 0] = 9.0

    def test_caller_arrays_stay_writeable(self):
        psi, phi = np.zeros((2, 1, 2)), np.zeros((1, 3))
        boxes = np.array([[0, 0, 2, 2]])
        w, theta, probs = np.zeros(2), np.zeros(3), np.array([0.5, 0.5])
        sample = SampleRecord(id="a", truth_label=0, psi=psi, phi=phi,
                              boxes=boxes)
        params = ModelParams(w, theta)
        dist = FiniteDistribution(probs)
        for arr in (psi, phi, boxes, w, theta, probs):
            arr[...] = 7
        for kept in (sample.psi, sample.phi, params.w, params.theta):
            assert not kept.flags.writeable and not kept.any()
        np.testing.assert_array_equal(sample.boxes, [[0, 0, 2, 2]])
        np.testing.assert_array_equal(dist.probs, [0.5, 0.5])

    def test_finite_distribution_must_sum_to_one(self):
        with pytest.raises(InputError):
            FiniteDistribution(np.array([0.5, 0.4]))
        FiniteDistribution(np.array([0.5, 0.5]))


def test_every_record_is_frozen():
    """Every dataclass of the package is frozen: no field of a built
    record can be assigned."""
    found = {}
    for info in pkgutil.iter_modules(dissim.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"dissim.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__:
                found[name] = cls
    assert {"SampleRecord", "Dataset", "ModelParams", "FiniteDistribution",
            "ModelRecord", "WSolverReport", "GradCheckResult",
            "ProtocolResult"} <= found.keys()
    for name, cls in found.items():
        assert cls.__dataclass_params__.frozen, name
        record = object.__new__(cls)  # no need for valid field values
        for field in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, None)
    sample = tiny_sample()
    with pytest.raises(dataclasses.FrozenInstanceError):
        sample.truth_label = 5


class TestFrozenArray:
    def test_keeps_a_read_only_array_with_a_contiguous_inner_axis(self):
        base = np.arange(24.0)
        base.flags.writeable = False
        window = np.lib.stride_tricks.as_strided(
            base[8:], (3, 2, 4), (-32, 64, 8), writeable=False)
        for arr in (base, base.reshape(4, 6)[::2], window):
            assert _frozen_array(arr) is arr

    def test_copies_a_writeable_array(self):
        arr = np.arange(6.0).reshape(2, 3)
        frozen = _frozen_array(arr)
        assert not frozen.flags.writeable
        assert not np.may_share_memory(frozen, arr)
        np.testing.assert_array_equal(frozen, arr)

    def test_copies_a_strided_inner_axis(self):
        arr = np.arange(12.0).reshape(3, 4)[:, ::2]
        arr.flags.writeable = False
        frozen = _frozen_array(arr)
        assert frozen.flags.c_contiguous and not frozen.flags.writeable
        np.testing.assert_array_equal(frozen, arr)

    def test_converts_another_dtype(self):
        arr = np.arange(3, dtype=np.int64)
        arr.flags.writeable = False
        frozen = _frozen_array(arr)
        assert frozen.dtype == np.float64 and not frozen.flags.writeable


class TestScore:
    def test_zero_w_scores_zero(self):
        sample = tiny_sample()
        assert score(np.zeros(2), sample, 1, 1) == 0.0

    def test_self_inner_product(self):
        sample = tiny_sample()
        w = np.asarray(sample.psi[1, 0])
        assert score(w, sample, 1, 0) == pytest.approx(float(w @ w), abs=0)

    def test_hand_value(self):
        psi = np.zeros((1, 1, 2))
        psi[0, 0] = (3.0, -1.0)
        sample = tiny_sample(num_labels=1, num_latents=1, psi=psi,
                             phi=np.zeros((1, 2)))
        assert score(np.array([1.0, 2.0]), sample, 0, 0) == 1.0

    def test_table_matches_entries(self):
        rng = np.random.default_rng(3)
        sample = make_sample(rng, "s", 3, 4, 5, 2)
        w = rng.standard_normal(5)
        table = score_table(w, sample)
        for y in range(3):
            for k in range(4):
                assert table[y, k] == pytest.approx(score(w, sample, y, k), rel=1e-15)

    def test_dimension_mismatch_raises(self):
        sample = tiny_sample()
        with pytest.raises(ConfigError):
            score(np.zeros(3), sample, 0, 0)


class TestPredict:
    def test_zero_w_breaks_ties_low(self):
        sample = tiny_sample()
        assert predict(np.zeros(2), sample) == (0, 0)

    def test_tie_break_prefers_smaller_label(self):
        # scores {(0,0):1, (0,1):4, (1,0):4, (1,1):2} -> (0,1) of the two maxima
        psi = np.array([[[1.0], [4.0]], [[4.0], [2.0]]])
        sample = tiny_sample(d_w=1, psi=psi, phi=np.zeros((2, 2)))
        assert predict(np.array([1.0]), sample) == (0, 1)

    @given(st.floats(min_value=1e-3, max_value=1e3), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_positive_scaling_invariance(self, alpha, seed):
        rng = np.random.default_rng(seed)
        sample = make_sample(rng, "s", 3, 4, 5, 2)
        w = rng.standard_normal(5)
        assert predict(w, sample) == predict(alpha * w, sample)


class TestLatentConditional:
    def test_zero_theta_is_uniform(self):
        sample = tiny_sample(num_latents=4, phi=np.zeros((4, 2)),
                             psi=np.zeros((2, 4, 2)))
        np.testing.assert_allclose(latent_posterior(np.zeros(2), sample),
                                   np.full(4, 0.25))

    def test_log_two_gap(self):
        phi = np.array([[np.log(2.0)], [0.0]])
        sample = tiny_sample(num_latents=2, d_theta=1, phi=phi,
                             psi=np.zeros((2, 2, 2)))
        np.testing.assert_allclose(
            latent_posterior(np.array([1.0]), sample),
            np.array([2.0 / 3.0, 1.0 / 3.0]),
            atol=1e-15,
        )

    @given(st.integers(0, 2**31 - 1),
           st.floats(min_value=-5, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_shift_invariance(self, seed, offset):
        rng = np.random.default_rng(seed)
        sample = make_sample(rng, "s", 2, 4, 3, 3)
        theta = rng.standard_normal(3)
        shifted = SampleRecord(
            id=sample.id,
            truth_label=sample.truth_label,
            psi=sample.psi,
            phi=np.asarray(sample.phi) + offset * np.ones(3),
            truth_latent=sample.truth_latent,
        )
        np.testing.assert_allclose(
            latent_posterior(theta, sample),
            latent_posterior(theta, shifted),
            atol=1e-12,
        )

    def test_extreme_theta_does_not_overflow(self):
        rng = np.random.default_rng(1)
        sample = make_sample(rng, "s", 2, 4, 3, 3)
        probs = latent_posterior(np.full(3, 1e4), sample)
        assert np.all(np.isfinite(probs))
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_log_partition_consistent_with_posterior(self):
        rng = np.random.default_rng(2)
        sample = make_sample(rng, "s", 2, 4, 3, 3)
        theta = rng.standard_normal(3)
        logz = log_partition(theta, sample)
        scores = np.asarray(sample.phi) @ theta
        np.testing.assert_allclose(
            latent_posterior(theta, sample), np.exp(scores - logz), atol=1e-12
        )

    # (phi column, theta): activations phi * theta that tie at the max,
    # overflow, reach +-inf or are NaN.  The product rounds -0.0 to +0.0,
    # so signed zeros are checked on raw activations below.
    EDGE_ACTIVATIONS = [
        ([[1.0], [3.0], [3.0], [-2.0]], 0.7),
        ([[2.0], [2.0], [2.0]], -1.5),
        ([[1.0], [-1.0], [0.0]], 0.0),
        ([[1.0], [-1.0], [0.0]], -0.0),
        ([[-1.0], [1.0], [1.0]], -0.0),
        ([[1.0], [1.0], [-1.0]], 1e308),
        ([[2.0], [1.0], [-2.0]], 1e308),
        ([[1.0], [2.0], [2.0], [-1.0]], np.inf),
        ([[-1.0], [-2.0]], np.inf),
        ([[1.0], [0.0], [-1.0]], np.inf),
        ([[0.0], [1.0], [-1.0]], -np.inf),
        ([[1.0], [-1.0]], np.nan),
        ([[1.0]], np.nan),
        ([[1.0]], -np.inf),
    ]

    @pytest.mark.parametrize("phi,theta", EDGE_ACTIVATIONS)
    def test_bytes_equal_reference_at_edges(self, phi, theta):
        sample = tiny_sample(num_latents=len(phi), d_theta=1, phi=phi,
                             psi=np.zeros((2, len(phi), 2)))
        with np.errstate(all="ignore"):
            got = latent_posterior(np.array([theta]), sample)
            want = _reference_posterior(np.array([theta]), sample)
        # argmax returns the array's own NaN and ndarray.max may return
        # another, so only a NaN's sign bit may differ
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    @pytest.mark.parametrize("activations", [
        [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0, -1.0], [-0.0], [-1.0, -0.0, 0.0],
        [2.5, -0.0, 2.5, 0.0], [-np.inf, 0.0], [-np.inf, -0.0, -np.inf],
    ])
    def test_log_sum_exp_bytes_equal_reference_at_signed_zeros(self, activations):
        activations = np.array(activations)
        got = _log_sum_exp(activations)
        want = _reference_log_sum_exp(activations)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert (np.exp(activations - got).tobytes()
                == np.exp(activations - want).tobytes())

    def test_conditional_distribution_wraps_posterior(self):
        rng = np.random.default_rng(4)
        sample = make_sample(rng, "s", 2, 4, 3, 3)
        theta = rng.standard_normal(3)
        dist = conditional_distribution(theta, sample)
        np.testing.assert_allclose(dist.probs, latent_posterior(theta, sample))


class TestJointConditional:
    def test_off_truth_label_is_zero(self):
        rng = np.random.default_rng(5)
        sample = make_sample(rng, "s", 3, 4, 3, 3)
        theta = rng.standard_normal(3)
        wrong = (sample.truth_label + 1) % 3
        for k in range(4):
            assert joint_conditional(theta, sample, wrong, k) == 0.0

    def test_uniform_case(self):
        sample = tiny_sample(num_latents=5, phi=np.zeros((5, 2)),
                             psi=np.zeros((2, 5, 2)))
        assert joint_conditional(np.zeros(2), sample, 0, 3) == pytest.approx(0.2)

    def test_sums_to_one(self):
        rng = np.random.default_rng(6)
        sample = make_sample(rng, "s", 3, 4, 3, 3)
        theta = rng.standard_normal(3)
        total = sum(
            joint_conditional(theta, sample, y, k)
            for y in range(3)
            for k in range(4)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


def test_dataset_iteration_and_geometry_flag():
    dset = make_dataset(0, n=3, geometric=True)
    assert len(dset) == 3
    assert dset.geometric
    assert [s.id for s in dset] == ["s0", "s1", "s2"]
    assert not make_dataset(0, n=2).geometric


class TestScoreStackCache:
    """``_ScoreStack.scores`` keeps its last product, keyed on the bytes of
    w: a hit is the product a fresh call would make, read-only."""

    @staticmethod
    def fresh(stack, w):
        return (stack._psi_rows @ w).reshape(stack.shape)

    @pytest.mark.parametrize("uniform", [True, False])
    def test_cached_product_is_fresh_and_read_only(self, uniform):
        stack = make_dataset(5, n=6, uniform_shapes=uniform)._score_stack
        w = np.random.default_rng(5).standard_normal(stack.d_w)
        first = stack.scores(w)
        again = stack.scores(w.copy())
        assert again is first
        assert not again.flags.writeable
        assert again.tobytes() == self.fresh(stack, w).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            again[0, 0, 0] = 1.0

    def test_in_place_edit_gets_a_new_product(self):
        stack = make_dataset(6, n=6)._score_stack
        w = np.random.default_rng(6).standard_normal(stack.d_w)
        before = stack.scores(w).copy()
        w[0] += 1.0
        after = stack.scores(w)
        assert after.tobytes() == self.fresh(stack, w).tobytes()
        assert after.tobytes() != before.tobytes()

    def test_signed_zeros_are_separate_entries(self):
        stack = make_dataset(7, n=6)._score_stack
        zero = np.zeros(stack.d_w)
        negative = -zero
        assert zero.tobytes() != negative.tobytes()
        at_zero = stack.scores(zero)
        at_negative = stack.scores(negative)
        assert at_negative is not at_zero
        assert at_negative.tobytes() == self.fresh(stack, negative).tobytes()
        assert stack.scores(zero) is not at_negative

    @pytest.mark.parametrize("uniform", [True, False])
    def test_origin_hit_is_fresh_and_read_only(self, uniform):
        stack = make_dataset(8, n=6, uniform_shapes=uniform)._score_stack
        zero = np.zeros(stack.d_w)
        origin = stack.scores(zero)
        stack.scores(np.random.default_rng(8).standard_normal(stack.d_w))
        assert stack.scores(np.zeros(stack.d_w)) is origin
        assert not origin.flags.writeable
        assert origin.tobytes() == self.fresh(stack, zero).tobytes()

    def test_negative_zero_misses_the_origin(self):
        stack = make_dataset(9, n=6)._score_stack
        zero = np.zeros(stack.d_w)
        origin = stack.scores(zero)
        negative = zero.copy()
        negative[-1] = -0.0
        at_negative = stack.scores(negative)
        assert at_negative is not origin
        assert at_negative.tobytes() == self.fresh(stack, negative).tobytes()
        assert stack.scores(zero) is origin

    def test_origin_lookup_keeps_the_last_product(self):
        stack = make_dataset(10, n=6)._score_stack
        w = np.random.default_rng(10).standard_normal(stack.d_w)
        last = stack.scores(w)
        stack.scores(np.zeros(stack.d_w))
        assert stack.scores(w.copy()) is last

    def test_one_origin_product_per_dataset_over_a_C_grid(self):
        dset, _ = generate(TaskSpec(per_class=3, seed=0))
        at_w, _ = origin_products(dset, (ZeroOneLoss, OverlapLoss),
                                  (1e-4, 1e-2, 1.0))
        assert at_w == 1


class TestScoreStackRows:
    """``_ScoreStack.rows`` and ``anchor_rows`` gather the candidates' psi
    rows as ``scores`` lays them out, into C-contiguous float64 (n, d_w)
    arrays of their own; ``index`` is a read-only ``np.arange(n)``."""

    @staticmethod
    def assert_fresh(rows, stack):
        assert rows.shape == (stack.shape[0], stack.d_w)
        assert rows.dtype == np.float64 and rows.flags.c_contiguous
        assert rows.flags.writeable and rows.flags.owndata
        assert not np.may_share_memory(rows, stack._psi_rows)

    @pytest.mark.parametrize("uniform", [True, False])
    def test_index_is_read_only(self, uniform):
        stack = stack_case(13, uniform)._score_stack
        assert stack.index.tobytes() == np.arange(stack.shape[0]).tobytes()
        assert not stack.index.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stack.index[0] = 1

    @pytest.mark.parametrize("uniform", [True, False])
    def test_rows_are_the_candidates_psi(self, uniform):
        dset = stack_case(11, uniform)
        stack = dset._score_stack
        K = stack.shape[2]
        rng = np.random.default_rng(11)
        for _ in range(5):
            pairs = [(int(rng.integers(dset.num_labels)),
                      int(rng.integers(s.num_latents))) for s in dset]
            flat = np.array([y * K + k for y, k in pairs])
            rows = stack.rows(flat)
            expect = np.array([s.psi[y, k] for s, (y, k) in zip(dset, pairs)])
            assert rows.tobytes() == expect.tobytes()
            self.assert_fresh(rows, stack)

    @pytest.mark.parametrize("uniform", [True, False])
    def test_anchor_rows_are_the_reference(self, uniform):
        dset = stack_case(12, uniform)
        stack = dset._score_stack
        w = np.random.default_rng(12).standard_normal(stack.d_w)
        imputed = stack.impute(stack.scores(w))
        rows = stack.anchor_rows(imputed)
        assert rows.tobytes() == reference_anchor_rows(dset, imputed).tobytes()
        self.assert_fresh(rows, stack)
        rows[:] = np.nan
        again = stack.anchor_rows(imputed)
        assert again.tobytes() == reference_anchor_rows(dset, imputed).tobytes()
