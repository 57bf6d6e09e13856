"""Loss functions, diversity and dissimilarity coefficients, bounds."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dissim import (
    ConfigError,
    Dataset,
    FiniteDistribution,
    HyperParams,
    InputError,
    LabelOnlyZeroOneLoss,
    OverlapLoss,
    SampleRecord,
    TaskSpec,
    ZeroOneLoss,
    dissimilarity,
    diversity,
    expected_loss,
    expected_loss_table,
    generate,
    iou_matrix,
    latent_posterior,
    make_loss,
    regularized_objective,
    self_diversity,
    slack,
    upper_bound,
)
from dissim.losses import LOSS_KINDS, _SetView
from helpers import (
    StubZeroLoss,
    brute_distribution,
    dissimilarity_objective,
    make_dataset,
    make_sample,
    origin_products,
    overlap_ratio,
    reference_upper_bound,
    scalar_loss,
    stack_case,
)


def abstract_sample(rng, num_labels=3, num_latents=4, d_w=5, d_theta=3):
    return make_sample(rng, "s", num_labels, num_latents, d_w, d_theta)


class TestZeroOne:
    def test_identity_is_zero(self):
        loss = ZeroOneLoss()
        assert scalar_loss(loss, 1, 2, 1, 2, None) == 0.0

    def test_any_difference_is_one(self):
        loss = ZeroOneLoss()
        assert scalar_loss(loss, 1, 2, 1, 3, None) == 1.0
        assert scalar_loss(loss, 1, 2, 0, 2, None) == 1.0
        assert scalar_loss(loss, 1, 2, 0, 3, None) == 1.0

    def test_label_only_ignores_latents(self):
        loss = LabelOnlyZeroOneLoss()
        assert scalar_loss(loss, 1, 2, 1, 3, None) == 0.0
        assert scalar_loss(loss, 1, 2, 0, 2, None) == 1.0
        assert not loss.latent_dependent

    def test_pair_matrix_structure(self):
        rng = np.random.default_rng(0)
        sample = abstract_sample(rng)
        loss = ZeroOneLoss()
        same = loss.pair_matrix(sample, 1, 1)
        np.testing.assert_array_equal(same, 1.0 - np.eye(4))
        diff = loss.pair_matrix(sample, 1, 2)
        np.testing.assert_array_equal(diff, np.ones((4, 4)))


class TestOverlapRatio:
    def test_identical_boxes(self):
        assert overlap_ratio((0, 0, 3, 3), (0, 0, 3, 3)) == 1.0

    def test_disjoint_boxes(self):
        assert overlap_ratio((0, 0, 2, 2), (5, 5, 7, 7)) == 0.0

    def test_hand_value(self):
        assert overlap_ratio((0, 0, 2, 2), (1, 0, 3, 2)) == pytest.approx(1.0 / 3.0)

    @given(st.tuples(st.integers(0, 5), st.integers(0, 5)),
           st.tuples(st.integers(0, 5), st.integers(0, 5)),
           st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_bounded(self, a0, b0, wa, wb):
        a = (a0[0], a0[1], a0[0] + wa, a0[1] + wa)
        b = (b0[0], b0[1], b0[0] + wb, b0[1] + wb)
        r = overlap_ratio(a, b)
        assert r == overlap_ratio(b, a)
        assert 0.0 <= r <= 1.0

    def test_iou_matrix_matches_pairwise(self):
        rng = np.random.default_rng(1)
        sample = make_sample(rng, "g", 2, 5, 3, 2, geometric=True)
        mat = iou_matrix(sample.boxes)
        boxes = sample.boxes.tolist()
        for i, a in enumerate(boxes):
            for j, b in enumerate(boxes):
                assert mat[i, j] == pytest.approx(overlap_ratio(a, b), abs=1e-15)


class TestOverlapLoss:
    def test_same_label_same_box_is_zero(self):
        rng = np.random.default_rng(2)
        sample = make_sample(rng, "g", 2, 4, 3, 2, geometric=True)
        assert scalar_loss(OverlapLoss(), 1, 2, 1, 2, sample) == 0.0

    def test_different_labels_cost_one(self):
        rng = np.random.default_rng(3)
        sample = make_sample(rng, "g", 2, 4, 3, 2, geometric=True)
        assert scalar_loss(OverlapLoss(), 0, 1, 1, 1, sample) == 1.0

    def test_one_minus_iou(self):
        boxes = [(0, 0, 2, 2), (1, 0, 3, 2)]
        sample = SampleRecord(
            id="g",
            truth_label=0,
            boxes=boxes,
            psi=np.zeros((2, 2, 3)),
            phi=np.zeros((2, 2)),
        )
        assert scalar_loss(OverlapLoss(), 0, 0, 0, 1, sample) == pytest.approx(
            2.0 / 3.0
        )

    def test_abstract_sample_rejected(self):
        rng = np.random.default_rng(4)
        sample = abstract_sample(rng)
        with pytest.raises(ConfigError):
            scalar_loss(OverlapLoss(), 0, 0, 0, 1, sample)

    def test_exact_at_coordinate_bound(self):
        # the widest boxes SampleRecord accepts: areas and unions just
        # below 2**53, so the table's IoU is the scalar one, bit for bit
        lo, hi = -(2**25), 2**25 - 1
        boxes = [(lo, lo, hi, hi), (lo + 1, lo, hi, hi), (lo, lo, lo + 1, lo + 1)]
        sample = SampleRecord(id="g", truth_label=0, boxes=boxes,
                              psi=np.zeros((2, 3, 3)), phi=np.zeros((3, 2)))
        loss = OverlapLoss()
        T = loss.table(sample)
        assert np.all((0.0 <= T) & (T <= 1.0))
        assert 0.0 < T[0, 0, 1] < T[0, 0, 2] < 1.0
        for j in range(3):
            assert T[j, 0, j] == 0.0
            for k in range(3):
                assert T[j, 0, k] == scalar_loss(loss, 0, j, 0, k, sample)


@given(st.integers(0, 2**31 - 1), st.sampled_from(["zero_one", "overlap"]))
@settings(max_examples=40, deadline=None)
def test_loss_axioms(seed, kind):
    rng = np.random.default_rng(seed)
    sample = make_sample(rng, "g", 3, 4, 3, 2, geometric=True)
    loss = make_loss(kind)
    for y1 in range(3):
        assert np.all(np.diag(loss.pair_matrix(sample, y1, y1)) == 0.0)
        for y2 in range(3):
            M = loss.pair_matrix(sample, y1, y2)
            assert M.shape == (4, 4)
            assert np.all((0.0 <= M) & (M <= 1.0))
            np.testing.assert_array_equal(M, loss.pair_matrix(sample, y2, y1).T)


def test_make_loss_kinds():
    assert set(LOSS_KINDS) == {"zero_one", "overlap"}
    assert isinstance(make_loss("zero_one"), ZeroOneLoss)
    assert isinstance(make_loss("overlap"), OverlapLoss)
    with pytest.raises(ConfigError):
        make_loss("hinge")


class TestHyperParams:
    def test_defaults(self):
        h = HyperParams()
        assert (h.C, h.J, h.beta, h.epsilon) == (1.0, 0.1, 0.1, 1e-3)

    def test_validation(self):
        with pytest.raises(ConfigError):
            HyperParams(C=0.0)
        with pytest.raises(ConfigError):
            HyperParams(beta=1.5)
        with pytest.raises(ConfigError):
            HyperParams(epsilon=-1.0)

    @pytest.mark.parametrize("field", ["C", "J", "epsilon"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            HyperParams(**{field: value})


class TestExpectedLoss:
    def test_uniform_truth_row(self):
        rng = np.random.default_rng(5)
        sample = abstract_sample(rng, num_latents=4)
        v = expected_loss(np.zeros(3), sample, sample.truth_label,
                          2, ZeroOneLoss())
        assert v == pytest.approx(1.0 - 1.0 / 4.0, abs=1e-15)

    def test_wrong_label_is_one(self):
        rng = np.random.default_rng(6)
        sample = abstract_sample(rng)
        theta = rng.standard_normal(3)
        wrong = (sample.truth_label + 1) % 3
        for k in range(4):
            assert expected_loss(theta, sample, wrong, k, ZeroOneLoss()) == 1.0

    def test_point_mass_reduces_to_plain_loss(self):
        rng = np.random.default_rng(7)
        sample = make_sample(rng, "g", 3, 4, 3, 2, geometric=True)
        loss = OverlapLoss()
        probs = np.zeros(4)
        probs[2] = 1.0
        table = expected_loss_table(probs, sample, loss)
        for y in range(3):
            for k in range(4):
                expect = scalar_loss(loss, sample.truth_label, 2, y, k, sample)
                assert table[y, k] == pytest.approx(expect, abs=1e-15)

    def test_table_matches_brute_force(self):
        rng = np.random.default_rng(8)
        sample = make_sample(rng, "g", 3, 5, 3, 2, geometric=True)
        loss = OverlapLoss()
        probs = brute_distribution(rng, 5)
        table = expected_loss_table(probs, sample, loss)
        for y in range(3):
            for k in range(5):
                brute = sum(
                    probs[ki] * scalar_loss(loss, sample.truth_label, ki, y, k, sample)
                    for ki in range(5)
                )
                assert table[y, k] == pytest.approx(brute, abs=1e-12)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(9)
        sample = abstract_sample(rng)
        theta = 3.0 * rng.standard_normal(3)
        table = expected_loss_table(latent_posterior(theta, sample), sample,
                                    ZeroOneLoss())
        assert np.all(table >= 0.0) and np.all(table <= 1.0)


class TestDiversity:
    def test_same_delta_is_zero(self):
        p = FiniteDistribution.point_mass(4, 1)
        assert diversity(p, p, 1.0 - np.eye(4)) == 0.0

    def test_distinct_deltas_cost_one(self):
        p = FiniteDistribution.point_mass(4, 1)
        q = FiniteDistribution.point_mass(4, 3)
        assert diversity(p, q, 1.0 - np.eye(4)) == 1.0

    def test_uniform_pair(self):
        u = FiniteDistribution.uniform(4)
        assert diversity(u, u, 1.0 - np.eye(4)) == pytest.approx(0.75)

    def test_callable_matches_matrix(self):
        rng = np.random.default_rng(10)
        p = FiniteDistribution(brute_distribution(rng, 3))
        q = FiniteDistribution(brute_distribution(rng, 3))
        mat = rng.random((3, 3))
        mat = (mat + mat.T) / 2.0
        np.fill_diagonal(mat, 0.0)
        pair = lambda i, j: mat[i, j]
        built = np.array([[pair(i, j) for j in range(3)] for i in range(3)])
        assert diversity(p, q, mat) == pytest.approx(
            diversity(p, q, built), abs=1e-12
        )

    def test_size_mismatch_rejected(self):
        p = FiniteDistribution.uniform(3)
        q = FiniteDistribution.uniform(4)
        with pytest.raises(InputError):
            diversity(p, q, np.zeros((3, 3)))


class TestDissimilarity:
    @given(st.integers(0, 2**31 - 1), st.sampled_from([0.1, 0.5, 0.9]),
           st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_self_dissimilarity_vanishes(self, seed, beta, k):
        rng = np.random.default_rng(seed)
        p = FiniteDistribution(brute_distribution(rng, k))
        mat = rng.random((k, k))
        mat = (mat + mat.T) / 2.0
        np.fill_diagonal(mat, 0.0)
        assert abs(dissimilarity(p, p, mat, beta)) < 1e-12

    def test_distinct_deltas(self):
        p = FiniteDistribution.point_mass(3, 0)
        q = FiniteDistribution.point_mass(3, 2)
        assert dissimilarity(p, q, 1.0 - np.eye(3), 0.3) == 1.0

    def test_delta_versus_uniform_hand_value(self):
        p = FiniteDistribution.point_mass(2, 0)
        q = FiniteDistribution.uniform(2)
        v = dissimilarity(p, q, 1.0 - np.eye(2), 0.1)
        assert v == pytest.approx(0.05, abs=1e-15)


class TestSelfDiversity:
    def test_label_only_loss_gives_exact_zero(self):
        rng = np.random.default_rng(11)
        sample = abstract_sample(rng)
        theta = rng.standard_normal(3)
        assert self_diversity(theta, sample, LabelOnlyZeroOneLoss()) == 0.0

    def test_uniform_zero_one(self):
        rng = np.random.default_rng(12)
        sample = abstract_sample(rng, num_latents=4)
        assert self_diversity(np.zeros(3), sample, ZeroOneLoss()) == pytest.approx(
            0.75, abs=1e-15
        )

    def test_concentrated_theta_vanishes(self):
        phi = np.zeros((3, 1))
        phi[0, 0] = 60.0
        sample = SampleRecord(
            id="s",
            truth_label=0,
            psi=np.zeros((2, 3, 2)),
            phi=phi,
        )
        v = self_diversity(np.array([1.0]), sample, ZeroOneLoss())
        assert v == pytest.approx(0.0, abs=1e-12)


class TestSlack:
    def test_zero_loss_is_score_gap(self):
        rng = np.random.default_rng(13)
        sample = abstract_sample(rng)
        w = rng.standard_normal(5)
        theta = rng.standard_normal(3)
        v = slack(w, theta, sample, StubZeroLoss())
        table = sample.psi.reshape(-1, 5) @ w
        gap = table.max() - table.reshape(3, 4)[sample.truth_label].max()
        assert v == pytest.approx(gap, abs=1e-12)
        assert v >= 0.0

    def test_zero_w_is_max_expected_loss(self):
        rng = np.random.default_rng(14)
        sample = abstract_sample(rng)
        theta = rng.standard_normal(3)
        loss = ZeroOneLoss()
        table = expected_loss_table(latent_posterior(theta, sample), sample, loss)
        assert slack(np.zeros(5), theta, sample, loss) == pytest.approx(
            float(table.max()), abs=1e-12
        )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_dominates_expected_loss_at_prediction(self, seed):
        from dissim import predict

        rng = np.random.default_rng(seed)
        sample = abstract_sample(rng)
        w = rng.standard_normal(5)
        theta = rng.standard_normal(3)
        loss = ZeroOneLoss()
        y, k = predict(w, sample)
        assert slack(w, theta, sample, loss) >= expected_loss(
            theta, sample, y, k, loss
        ) - 1e-12


class TestObjectives:
    def test_perfect_agreement_is_zero(self):
        # w predicts (truth, k*) and P_theta is a near-delta at k*
        phi = np.zeros((3, 1))
        phi[1, 0] = 60.0
        psi = np.zeros((2, 3, 2))
        psi[0, 1] = (1.0, 0.0)
        sample = SampleRecord(
            id="s",
            truth_label=0,
            psi=psi,
            phi=phi,
        )
        from dissim import Dataset

        dset = Dataset(2, 2, 1, (sample,))
        v = dissimilarity_objective(np.array([1.0, 0.0]), np.array([1.0]),
                                    dset, ZeroOneLoss(), beta=0.1)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_stub_loss_objective_zero(self):
        dset = make_dataset(15, n=1)
        rng = np.random.default_rng(15)
        w = rng.standard_normal(5)
        theta = rng.standard_normal(3)
        assert dissimilarity_objective(w, theta, dset, StubZeroLoss(), 0.1) == 0.0

    def test_brute_force_triple_loop(self):
        rng = np.random.default_rng(16)
        dset = make_dataset(16, n=3, num_labels=2, num_latents=3)
        w = rng.standard_normal(5)
        theta = rng.standard_normal(3)
        loss = ZeroOneLoss()
        beta = 0.1
        total = 0.0
        for s in dset:
            probs = latent_posterior(theta, s)
            table = s.psi.reshape(-1, 5) @ w
            best, arg = -np.inf, None
            for y in range(2):
                for k in range(3):
                    v = table[y * 3 + k]
                    if v > best:
                        best, arg = v, (y, k)
            h_pq = sum(
                probs[ki] * scalar_loss(loss, s.truth_label, ki, arg[0], arg[1], s)
                for ki in range(3)
            )
            h_qq = sum(
                probs[a] * probs[b]
                * scalar_loss(loss, s.truth_label, a, s.truth_label, b, s)
                for a in range(3)
                for b in range(3)
            )
            total += h_pq - beta * h_qq
        expect = total / len(dset)
        assert dissimilarity_objective(w, theta, dset, loss, beta) == pytest.approx(
            expect, abs=1e-12
        )

    def test_linear_in_beta(self):
        rng = np.random.default_rng(17)
        dset = make_dataset(17, n=3)
        w = rng.standard_normal(5)
        theta = rng.standard_normal(3)
        loss = ZeroOneLoss()
        d_lo = dissimilarity_objective(w, theta, dset, loss, 0.1)
        d_hi = dissimilarity_objective(w, theta, dset, loss, 0.9)
        mean_h = np.mean([self_diversity(theta, s, loss) for s in dset])
        slope = (d_hi - d_lo) / 0.8
        assert slope == pytest.approx(-mean_h, abs=1e-12)
        d_mid = dissimilarity_objective(w, theta, dset, loss, 0.5)
        assert d_mid == pytest.approx((d_lo + d_hi) / 2.0, abs=1e-12)


class TestUpperBound:
    def test_hand_enumeration_two_by_two(self):
        sample = SampleRecord(
            id="s",
            truth_label=0,
            psi=np.zeros((2, 2, 3)),
            phi=np.zeros((2, 2)),
        )
        from dissim import Dataset

        dset = Dataset(2, 3, 2, (sample,))
        v = upper_bound(np.zeros(3), np.zeros(2), dset, ZeroOneLoss(), beta=0.1)
        assert v == pytest.approx(0.95, abs=1e-15)

    def test_zero_loss_reduces_to_mean_slack(self):
        rng = np.random.default_rng(18)
        dset = make_dataset(18, n=4)
        w = rng.standard_normal(5)
        theta = rng.standard_normal(3)
        loss = StubZeroLoss()
        expect = np.mean([slack(w, theta, s, loss) for s in dset])
        v = upper_bound(w, theta, dset, loss, beta=0.3)
        assert v == pytest.approx(expect, abs=1e-12)
        assert v >= 0.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_dominates_objective(self, seed):
        rng = np.random.default_rng(seed)
        dset = make_dataset(seed % 1000, n=3, num_labels=2, num_latents=3)
        w = rng.standard_normal(5)
        theta = rng.standard_normal(3)
        loss = ZeroOneLoss()
        u = upper_bound(w, theta, dset, loss, 0.1)
        d = dissimilarity_objective(w, theta, dset, loss, 0.1)
        assert u >= d - 1e-12


class TestRegularizedObjective:
    def test_at_origin_equals_scaled_bound(self):
        dset = make_dataset(19, n=3)
        hyper = HyperParams(C=2.5)
        v = regularized_objective(np.zeros(5), np.zeros(3), dset,
                                  ZeroOneLoss(), hyper)
        u = upper_bound(np.zeros(5), np.zeros(3), dset, ZeroOneLoss(), hyper.beta)
        assert v == pytest.approx(2.5 * u, abs=1e-12)

    def test_quadratic_growth_in_w(self):
        # equal features for both labels freeze the slack at zero
        psi = np.zeros((2, 1, 3))
        psi[0, 0] = psi[1, 0] = (1.0, 2.0, 3.0)
        sample = SampleRecord(
            id="s",
            truth_label=0,
            psi=psi,
            phi=np.zeros((1, 2)),
        )
        from dissim import Dataset

        dset = Dataset(2, 3, 2, (sample,))
        hyper = HyperParams()
        loss = StubZeroLoss()
        w = np.array([2.0, 0.0, 0.0])
        base = regularized_objective(np.zeros(3), np.zeros(2), dset, loss, hyper)
        grown = regularized_objective(w, np.zeros(2), dset, loss, hyper)
        assert grown - base == pytest.approx(0.5 * float(w @ w), abs=1e-12)

    def test_one_line_reevaluation(self):
        rng = np.random.default_rng(20)
        dset = make_dataset(20, n=3)
        w = rng.standard_normal(5)
        theta = rng.standard_normal(3)
        hyper = HyperParams(C=0.7, J=0.3, beta=0.2)
        loss = ZeroOneLoss()
        expect = (
            0.5 * float(w @ w)
            + 0.5 * hyper.J * float(theta @ theta)
            + hyper.C * upper_bound(w, theta, dset, loss, hyper.beta)
        )
        assert regularized_objective(w, theta, dset, loss, hyper) == pytest.approx(
            expect, abs=1e-12
        )


def per_label_expected_loss_table(probs, sample, loss):
    """The expected-loss table as one pair_matrix product per label: the
    reference the cached loss table must reproduce bit for bit."""
    num_labels, K = sample.psi.shape[0], sample.num_latents
    truth = sample.truth_label
    table = np.empty((num_labels, K))
    if not loss.latent_dependent:
        for y in range(num_labels):
            table[y, :] = scalar_loss(loss, truth, 0, y, 0, sample)
        return table
    for y in range(num_labels):
        table[y, :] = probs @ loss.pair_matrix(sample, truth, y)
    return table


def table_cases():
    """(loss, sample) pairs over every loss on abstract, geometric and
    ragged-K samples (K from 1 to 9, so not only multiples of 4)."""
    rng = np.random.default_rng(21)
    cases = []
    for K in range(1, 10):
        for geometric in (False, True):
            sample = make_sample(rng, f"s{K}", 3, K, 4, 2, geometric=geometric)
            losses = [ZeroOneLoss(), LabelOnlyZeroOneLoss(), StubZeroLoss()]
            if geometric:
                losses.append(OverlapLoss())
            cases.extend((loss, sample) for loss in losses)
    return cases


class TestLossTable:
    def test_matches_scalar_loss_everywhere(self):
        for loss, sample in table_cases():
            T = loss.table(sample)
            K, L = sample.num_latents, sample.psi.shape[0]
            assert T.shape == (K, L, K)
            for j in range(K):
                for y in range(L):
                    for k in range(K):
                        assert T[j, y, k] == scalar_loss(
                            loss, sample.truth_label, j, y, k, sample
                        )

    def test_expected_loss_table_matches_per_label_products_exactly(self):
        rng = np.random.default_rng(22)
        for loss, sample in table_cases():
            for _ in range(20):
                probs = brute_distribution(rng, sample.num_latents)
                np.testing.assert_array_equal(
                    expected_loss_table(probs, sample, loss),
                    per_label_expected_loss_table(probs, sample, loss),
                )

    def test_self_diversity_matches_pair_matrix_exactly(self):
        rng = np.random.default_rng(23)
        for loss, sample in table_cases():
            theta = rng.standard_normal(2)
            probs = latent_posterior(theta, sample)
            M = loss.pair_matrix(sample, sample.truth_label, sample.truth_label)
            expect = float(probs @ M @ probs) if loss.latent_dependent else 0.0
            assert self_diversity(theta, sample, loss) == expect

    def test_read_only(self):
        rng = np.random.default_rng(24)
        sample = abstract_sample(rng)
        T = ZeroOneLoss().table(sample)
        with pytest.raises(ValueError):
            T[0, 0, 0] = 5.0

    def test_built_once_per_sample_and_loss_instance(self):
        rng = np.random.default_rng(25)
        sample = abstract_sample(rng)
        a, b = ZeroOneLoss(), ZeroOneLoss()
        assert a.table(sample) is a.table(sample)
        assert b.table(sample) is not a.table(sample)
        other = abstract_sample(rng)
        assert a.table(other) is not a.table(sample)
        assert a.view(sample) is a.view(sample)
        assert b.view(sample) is not a.view(sample)
        assert a.view(other) is not a.view(sample)
        assert a.table(sample) is a.view(sample).table

    def test_freed_with_its_sample(self):
        import gc
        import weakref

        rng = np.random.default_rng(26)
        sample = make_sample(rng, "g", 3, 4, 3, 2, geometric=True)
        loss = OverlapLoss()
        table = weakref.ref(loss.table(sample))
        by_label = weakref.ref(loss.view(sample).by_label)
        assert table() is not None and by_label() is not None
        del sample
        gc.collect()
        assert table() is None and by_label() is None

    def test_overlap_table_rejects_abstract_sample(self):
        rng = np.random.default_rng(27)
        with pytest.raises(ConfigError):
            OverlapLoss().table(abstract_sample(rng))


STACK_LOSSES = [ZeroOneLoss, OverlapLoss, LabelOnlyZeroOneLoss]


class TestStack:
    """``LossFunction.stack``: the batched terms equal the per-sample loops
    bit for bit, and the stack lives and dies with its dataset."""

    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("loss_cls", STACK_LOSSES)
    @pytest.mark.parametrize("seed", range(4))
    def test_upper_bound_bytes_equal_reference(self, uniform, loss_cls, seed):
        dset = stack_case(seed, uniform)
        loss = loss_cls()
        rng = np.random.default_rng(seed)
        for scale in (0.1, 1.0, 10.0):
            w = scale * rng.standard_normal(dset.d_w)
            theta = scale * rng.standard_normal(dset.d_theta)
            for beta in (0.1, 0.7):
                got = upper_bound(w, theta, dset, loss, beta)
                want = reference_upper_bound(w, theta, dset, loss, beta)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("uniform", [True, False])
    def test_posteriors_bytes_equal_reference(self, uniform):
        # np.log and math.log disagree on about 6 in 10,000 values here,
        # so thousands of rows are needed to catch a vectorized log
        dset = make_dataset(9, n=300, num_labels=2, num_latents=16, d_w=2,
                            d_theta=6, uniform_shapes=uniform)
        stack = ZeroOneLoss().stack(dset)
        positions = np.arange(len(dset))
        rng = np.random.default_rng(9)
        for scale in (0.1, 0.3, 1.0, 3.0, 10.0) * 12:
            theta = scale * rng.standard_normal(dset.d_theta)
            blocks = stack.posteriors(theta)
            for (_, rows), block in zip(stack.scoring.groups, blocks):
                for i, row in zip(positions[rows], block):
                    want = latent_posterior(theta, dset.samples[i])
                    assert row.tobytes() == want.tobytes()

    def test_ragged_case_is_ragged(self):
        assert len({s.num_latents for s in stack_case(0, False)}) > 2

    def test_built_once_per_dataset(self):
        dset = stack_case(0, True)
        loss = ZeroOneLoss()
        stack = loss.stack(dset)
        assert loss.stack(dset) is stack
        assert loss.stack(stack_case(0, True)) is not stack
        other = OverlapLoss().stack(dset)
        assert other is not stack
        assert other.scoring is stack.scoring  # psi is stacked once per set

    def test_freed_with_its_dataset(self):
        dset = stack_case(1, False)
        loss = OverlapLoss()
        stack = weakref.ref(loss.stack(dset))
        scoring = weakref.ref(stack().scoring)
        upper_bound(np.ones(dset.d_w), np.ones(dset.d_theta), dset, loss, 0.5)
        assert stack() is not None and scoring() is not None
        del dset
        gc.collect()
        assert stack() is None and scoring() is None
        assert len(loss._stacks) == 0

    def test_new_dataset_over_same_samples(self):
        """A set of the same samples, reordered or cut, is a new dataset
        with its own stack; the per-sample views are shared."""
        dset = stack_case(2, False)
        loss = ZeroOneLoss()
        rng = np.random.default_rng(2)
        w, theta = rng.standard_normal(dset.d_w), rng.standard_normal(dset.d_theta)
        first = loss.stack(dset)
        for samples in (tuple(reversed(dset.samples)), dset.samples[:3]):
            other = Dataset(dset.num_labels, dset.d_w, dset.d_theta, samples)
            stack = loss.stack(other)
            assert stack is not first and stack.scoring is not first.scoring
            assert stack.views == [loss.view(s) for s in samples]
            assert upper_bound(w, theta, other, loss, 0.3) == reference_upper_bound(
                w, theta, other, loss, 0.3)
        assert loss.stack(dset) is first

    def test_built_records_cannot_go_stale(self):
        """After a stack is built, neither the set nor a sample's features
        can change under it."""
        dset = stack_case(3, False)
        loss = OverlapLoss()
        w, theta = np.ones(dset.d_w), np.ones(dset.d_theta)
        before = upper_bound(w, theta, dset, loss, 0.3)
        sample = dset.samples[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            sample.phi = np.zeros_like(sample.phi)
        with pytest.raises(dataclasses.FrozenInstanceError):
            dset.samples = dset.samples[:3]
        assert upper_bound(w, theta, dset, loss, 0.3) == before

    @pytest.mark.parametrize("uniform", [True, False])
    def test_wrong_shapes_raise_config_error(self, uniform):
        dset = stack_case(3, uniform)
        loss = OverlapLoss()
        w, theta = np.zeros(dset.d_w), np.zeros(dset.d_theta)
        with pytest.raises(ConfigError, match="w has shape"):
            upper_bound(np.zeros(dset.d_w + 1), theta, dset, loss, 0.5)
        with pytest.raises(ConfigError, match="theta has shape"):
            upper_bound(w, np.zeros((1, dset.d_theta)), dset, loss, 0.5)
        with pytest.raises(ConfigError, match="w has shape"):
            regularized_objective(np.zeros(2), theta, dset, loss, HyperParams())


class TestSetViewCache:
    """``_SetView.posteriors`` keeps its last result, keyed on the bytes of
    theta, and ``expected_losses`` the tables of that result, keyed on the
    tuple itself; a hit has the bytes a fresh view would compute and is
    read-only.  The ragged sets have more than one K group."""

    LOSSES = [ZeroOneLoss, OverlapLoss, LabelOnlyZeroOneLoss]

    @pytest.mark.parametrize("uniform", [True, False])
    def test_posteriors_tuple_cached_read_only(self, uniform):
        dset = stack_case(4, uniform)
        stack = ZeroOneLoss().stack(dset)
        theta = np.random.default_rng(4).standard_normal(dset.d_theta)
        probs = stack.posteriors(theta)
        assert type(probs) is tuple and len(probs) == len(stack.blocks)
        assert stack.posteriors(theta.copy()) is probs
        fresh = _SetView(dset, ZeroOneLoss()).posteriors(theta)
        for got, want in zip(probs, fresh):
            assert not got.flags.writeable
            assert got.tobytes() == want.tobytes()

    def test_posteriors_follow_in_place_edits_and_signed_zeros(self):
        dset = stack_case(5, False)
        stack = ZeroOneLoss().stack(dset)
        theta = np.random.default_rng(5).standard_normal(dset.d_theta)
        before = [p.copy() for p in stack.posteriors(theta)]
        theta[0] += 1.0
        after = stack.posteriors(theta)
        fresh = _SetView(dset, ZeroOneLoss()).posteriors(theta)
        assert [p.tobytes() for p in after] == [p.tobytes() for p in fresh]
        assert [p.tobytes() for p in after] != [p.tobytes() for p in before]
        zero = np.zeros(dset.d_theta)
        at_zero = stack.posteriors(zero)
        assert stack.posteriors(-zero) is not at_zero
        assert stack.posteriors(zero) is at_zero

    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("loss_cls", LOSSES)
    def test_expected_losses_cached_read_only(self, uniform, loss_cls):
        dset = stack_case(6, uniform)
        assert (len(dset._score_stack.groups) > 1) is not uniform
        stack = loss_cls().stack(dset)
        fresh = _SetView(dset, loss_cls())
        rng = np.random.default_rng(6)
        for _ in range(2):
            theta = rng.standard_normal(dset.d_theta)
            probs = stack.posteriors(theta)
            tables = stack.expected_losses(probs)
            assert stack.expected_losses(probs) is tables
            assert not tables.flags.writeable
            want = fresh.expected_losses(fresh.posteriors(theta))
            assert tables.tobytes() == want.tobytes()
        # tables of any other probabilities are computed, not looked up
        stale = stack.posteriors(np.zeros(dset.d_theta))
        stack.posteriors(np.ones(dset.d_theta))
        want = fresh.expected_losses(fresh.posteriors(np.zeros(dset.d_theta)))
        assert stack.expected_losses(stale).tobytes() == want.tobytes()
        copies = [p.copy() for p in stale]
        listed = stack.expected_losses(copies)
        assert listed.tobytes() == want.tobytes()
        assert stack.expected_losses(copies) is not listed

    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("loss_cls", LOSSES)
    def test_origin_hit_is_fresh_and_read_only(self, uniform, loss_cls):
        dset = stack_case(7, uniform)
        stack = loss_cls().stack(dset)
        zero = np.zeros(dset.d_theta)
        probs = stack.posteriors(zero)
        tables = stack.expected_losses(probs)
        other = stack.posteriors(np.random.default_rng(7).standard_normal(dset.d_theta))
        stack.expected_losses(other)
        assert stack.posteriors(np.zeros(dset.d_theta)) is probs
        assert stack.expected_losses(probs) is tables
        fresh = _SetView(dset, loss_cls())
        want = fresh.posteriors(zero)
        for got, p in zip(probs, want):
            assert not got.flags.writeable
            assert got.tobytes() == p.tobytes()
        assert not tables.flags.writeable
        assert tables.tobytes() == fresh.expected_losses(want).tobytes()

    def test_negative_zero_misses_the_origin(self):
        dset = stack_case(8, False)
        stack = ZeroOneLoss().stack(dset)
        zero = np.zeros(dset.d_theta)
        origin = stack.posteriors(zero)
        negative = zero.copy()
        negative[-1] = -0.0
        at_negative = stack.posteriors(negative)
        assert at_negative is not origin
        fresh = _SetView(dset, ZeroOneLoss()).posteriors(negative)
        assert [p.tobytes() for p in at_negative] == [p.tobytes() for p in fresh]
        assert stack.posteriors(zero) is origin

    def test_origin_lookup_keeps_the_last_result(self):
        dset = stack_case(9, False)
        stack = OverlapLoss().stack(dset)
        theta = np.random.default_rng(9).standard_normal(dset.d_theta)
        probs = stack.posteriors(theta)
        tables = stack.expected_losses(probs)
        stack.expected_losses(stack.posteriors(np.zeros(dset.d_theta)))
        assert stack.posteriors(theta.copy()) is probs
        assert stack.expected_losses(probs) is tables

    def test_one_origin_posterior_per_set_and_loss_over_a_C_grid(self):
        dset, _ = generate(TaskSpec(per_class=3, seed=0))
        _, at_theta = origin_products(dset, (ZeroOneLoss, OverlapLoss),
                                      (1e-4, 1e-2, 1.0))
        assert at_theta == {ZeroOneLoss: 1, OverlapLoss: 1}
