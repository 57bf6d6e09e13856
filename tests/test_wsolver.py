"""Cutting-plane inner solver and the CCCP outer loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dissim import (
    Dataset,
    HyperParams,
    LatentValue,
    SampleRecord,
    SolverError,
    ZeroOneLoss,
    cccp_w,
    expected_loss_table,
    latent_impute,
    latent_posterior,
    loss_augmented_argmax,
    regularized_objective,
    slack,
    solve_inner_convex,
)
import dissim.wsolver as wsolver
from dissim.wsolver import _InnerData, _problem_key
from helpers import make_dataset, make_sample
from test_losses import StubZeroLoss


def convex_objective(dataset, theta, imputed, loss, C, w):
    """Direct evaluation of the convex subproblem at w."""
    total = 0.0
    for s, anchor in zip(dataset, imputed):
        probs = latent_posterior(theta, s)
        table = s.psi.reshape(-1, dataset.d_w) @ w
        aug = expected_loss_table(probs, s, loss).ravel()
        hinge = float((table + aug).max())
        ref = float(table[s.truth_label * s.num_latents + anchor])
        total += hinge - ref
    return 0.5 * float(w @ w) + C * total / len(dataset)


def projected_subgradient_oracle(dataset, theta, imputed, loss, C, steps=8000):
    """Slow reference solver for the convex subproblem.

    Plain subgradient descent with 1/(t) steps on the strongly convex
    objective; returns the best iterate seen.
    """
    d = dataset.d_w
    w = np.zeros(d)
    best_w = w.copy()
    best = convex_objective(dataset, theta, imputed, loss, C, w)
    augs, anchors_rows, psis = [], [], []
    for s, anchor in zip(dataset, imputed):
        probs = latent_posterior(theta, s)
        augs.append(expected_loss_table(probs, s, loss).ravel())
        psis.append(s.psi.reshape(-1, d))
        anchors_rows.append(s.psi[s.truth_label, anchor])
    n = len(dataset)
    for t in range(1, steps + 1):
        g = w.copy()
        for pf, aug, anchor_row in zip(psis, augs, anchors_rows):
            j = int(np.argmax(pf @ w + aug))
            g += C * (pf[j] - anchor_row) / n
        w = w - g / t
        val = convex_objective(dataset, theta, imputed, loss, C, w)
        if val < best:
            best, best_w = val, w.copy()
    return best_w, best


class TestLatentImpute:
    def test_zero_w_ties_low(self):
        rng = np.random.default_rng(0)
        sample = make_sample(rng, "s", 3, 4, 5, 2)
        assert latent_impute(np.zeros(5), sample) == 0

    def test_self_feature_dominates(self):
        rng = np.random.default_rng(1)
        sample = make_sample(rng, "s", 3, 4, 5, 2)
        w = np.asarray(sample.psi[sample.truth_label, 2])
        assert latent_impute(w, sample) == 2

    @given(st.floats(min_value=1e-3, max_value=1e3), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_scaling_invariance(self, alpha, seed):
        rng = np.random.default_rng(seed)
        sample = make_sample(rng, "s", 3, 4, 5, 2)
        w = rng.standard_normal(5)
        assert latent_impute(w, sample) == latent_impute(alpha * w, sample)


class TestLossAugmentedArgmax:
    def test_zero_w_picks_smallest_wrong_label(self):
        rng = np.random.default_rng(2)
        sample = make_sample(rng, "s", 3, 4, 5, 2)
        expect_label = 0 if sample.truth_label != 0 else 1
        got = loss_augmented_argmax(np.zeros(5), np.zeros(2), sample,
                                    ZeroOneLoss())
        assert got == (expect_label, 0)

    def test_zero_loss_reduces_to_score_argmax(self):
        from dissim import predict

        rng = np.random.default_rng(3)
        sample = make_sample(rng, "s", 3, 4, 5, 2)
        w = rng.standard_normal(5)
        assert loss_augmented_argmax(w, np.zeros(2), sample,
                                     StubZeroLoss()) == predict(w, sample)

    def test_dominant_margin_ignores_loss(self):
        rng = np.random.default_rng(4)
        sample = make_sample(rng, "s", 3, 4, 5, 2)
        direction = np.asarray(sample.psi[2, 3])
        w = 10.0 * direction / float(direction @ direction)
        scores = sample.psi.reshape(-1, 5) @ w
        top = np.argsort(scores)[-2:]
        if scores[top[1]] - scores[top[0]] > 1.0:
            assert loss_augmented_argmax(w, np.zeros(2), sample,
                                         ZeroOneLoss()) == (2, 3)


class TestInnerSolver:
    def test_tiny_c_pins_w_near_zero(self):
        dset = make_dataset(5, n=3)
        imputed = [latent_impute(np.zeros(5), s) for s in dset]
        w = solve_inner_convex(dset, np.zeros(3), imputed, ZeroOneLoss(),
                               C=1e-9, inner_tol=1e-6)
        assert float(np.linalg.norm(w)) < 1e-6

    def test_separable_instance_reaches_zero_slack(self):
        # two samples, opposite labels, strongly separated features
        psi = np.zeros((2, 1, 2))
        psi[0, 0] = (1.0, 0.0)
        psi[1, 0] = (-1.0, 0.0)
        a = SampleRecord(id="a", truth_label=0,
                         latent_space=(LatentValue(0),), psi=psi,
                         phi=np.zeros((1, 1)))
        b = SampleRecord(id="b", truth_label=1,
                         latent_space=(LatentValue(0),), psi=-psi,
                         phi=np.zeros((1, 1)))
        dset = Dataset(2, 2, 1, (a, b))
        w = solve_inner_convex(dset, np.zeros(1), [0, 0], StubZeroLoss(),
                               C=100.0, inner_tol=1e-6)
        total = sum(slack(w, np.zeros(1), s, StubZeroLoss()) for s in dset)
        assert total / 2.0 < 1e-6

    @pytest.mark.parametrize("seed, uniform_shapes", [
        pytest.param(0, True, id="0"),
        pytest.param(1, True, id="1"),
        pytest.param(2, True, id="2"),
        pytest.param(0, False, id="ragged"),
    ])
    def test_matches_subgradient_oracle(self, seed, uniform_shapes):
        dset = make_dataset(seed + 100, n=5, num_labels=2, num_latents=3,
                            d_w=4, d_theta=2, uniform_shapes=uniform_shapes)
        assert len({s.num_latents for s in dset}) == (1 if uniform_shapes else 2)
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal(2)
        imputed = [latent_impute(np.zeros(4), s) for s in dset]
        loss = ZeroOneLoss()
        C = 1.0
        w = solve_inner_convex(dset, theta, imputed, loss, C, inner_tol=1e-6)
        ours = convex_objective(dset, theta, imputed, loss, C, w)
        _, ref = projected_subgradient_oracle(dset, theta, imputed, loss, C)
        assert ours <= ref * (1.0 + 1e-3) + 1e-9

    def test_plane_budget_raises_solver_error(self):
        dset = make_dataset(7, n=6, num_labels=3, num_latents=4)
        imputed = [0] * len(dset)
        with pytest.raises(SolverError) as info:
            solve_inner_convex(dset, np.zeros(3), imputed, ZeroOneLoss(),
                               C=100.0, inner_tol=1e-10, plane_budget=2)
        assert info.value.last_iterate is not None


class TestCCCP:
    def test_stub_instance_stops_after_one_round(self):
        dset = make_dataset(8, n=2)
        w0 = np.zeros(5)
        w, report = cccp_w(dset, np.zeros(3), w0, StubZeroLoss(), C=1.0)
        assert report.iterations == 1
        assert report.trace == [report.final_objective]
        np.testing.assert_array_equal(w, w0)

    @pytest.mark.parametrize("seed", range(6))
    def test_trace_non_increasing(self, seed):
        dset = make_dataset(200 + seed, n=4, num_labels=3, num_latents=3)
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal(3)
        inner_tol = 1e-4
        w, report = cccp_w(dset, theta, None, ZeroOneLoss(), C=1.0,
                           inner_tol=inner_tol)
        diffs = np.diff(report.trace)
        assert np.all(diffs <= 1e-9 + inner_tol)

    def test_returned_w_matches_last_trace_entry(self):
        dset = make_dataset(9, n=4)
        rng = np.random.default_rng(9)
        theta = rng.standard_normal(3)
        hyper = HyperParams(C=1.0)
        w, report = cccp_w(dset, theta, None, ZeroOneLoss(), C=hyper.C)
        np.testing.assert_array_equal(w, report.iterates[-1])
        # trace entries are true objective values of their iterates
        loss = ZeroOneLoss()
        for wi, oi in zip(report.iterates, report.trace):
            direct = 0.5 * float(wi @ wi) + hyper.C * np.mean(
                [slack(wi, theta, s, loss) for s in dset]
            )
            assert oi == pytest.approx(direct, abs=1e-10)

    def test_epsilon_scales_with_c(self):
        # a large C * epsilon makes the loop stop at the first round
        dset = make_dataset(10, n=3)
        rng = np.random.default_rng(10)
        theta = rng.standard_normal(3)
        _, eager = cccp_w(dset, theta, None, ZeroOneLoss(), C=1.0,
                          epsilon=1e6)
        assert eager.iterations == 1

    def test_cccp_budget_raises(self):
        dset = make_dataset(11, n=3)
        rng = np.random.default_rng(11)
        theta = rng.standard_normal(3)
        from dissim.wsolver import _cccp_loop
        from dissim.losses import expected_loss_table as elt

        def build(w, imputed):
            return [elt(latent_posterior(theta, s), s, ZeroOneLoss())
                    for s in dset]

        with pytest.raises(SolverError) as info:
            _cccp_loop(dset, build, C=1.0, epsilon=1e-3, inner_tol=1e-4,
                       w_init=None, max_iterations=0)
        assert info.value.last_iterate is not None


class TestInnerData:
    def test_padded_ragged_k_matches_per_sample_evaluation(self):
        dset = make_dataset(7, n=6, num_labels=3, num_latents=5, d_w=4,
                            d_theta=2, uniform_shapes=False)
        assert len({s.num_latents for s in dset}) > 1
        rng = np.random.default_rng(7)
        tables = [rng.random((3, s.num_latents)) for s in dset]
        anchors = [int(rng.integers(s.num_latents)) for s in dset]
        data = _InnerData(dset, tables, anchors)
        C = 2.0
        for _ in range(20):
            w = rng.standard_normal(4)
            direction, offset, slack_total = np.zeros(4), 0.0, 0.0
            for s, table, anchor in zip(dset, tables, anchors):
                flat = s.psi.reshape(-1, 4) @ w
                j = int(np.argmax(flat + table.ravel()))
                anchor_row = s.psi[s.truth_label, anchor]
                direction += anchor_row - s.psi.reshape(-1, 4)[j]
                offset += table.ravel()[j]
                best_truth = flat.reshape(3, -1)[s.truth_label].max()
                slack_total += (flat + table.ravel()).max() - best_truth
            got_direction, got_offset, _ = data.most_violated(w)
            np.testing.assert_allclose(got_direction, direction / len(dset),
                                       rtol=0, atol=1e-12)
            assert got_offset == pytest.approx(offset / len(dset), abs=1e-12)
            expect = 0.5 * float(w @ w) + C * slack_total / len(dset)
            assert data.true_objective(w, C) == pytest.approx(expect, abs=1e-12)


class TestProblemKey:
    def test_keys_on_table_bytes_not_builtin_hash(self, monkeypatch):
        monkeypatch.setattr(wsolver, "hash", lambda _: 0, raising=False)
        a = [np.zeros((2, 3)), np.ones((2, 3))]
        b = [np.zeros((2, 3)), np.full((2, 3), 2.0)]
        assert _problem_key([0, 1], a) != _problem_key([0, 1], b)
        assert _problem_key([0, 1], a) == _problem_key([0, 1], [t.copy() for t in a])
        assert _problem_key([0, 1], a) != _problem_key([1, 0], a)
