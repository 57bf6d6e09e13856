"""Analytic theta gradients and the stochastic subgradient solver."""

import ctypes
import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from dissim import (
    ConfigError,
    Dataset,
    HyperParams,
    LabelOnlyZeroOneLoss,
    OverlapLoss,
    SampleRecord,
    SSDConfig,
    TaskSpec,
    ZeroOneLoss,
    expected_loss,
    generate,
    grad_expected_loss,
    grad_self_diversity,
    grad_slack,
    load_dataset,
    make_loss,
    save_dataset,
    self_diversity,
    slack,
    ssd_theta,
    upper_bound,
)
import dissim.thetasolver as thetasolver
from dissim.thetasolver import theta_objective
from helpers import (
    StubZeroLoss,
    make_dataset,
    make_sample,
    reference_score_tables,
    reference_ssd_theta,
    src_env,
    stack_case,
)


def central_diff(f, theta, step=1e-5):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        hi = theta.copy()
        lo = theta.copy()
        hi[i] += step
        lo[i] -= step
        g[i] = (f(hi) - f(lo)) / (2.0 * step)
    return g


def rel_error(a, b):
    scale = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-3)
    return float(np.linalg.norm(a - b)) / scale


class TestGradExpectedLoss:
    def test_wrong_label_row_is_constant(self):
        rng = np.random.default_rng(0)
        sample = make_sample(rng, "s", 3, 4, 5, 3)
        theta = rng.standard_normal(3)
        wrong = (sample.truth_label + 1) % 3
        g = grad_expected_loss(theta, sample, wrong, 2, ZeroOneLoss())
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_single_latent_is_frozen(self):
        rng = np.random.default_rng(1)
        sample = make_sample(rng, "s", 2, 1, 4, 3)
        theta = rng.standard_normal(3)
        g = grad_expected_loss(theta, sample, sample.truth_label, 0,
                               ZeroOneLoss())
        np.testing.assert_array_equal(g, np.zeros(3))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        sample = make_sample(rng, "s", 3, 4, 5, 3)
        theta = rng.standard_normal(3)
        loss = ZeroOneLoss()
        y = int(rng.integers(0, 3))
        k = int(rng.integers(0, 4))
        analytic = grad_expected_loss(theta, sample, y, k, loss)
        numeric = central_diff(
            lambda t: expected_loss(t, sample, y, k, loss), theta
        )
        assert rel_error(analytic, numeric) < 1e-6


class TestGradSelfDiversity:
    def test_latent_independent_loss_vanishes(self):
        rng = np.random.default_rng(2)
        sample = make_sample(rng, "s", 3, 4, 5, 3)
        theta = rng.standard_normal(3)
        g = grad_self_diversity(theta, sample, LabelOnlyZeroOneLoss())
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_uniform_is_critical_for_symmetric_loss(self):
        # at theta = 0 every latent plays the same role under the 0/1 loss,
        # so the uniform point is a stationary point of the self diversity
        rng = np.random.default_rng(3)
        sample = make_sample(rng, "s", 2, 4, 3, 3)
        g = grad_self_diversity(np.zeros(3), sample, ZeroOneLoss())
        np.testing.assert_allclose(g, np.zeros(3), atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed + 50)
        sample = make_sample(rng, "g", 3, 4, 5, 3, geometric=True)
        theta = rng.standard_normal(3)
        from dissim import OverlapLoss

        loss = OverlapLoss() if seed % 2 else ZeroOneLoss()
        analytic = grad_self_diversity(theta, sample, loss)
        numeric = central_diff(lambda t: self_diversity(t, sample, loss), theta)
        assert rel_error(analytic, numeric) < 1e-6


class TestGradSlack:
    def test_zero_loss_gives_zero_vector(self):
        rng = np.random.default_rng(4)
        sample = make_sample(rng, "s", 3, 4, 5, 3)
        w = rng.standard_normal(5)
        theta = rng.standard_normal(3)
        g = grad_slack(w, theta, sample, StubZeroLoss())
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_dominant_w_uses_score_argmax_pair(self):
        rng = np.random.default_rng(5)
        sample = make_sample(rng, "s", 3, 4, 5, 3)
        theta = rng.standard_normal(3)
        direction = np.asarray(sample.psi[1, 2])
        w = 10.0 * direction / float(direction @ direction)
        scores = sample.psi.reshape(-1, 5) @ w
        order = np.sort(scores)
        if order[-1] - order[-2] > 1.0:
            expect = grad_expected_loss(theta, sample, 1, 2, ZeroOneLoss())
            got = grad_slack(w, theta, sample, ZeroOneLoss())
            np.testing.assert_array_equal(got, expect)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_finite_differences_away_from_ties(self, seed):
        from dissim import expected_loss_table, latent_posterior, score_table

        rng = np.random.default_rng(seed + 80)
        sample = make_sample(rng, "s", 3, 4, 5, 3)
        loss = ZeroOneLoss()
        w = rng.standard_normal(5)
        theta = rng.standard_normal(3)
        table = score_table(w, sample) + expected_loss_table(
            latent_posterior(theta, sample), sample, loss
        )
        flat = np.sort(table.ravel())
        if flat[-1] - flat[-2] < 1e-3:
            pytest.skip("argmax tie at this draw")
        analytic = grad_slack(w, theta, sample, loss)
        numeric = central_diff(lambda t: slack(w, t, sample, loss), theta)
        assert rel_error(analytic, numeric) < 1e-6


class TestThetaObjective:
    def test_matches_definition(self):
        rng = np.random.default_rng(6)
        dset = make_dataset(6, n=3)
        w = rng.standard_normal(5)
        theta = rng.standard_normal(3)
        hyper = HyperParams(C=2.0, J=0.4)
        expect = 0.5 * hyper.J * float(theta @ theta) + hyper.C * upper_bound(
            w, theta, dset, ZeroOneLoss(), hyper.beta
        )
        assert theta_objective(w, theta, dset, ZeroOneLoss(), hyper) == (
            pytest.approx(expect, abs=1e-12)
        )


class TestSSD:
    def fixed_instance(self):
        return make_dataset(77, n=5, num_labels=2, num_latents=4,
                            d_w=4, d_theta=3)

    def test_single_latent_shrinks_to_zero(self):
        dset = make_dataset(7, n=3, num_latents=1)
        rng = np.random.default_rng(7)
        w = rng.standard_normal(5)
        theta0 = rng.standard_normal(3)
        hyper = HyperParams(C=1.0, J=0.1)
        theta = ssd_theta(dset, w, theta0, ZeroOneLoss(), hyper,
                          SSDConfig(steps=10, seed=0))
        # first step multiplies by (1 - 1/1) = 0; later steps keep it at 0
        np.testing.assert_array_equal(theta, np.zeros(3))

    def test_descends_on_most_seeds(self):
        dset = self.fixed_instance()
        rng = np.random.default_rng(78)
        w = rng.standard_normal(4)
        theta0 = rng.standard_normal(3)
        hyper = HyperParams(C=1.0, J=0.1)
        loss = ZeroOneLoss()
        start = theta_objective(w, theta0, dset, loss, hyper)
        wins = 0
        for seed in range(40):
            theta = ssd_theta(dset, w, theta0, loss, hyper,
                              SSDConfig(steps=500, seed=seed))
            final = theta_objective(w, theta, dset, loss, hyper)
            wins += final < start
        assert wins >= 38

    def test_deterministic_for_fixed_seed(self):
        dset = self.fixed_instance()
        rng = np.random.default_rng(80)
        w = rng.standard_normal(4)
        theta0 = rng.standard_normal(3)
        hyper = HyperParams()
        a = ssd_theta(dset, w, theta0, ZeroOneLoss(), hyper,
                      SSDConfig(steps=200, seed=5))
        b = ssd_theta(dset, w, theta0, ZeroOneLoss(), hyper,
                      SSDConfig(steps=200, seed=5))
        np.testing.assert_array_equal(a, b)

    def test_lambda_defaults_to_j_over_c(self):
        dset = self.fixed_instance()
        rng = np.random.default_rng(81)
        w = rng.standard_normal(4)
        theta0 = rng.standard_normal(3)
        a = ssd_theta(dset, w, theta0, ZeroOneLoss(), HyperParams(C=4.0, J=0.2),
                      SSDConfig(steps=100, seed=2))
        b = ssd_theta(dset, w, theta0, ZeroOneLoss(), HyperParams(C=2.0, J=0.1),
                      SSDConfig(steps=100, seed=2))
        np.testing.assert_array_equal(a, b)

    def test_steps_per_sample_scaling(self):
        dset = self.fixed_instance()
        rng = np.random.default_rng(82)
        w = rng.standard_normal(4)
        theta0 = rng.standard_normal(3)
        hyper = HyperParams()
        a = ssd_theta(dset, w, theta0, ZeroOneLoss(), hyper,
                      SSDConfig(steps_per_sample=4, seed=3))
        b = ssd_theta(dset, w, theta0, ZeroOneLoss(), hyper,
                      SSDConfig(steps=4 * len(dset), seed=3))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("loss", [ZeroOneLoss(), LabelOnlyZeroOneLoss()])
    def test_wrong_w_shape_rejected(self, loss):
        dset = self.fixed_instance()
        with pytest.raises(ConfigError, match="w has shape"):
            ssd_theta(dset, np.zeros(5), np.zeros(3), loss, HyperParams(),
                      SSDConfig(steps=3))


LOSSES = {
    "zero_one": ZeroOneLoss,
    "overlap": OverlapLoss,
    "zero_one_label_only": LabelOnlyZeroOneLoss,
    "stub_zero": StubZeroLoss,
}
# (C, J) pairs from the protocol's grid ends to a strong theta regularizer
CJ_PAIRS = [(1e-4, 0.1), (0.01, 0.1), (1.0, 0.1), (10.0, 1e-3), (0.1, 2.0)]
# Seeds 10 and up draw K up to 40 and d_theta up to 48, past the
# benchmark's shapes; some pin (K, d_theta) at the edges (None: drawn).
# Ragged seeds (seed % 3 == 1) draw each sample's K in [2, K].
WIDE_EDGES = {10: (40, 48), 11: (None, 1), 13: (40, 1), 14: (1, 1), 15: (40, 48),
              17: (1, 48)}


class TestSSDMatchesReference:
    """The solver's per-sample views against the plain per-step loop kept
    in the tests: same theta, bit for bit."""

    def case(self, loss_name, seed):
        rng = np.random.default_rng(seed)
        ragged = seed % 3 == 1
        wide = seed >= 10
        n = 1 if seed % 4 == 0 else int(rng.integers(2, 9))
        num_labels = int(rng.integers(2, 4))
        num_latents = int(rng.integers(2 if ragged else 1, 41 if wide else 17))
        d_w = int(rng.integers(1, 7))
        d_theta = int(rng.integers(1, 49 if wide else 17))
        pinned_k, pinned_d = WIDE_EDGES.get(seed, (None, None))
        dset = make_dataset(
            100 + seed,
            n=n,
            num_labels=num_labels,
            num_latents=pinned_k or num_latents,
            d_w=d_w,
            d_theta=pinned_d or d_theta,
            geometric=loss_name == "overlap" or seed % 2 == 0,
            uniform_shapes=not ragged,
        )
        scale = 10.0 ** rng.uniform(-2, 1)
        w = scale * rng.standard_normal(dset.d_w)
        theta0 = rng.standard_normal(dset.d_theta)
        C, J = CJ_PAIRS[seed % len(CJ_PAIRS)]
        hyper = HyperParams(C=C, J=J, beta=float(rng.uniform(0.05, 0.95)))
        if seed % 2:
            config = SSDConfig(steps=int(rng.integers(1, 400)), seed=seed)
        else:
            config = SSDConfig(steps_per_sample=int(rng.integers(1, 60)),
                               seed=seed)
        return dset, w, theta0, LOSSES[loss_name](), hyper, config

    @pytest.mark.parametrize("seed", range(18))
    @pytest.mark.parametrize("loss_name", sorted(LOSSES))
    def test_theta_bytes_equal_reference(self, loss_name, seed):
        dset, w, theta0, loss, hyper, config = self.case(loss_name, seed)
        got = ssd_theta(dset, w, theta0, loss, hyper, config)
        want = reference_ssd_theta(dset, w, theta0, loss, hyper, config)
        assert got.tobytes() == want.tobytes()

    def test_budget_spans_index_blocks(self):
        dset = make_dataset(5, n=3, num_labels=2, num_latents=5, d_w=3,
                            d_theta=4, geometric=True)
        rng = np.random.default_rng(5)
        w, theta0 = rng.standard_normal(3), rng.standard_normal(4)
        config = SSDConfig(steps=4096 + 905, seed=1)
        for loss in (ZeroOneLoss(), OverlapLoss()):
            got = ssd_theta(dset, w, theta0, loss, HyperParams(C=0.1), config)
            want = reference_ssd_theta(dset, w, theta0, loss,
                                       HyperParams(C=0.1), config)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_block_draws_equal_scalar_draws(self, seed):
        for n in range(1, 301):
            rng = np.random.default_rng(seed)
            scalar = [int(rng.integers(n)) for _ in range(40)]
            rng = np.random.default_rng(seed)
            blocks = (rng.integers(n, size=16).tolist()
                      + rng.integers(n, size=24).tolist())
            assert blocks == scalar, n


class TestSSDStepIsPublicGradients:
    """One solver step is one Pegasos step on the public gradients of the
    sample it draws, bit for bit: the solver runs the code that the
    gradient checks verify."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("loss_name",
                             ["zero_one", "overlap", "zero_one_label_only"])
    def test_one_step_equals_public_gradients(self, loss_name, seed):
        dset = make_dataset(200 + seed, n=5, num_labels=3, num_latents=6,
                            d_w=4, d_theta=5, geometric=True,
                            uniform_shapes=seed % 2 == 0)
        rng = np.random.default_rng(300 + seed)
        w = rng.standard_normal(dset.d_w)
        theta = rng.standard_normal(dset.d_theta)
        C, J = CJ_PAIRS[seed % len(CJ_PAIRS)]
        hyper = HyperParams(C=C, J=J, beta=float(rng.uniform(0.05, 0.95)))
        loss = LOSSES[loss_name]()
        got = ssd_theta(dset, w, theta, loss, hyper, SSDConfig(steps=1, seed=seed))

        i = int(np.random.default_rng(seed).integers(len(dset), size=1)[0])
        sample = dset.samples[i]
        lam = hyper.J / hyper.C
        g = (lam * theta + grad_slack(w, theta, sample, loss)
             - hyper.beta * grad_self_diversity(theta, sample, loss))
        assert got.tobytes() == (theta - g / lam).tobytes()


class TestSSDStackedScores:
    """``ssd_theta`` slices its score tables from one product over
    ``loss.stack``: each slice equals the per-sample table bit for bit."""

    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_score_slices_bytes_equal_reference(self, uniform, seed):
        dset = stack_case(seed, uniform)
        scoring = ZeroOneLoss().stack(dset).scoring
        rng = np.random.default_rng(seed)
        for scale in (0.01, 1.0, 100.0):
            w = scale * rng.standard_normal(dset.d_w)
            scores = scoring.scores(w)
            for i, want in enumerate(reference_score_tables(w, dset)):
                K = want.shape[1]
                assert scores[i, :, :K].tobytes() == want.tobytes()
                assert np.all(scores[i, :, K:] == 0.0)

    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("loss_cls", [ZeroOneLoss, OverlapLoss,
                                          LabelOnlyZeroOneLoss])
    def test_theta_bytes_equal_reference(self, uniform, loss_cls):
        dset = stack_case(11, uniform)
        rng = np.random.default_rng(11)
        w, theta0 = rng.standard_normal(dset.d_w), rng.standard_normal(dset.d_theta)
        hyper, config = HyperParams(C=0.1), SSDConfig(steps_per_sample=20, seed=4)
        got = ssd_theta(dset, w, theta0, loss_cls(), hyper, config)
        want = reference_ssd_theta(dset, w, theta0, loss_cls(), hyper, config)
        assert got.tobytes() == want.tobytes()

    def test_wrong_theta_shape_rejected(self):
        dset = stack_case(0, False)
        with pytest.raises(ConfigError, match="theta has shape"):
            ssd_theta(dset, np.zeros(dset.d_w), np.zeros(dset.d_theta + 2),
                      OverlapLoss(), HyperParams(), SSDConfig(steps=3))


@pytest.fixture
def python_loop(monkeypatch):
    monkeypatch.setattr(thetasolver, "_ssd_loop", thetasolver._ssd_python)


@pytest.mark.usefixtures("python_loop")
class TestSSDOnPythonLoop(TestSSD):
    """``TestSSD`` on the Python loop, the path where the SSD kernel did
    not load."""


@pytest.mark.usefixtures("python_loop")
class TestSSDMatchesReferenceOnPythonLoop(TestSSDMatchesReference):
    """``TestSSDMatchesReference`` on the Python loop."""


@pytest.mark.usefixtures("python_loop")
class TestSSDStepIsPublicGradientsOnPythonLoop(TestSSDStepIsPublicGradients):
    """``TestSSDStepIsPublicGradients`` on the Python loop."""


@pytest.mark.usefixtures("python_loop")
class TestSSDStackedScoresOnPythonLoop(TestSSDStackedScores):
    """``TestSSDStackedScores`` on the Python loop."""

    # the score slices are read before either loop runs
    test_score_slices_bytes_equal_reference = None


needs_kernel = pytest.mark.skipif(
    thetasolver._SSD is None, reason="the SSD kernel did not load")


def with_strided_phi(dset, pad):
    """dset with every phi a read-only window whose rows lie ``pad``
    doubles further apart than its width, as ``SampleRecord`` keeps it."""
    samples = []
    for s in dset:
        K, d = s.phi.shape
        buffer = np.zeros((K, d + pad))
        buffer[:, :d] = s.phi
        buffer.flags.writeable = False
        samples.append(dataclasses.replace(s, phi=buffer[:, :d]))
    return Dataset(dset.num_labels, dset.d_w, dset.d_theta, tuple(samples))


def with_unaligned_phi(dset):
    """dset with every phi a read-only window one byte into a buffer, so
    its doubles are not aligned, as ``SampleRecord`` keeps it."""
    samples = []
    for s in dset:
        raw = bytearray(s.phi.nbytes + 1)
        phi = np.frombuffer(raw, np.float64, s.phi.size, 1).reshape(s.phi.shape)
        phi[...] = s.phi
        phi.flags.writeable = False
        samples.append(dataclasses.replace(s, phi=phi))
    return Dataset(dset.num_labels, dset.d_w, dset.d_theta, tuple(samples))


class IntegerZeroOneLoss(ZeroOneLoss):
    """The zero-one loss with an int64 table, which numpy casts per call."""

    def pair_matrix(self, sample, y1, y2):
        return super().pair_matrix(sample, y1, y2).astype(np.int64)


def both_paths(dset, w, theta0, loss, hyper, config):
    """ssd_theta's theta on the kernel and on the Python loop."""
    got = ssd_theta(dset, w, theta0, loss, hyper, config)
    indices = np.random.default_rng(config.seed).integers(
        len(dset), size=config.steps or config.steps_per_sample * len(dset))
    stack = loss.stack(dset)
    want = thetasolver._ssd_python(
        stack, stack.scoring.scores(w), np.asarray(theta0, dtype=np.float64),
        hyper.J / hyper.C, hyper.beta, indices)
    return got, want


@needs_kernel
class TestSSDKernel:
    def case(self, seed=3, **shape):
        dset = make_dataset(seed, **{**dict(n=4, num_labels=3, num_latents=5,
                                            d_w=4, d_theta=6, geometric=True),
                                     **shape})
        rng = np.random.default_rng(seed)
        return dset, rng.standard_normal(dset.d_w), rng.standard_normal(dset.d_theta)

    def test_refuses_arrays_it_cannot_read_in_place(self):
        # the kernel reads raw pointers, so every array is checked first
        dset, w, theta = self.case()
        stack = OverlapLoss().stack(dset)
        scores = stack.scoring.scores(w)
        good = np.zeros(3, dtype=np.int64)
        bad = [
            (np.asfortranarray(scores), good),
            (scores.astype(np.float32), good),
            (scores[:, :, :-1], good),
            (scores, good.astype(np.int32)),
            (scores, np.zeros(6, dtype=np.int64)[::2]),
        ]
        for bad_scores, indices in bad:
            with pytest.raises(ValueError, match="SSD kernel needs"):
                thetasolver._ssd_kernel(stack, bad_scores, theta, 1.0, 0.1,
                                        indices)

    def test_reads_phi_and_table_in_place(self):
        # each row points at the arrays the Python loop reads, and the
        # kernel gets nothing else: no copy is made for it
        dset, _, _ = self.case(uniform_shapes=False)
        stack = ZeroOneLoss().stack(dset)
        samples = stack.step_samples
        assert isinstance(samples, ctypes.Array)
        assert len(samples) == len(dset)
        for row, s, view in zip(samples, dset, stack.views):
            assert row.phi == s.phi.ctypes.data == view.phi.ctypes.data
            assert row.table == view.table.ctypes.data
            assert (row.K, row.truth) == (s.num_latents, s.truth_label)

    @pytest.mark.parametrize("shape, loss_cls", [
        (dict(num_latents=1), ZeroOneLoss),
        (dict(d_theta=1), ZeroOneLoss),
        ({}, IntegerZeroOneLoss),
        pytest.param(dict(phi="strided"), ZeroOneLoss, id="strided-phi"),
        pytest.param(dict(phi="unaligned"), ZeroOneLoss, id="unaligned-phi"),
        pytest.param({}, LabelOnlyZeroOneLoss, id="latent-independent"),
    ])
    def test_sets_off_dgemv_run_the_python_loop(self, shape, loss_cls):
        # numpy leaves dgemv for a product with a dimension of one, casts
        # an integer table per call, and rounds a strided phi's products
        # apart from a contiguous copy's; a latent-independent loss needs
        # no posterior: the loop runs those sets
        shape = dict(shape)
        layout = shape.pop("phi", None)
        dset, w, theta = self.case(**shape)
        if layout == "strided":
            dset = with_strided_phi(dset, 3)
        elif layout == "unaligned":
            dset = with_unaligned_phi(dset)
            assert not any(s.phi.flags.aligned for s in dset)
        loss = loss_cls()
        assert loss.stack(dset).step_samples is None
        got, want = both_paths(dset, w, theta, loss, HyperParams(C=0.1),
                               SSDConfig(steps=200, seed=1))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e308, np.inf])
    def test_nonfinite_theta_gives_the_python_loops_bytes(self, scale):
        dset, w, _ = self.case()
        theta = scale * np.ones(dset.d_theta)
        for loss in (ZeroOneLoss(), OverlapLoss(), LabelOnlyZeroOneLoss()):
            got, want = both_paths(dset, w, theta, loss, HyperParams(),
                                   SSDConfig(steps=50, seed=2))
            assert got.tobytes() == want.tobytes()
            if loss.latent_dependent:
                assert np.isnan(got).all()

    def test_tied_candidates_break_to_the_first(self):
        # candidates (0, 0) and (0, 1) tie in score and in expected loss,
        # and their loss columns pull theta apart: the step follows the
        # first, as ndarray.argmax takes it
        psi = np.zeros((2, 3, 1))
        psi[0, :2] = 5.0
        phi = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        sample = SampleRecord("tie", 0, psi, phi)
        dset = Dataset(2, 1, 2, (sample,))
        theta = np.array([0.25, 0.25])
        loss, hyper = ZeroOneLoss(), HyperParams()
        got, want = both_paths(dset, np.ones(1), theta, loss, hyper,
                               SSDConfig(steps=1))
        first = grad_expected_loss(theta, sample, 0, 0, loss)
        second = grad_expected_loss(theta, sample, 0, 1, loss)
        assert first.tobytes() != second.tobytes()
        lam = hyper.J / hyper.C
        g = (lam * theta + first
             - hyper.beta * grad_self_diversity(theta, sample, loss))
        assert got.tobytes() == want.tobytes() == (theta - g / lam).tobytes()

    def test_missing_dgemv_leaves_the_python_loop(self):
        # where numpy's BLAS exports no ILP64 cblas_dgemv, the steps run
        # in Python, silently, and the QP kernel still loads
        code = (
            "import ctypes\n"
            "get = ctypes.CDLL.__getattr__\n"
            "def hide(self, name):\n"
            "    if name.endswith('cblas_dgemv64_'):\n"
            "        raise AttributeError(name)\n"
            "    return get(self, name)\n"
            "ctypes.CDLL.__getattr__ = hide\n"
            "import dissim.thetasolver as t, dissim.wsolver as w\n"
            "assert t._SSD is None and t._ssd_loop is t._ssd_python\n"
            "assert w._qp_passes is w._qp_kernel\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env=src_env(), timeout=300)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")


@pytest.mark.parametrize("kind", ["zero_one", "overlap"])
@pytest.mark.parametrize("spec", [
    TaskSpec(per_class=3, seed=5),
    TaskSpec(per_class=3, seed=5, noise=0.0, clutter=0.0),
], ids=["noisy", "clean"])
def test_every_generated_or_loaded_set_takes_the_kernel(kind, spec, tmp_path):
    # the sets the workloads and the command line train on all reach the
    # compiled steps, before and after a save and load round trip: a
    # narrowing of _kernel.ssd_samples that sent them to the Python loop
    # fails here
    dset, _ = generate(spec)
    save_dataset(dset, tmp_path / "task.txt")
    for trained in (dset, load_dataset(tmp_path / "task.txt")):
        assert make_loss(kind).stack(trained).step_samples is not None
