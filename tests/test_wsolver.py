"""Cutting-plane inner solver and the CCCP outer loop."""

import ctypes
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dissim import (
    ConfigError,
    Dataset,
    LabelOnlyZeroOneLoss,
    OverlapLoss,
    HyperParams,
    SampleRecord,
    SolverError,
    ZeroOneLoss,
    cccp_w,
    expected_loss_table,
    latent_impute,
    latent_posterior,
    regularized_objective,
    slack,
)
import dissim.wsolver as wsolver
from dissim.wsolver import _most_violated
from helpers import (
    StubZeroLoss,
    anchor_rows,
    loss_augmented_argmax,
    make_dataset,
    make_sample,
    pad_tables,
    reference_cccp_tables,
    reference_impute,
    reference_most_violated,
    reference_qp_coordinate_ascent,
    reference_solve_inner,
    solve_inner_convex,
    src_env,
    stack_case,
)


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


def round_objective(stack, w, C, scores, tables):
    """``_cccp_loop``'s objective at w with these tables: the regularizer
    plus C times the mean of the score stack's slacks."""
    return 0.5 * float(w @ w) + C * float(stack.slacks(scores, tables).mean())


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
        a = SampleRecord(id="a", truth_label=0, psi=psi,
                         phi=np.zeros((1, 1)))
        b = SampleRecord(id="b", truth_label=1, psi=-psi,
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

    def test_plane_budget_raises_solver_error(self, monkeypatch):
        dset = make_dataset(7, n=6, num_labels=3, num_latents=4)
        imputed = [0] * len(dset)
        monkeypatch.setattr(wsolver, "DEFAULT_PLANE_BUDGET", 2)
        with pytest.raises(SolverError, match="cutting-plane budget 2") as info:
            solve_inner_convex(dset, np.zeros(3), imputed, ZeroOneLoss(),
                               C=100.0, inner_tol=1e-10)
        assert info.value.last_iterate is not None

    @pytest.mark.xfail(strict=True, raises=SolverError, reason=(
        "the dual QP stops at its pass cap with a duality gap of 8.0e-6 on "
        "this well-posed solve; ROADMAP item 2's QP rewrite must mend it"))
    def test_small_set_at_unit_c_converges(self):
        dset = make_dataset(3, n=16, num_labels=3, num_latents=4, d_w=5,
                            d_theta=3)
        theta = np.random.default_rng(3).normal(size=3)
        w = solve_inner_convex(dset, theta, [0] * len(dset), ZeroOneLoss(),
                               C=1.0, inner_tol=1e-4)
        assert np.all(np.isfinite(w))


def plane_case(seed, n, uniform, C, inner_tol):
    """``_solve_inner``'s arguments for a zero-one loss solve on a random
    set of n samples (3 labels, 4 latents, ragged unless uniform), anchored
    at latent 0, with tables at a seeded theta."""
    dset = make_dataset(seed, n=n, num_labels=3, num_latents=4, d_w=5,
                        d_theta=3, uniform_shapes=uniform)
    theta = np.random.default_rng(seed).standard_normal(3)
    tables = [expected_loss_table(latent_posterior(theta, s), s, ZeroOneLoss())
              for s in dset]
    return (dset._score_stack, pad_tables(dset, tables),
            anchor_rows(dset, [0] * n), C, inner_tol)


class TestPlaneStore:
    """The plane store, whose capacity doubles from 8 rows, gives the w of
    the loop that stacks its working set afresh for every plane, bit for
    bit; the Python QP loop is covered in ``TestPlaneStoreOnPythonLoop``."""

    @pytest.mark.parametrize("planes, case", [
        pytest.param(1, (6, 16, True, 0.01, 1e-2), id="1"),
        pytest.param(8, (0, 4, True, 1.0, 1e-2), id="8"),
        pytest.param(9, (0, 4, False, 1.0, 1e-2), id="9-ragged"),
        pytest.param(16, (0, 4, False, 10.0, 1e-4), id="16-ragged"),
        pytest.param(17, (3, 8, True, 1.0, 1e-4), id="17"),
        pytest.param(35, (24, 16, False, 4.0, 1e-5), id="35-ragged"),
    ])
    def test_w_bytes_equal_reference(self, planes, case, monkeypatch):
        args = plane_case(*case)
        sizes = []
        qp = wsolver._qp_coordinate_ascent

        def counted(G, b, C, alpha, tol):
            sizes.append(b.size)
            return qp(G, b, C, alpha, tol)

        monkeypatch.setattr(wsolver, "_qp_coordinate_ascent", counted)
        w = wsolver._solve_inner(*args)
        assert sizes == list(range(1, planes + 1))
        assert w.tobytes() == reference_solve_inner(*args).tobytes()

    @pytest.mark.parametrize("budget", [8, 9])
    def test_plane_budget_error_equals_reference(self, budget, monkeypatch):
        # the 17-plane solve stops at a full store of 8 rows, and at 9
        # planes once the store has grown to 16
        args = plane_case(3, 8, True, 1.0, 1e-4)
        monkeypatch.setattr(wsolver, "DEFAULT_PLANE_BUDGET", budget)
        with pytest.raises(SolverError) as want:
            reference_solve_inner(*args)
        with pytest.raises(SolverError) as got:
            wsolver._solve_inner(*args)
        assert f"budget {budget} exhausted" in str(want.value)
        assert str(got.value) == str(want.value)
        assert (got.value.last_iterate.tobytes()
                == want.value.last_iterate.tobytes())


class TestCCCP:
    def test_stub_instance_stops_after_one_round(self):
        dset = make_dataset(8, n=2)
        w0 = np.zeros(5)
        w, report = cccp_w(dset, np.zeros(3), w0, StubZeroLoss(), C=1.0)
        assert report.iterations == 1
        assert len(report.trace) == 1
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

    def test_iterates_are_shared_and_read_only(self):
        # the loop keeps no copies: the returned w is the last iterate, and
        # no iterate (a fresh solve is the solve store's own array) can be
        # written through the result
        dset = make_dataset(9, n=4)
        theta = np.random.default_rng(9).standard_normal(3)
        w, report = cccp_w(dset, theta, None, ZeroOneLoss(), C=1.0)
        assert len(report.iterates) > 1
        assert w is report.iterates[-1]
        assert not any(wi.flags.writeable for wi in report.iterates)

    def test_epsilon_scales_with_c(self):
        # a large C * epsilon makes the loop stop at the first round
        dset = make_dataset(10, n=3)
        rng = np.random.default_rng(10)
        theta = rng.standard_normal(3)
        _, eager = cccp_w(dset, theta, None, ZeroOneLoss(), C=1.0,
                          epsilon=1e6)
        assert eager.iterations == 1

    def test_termination_names_the_stop(self):
        dset = make_dataset(10, n=3)
        theta = np.random.default_rng(10).standard_normal(3)
        _, eager = cccp_w(dset, theta, None, ZeroOneLoss(), C=1.0,
                          epsilon=1e6)
        assert eager.termination == "tolerance"
        # with epsilon 0 no improvement is small enough: only a repeated
        # subproblem ends the loop
        _, patient = cccp_w(dset, theta, None, ZeroOneLoss(), C=1.0,
                            epsilon=0.0)
        assert patient.termination == "repeat"

    def test_cccp_budget_raises(self, monkeypatch):
        dset = make_dataset(11, n=3)
        rng = np.random.default_rng(11)
        theta = rng.standard_normal(3)
        from dissim.wsolver import _cccp_loop
        from dissim.losses import expected_loss_table as elt

        def build(scores, imputed):
            return pad_tables(dset, [elt(latent_posterior(theta, s), s,
                                         ZeroOneLoss()) for s in dset]), ()

        monkeypatch.setattr(wsolver, "DEFAULT_CCCP_BUDGET", 0)
        with pytest.raises(SolverError, match="CCCP budget 0") as info:
            _cccp_loop(dset, build, C=1.0, epsilon=1e-3, inner_tol=1e-4,
                       w_init=None)
        assert info.value.last_iterate is not None


class TestDualQP:
    def test_pass_cap_raises_instead_of_returning(self, monkeypatch):
        G = np.array([[2.0, 1.0], [1.0, 2.0]])
        monkeypatch.setattr(wsolver, "DEFAULT_QP_PASSES", 1)
        # one pass moves alpha from 0 to (0.5, 0.25): not converged
        with pytest.raises(SolverError, match="after 1 passes") as info:
            wsolver._qp_coordinate_ascent(G, np.ones(2), 10.0, np.zeros(2),
                                          1e-13)
        assert info.value.last_iterate is not None

    def test_pass_cap_returns_when_gap_certifies_optimum(self, monkeypatch):
        # with G = I one pass lands on the optimum alpha = b, but its moves
        # exceed tol; the zero duality gap certifies it
        monkeypatch.setattr(wsolver, "DEFAULT_QP_PASSES", 1)
        alpha = wsolver._qp_coordinate_ascent(np.eye(2), np.ones(2), 10.0,
                                              np.zeros(2), 1e-13)
        np.testing.assert_array_equal(alpha, [1.0, 1.0])


def random_qp(rng, m, C=None):
    """A dual QP as the cutting-plane loop poses it: the Gram matrix of m
    random plane directions, offsets in [0, 1), C in [1e-4, 100] (small
    C puts the optimum on the budget face) and, half the time, a warm
    start holding part of the budget."""
    directions = rng.standard_normal((m, int(rng.integers(1, 2 * m + 2))))
    directions *= 10.0 ** int(rng.integers(-2, 2))
    C = float(10.0 ** rng.uniform(-4, 2)) if C is None else C
    alpha = np.zeros(m)
    if rng.random() < 0.5 and m > 1:
        alpha[:-1] = rng.random(m - 1)
        alpha *= C * rng.random() / alpha.sum()
    return directions @ directions.T, rng.random(m), C, alpha


def degenerate_qp(rng, m, kind):
    """``random_qp`` with one degenerate plane, which ``random_qp`` never
    draws: a zero plane (``kind="zero"``: its row and column of G are 0,
    so its diagonal is 0, and its offset is 0 half the time), or a copy of
    another plane (``kind="duplicate"``: equal rows and columns, so the
    pair's curvature is exactly 0).  C is small, so most optima lie on the
    budget face, where pairwise exchanges run."""
    G, b, C, alpha = random_qp(rng, m, C=float(10.0 ** rng.uniform(-4, 0)))
    k = int(rng.integers(m))
    if kind == "zero":
        G[k, :] = 0.0
        G[:, k] = 0.0
        if rng.random() < 0.5:
            b[k] = 0.0
    else:
        src = int(rng.integers(m - 1))
        src += src >= k
        G[k, :] = G[src, :]
        G[:, k] = G[:, src]
    return G, b, C, alpha


def qp_outcome(solve, G, b, C, alpha):
    """Bytes of the returned alpha, or the error message and the bytes of
    its last iterate.  Both solvers read their pass cap from
    ``wsolver.DEFAULT_QP_PASSES``."""
    alpha = alpha.copy()
    try:
        out = solve(G, b, C, alpha, 1e-13 * max(1.0, C))
    except SolverError as err:
        return str(err), err.last_iterate.tobytes()
    assert out is alpha
    return out.tobytes()


class TestDualQPMatchesReference:
    """As ``TestDualQP``: on the selected path here, and on the Python
    loop in ``TestDualQPMatchesReferenceOnPythonLoop``."""

    def test_alpha_bytes_equal_reference(self, monkeypatch):
        rng = np.random.default_rng(20240)
        on_face = 0
        # a pass cap of 300 keeps the slowly converging instances cheap;
        # the ones that reach it compare their SolverError
        monkeypatch.setattr(wsolver, "DEFAULT_QP_PASSES", 300)
        for m in [int(m) for m in rng.integers(1, 41, size=60)]:
            G, b, C, alpha = random_qp(rng, m)
            expect = qp_outcome(reference_qp_coordinate_ascent, G, b, C, alpha)
            assert qp_outcome(wsolver._qp_coordinate_ascent, G, b, C,
                              alpha) == expect
            if isinstance(expect, bytes):
                on_face += np.frombuffer(expect).sum() >= C * (1.0 - 1e-12)
        assert on_face >= 10

    @pytest.mark.parametrize("kind", ["zero", "duplicate"])
    def test_degenerate_plane_alpha_bytes_equal_reference(self, kind,
                                                          monkeypatch):
        # the zero-curvature branches: a zero diagonal in the single moves,
        # and a pair with curvature 0 in the pairwise exchanges
        rng = np.random.default_rng(20241 if kind == "zero" else 20242)
        on_face = 0
        monkeypatch.setattr(wsolver, "DEFAULT_QP_PASSES", 300)
        for m in [int(m) for m in rng.integers(2, 25, size=40)]:
            G, b, C, alpha = degenerate_qp(rng, m, kind)
            expect = qp_outcome(reference_qp_coordinate_ascent, G, b, C, alpha)
            assert qp_outcome(wsolver._qp_coordinate_ascent, G, b, C,
                              alpha) == expect
            if isinstance(expect, bytes):
                on_face += np.frombuffer(expect).sum() >= C * (1.0 - 1e-12)
        assert on_face >= 10

    def test_more_than_128_planes(self, monkeypatch):
        # alpha's sum takes numpy's recursive branch above 128 values
        rng = np.random.default_rng(140)
        G, b, C, alpha = random_qp(rng, 140, C=0.05)
        monkeypatch.setattr(wsolver, "DEFAULT_QP_PASSES", 3)
        expect = qp_outcome(reference_qp_coordinate_ascent, G, b, C, alpha)
        assert qp_outcome(wsolver._qp_coordinate_ascent, G, b, C,
                          alpha) == expect

    def test_sum_replica_matches_numpy(self):
        # the Python loop's replica, and the kernel's where it loaded
        replicas = [lambda x: wsolver._numpy_sum(x.tolist())]
        if wsolver._KERNEL is not None:
            qp_sum = wsolver._KERNEL.dissim_qp_sum
            qp_sum.argtypes = [ctypes.c_void_p, ctypes.c_long]
            qp_sum.restype = ctypes.c_double
            replicas.append(lambda x: qp_sum(x.ctypes.data, x.size))
        rng = np.random.default_rng(300)
        for n in range(301):
            x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, size=n)
            expect = np.float64(np.sum(x)).tobytes()
            for replica in replicas:
                assert np.float64(replica(x)).tobytes() == expect, n


class TestMostViolated:
    def test_padded_ragged_k_matches_per_sample_evaluation(self):
        dset = make_dataset(7, n=6, num_labels=3, num_latents=5, d_w=4,
                            d_theta=2, uniform_shapes=False)
        assert len({s.num_latents for s in dset}) > 1
        rng = np.random.default_rng(7)
        tables = [rng.random((3, s.num_latents)) for s in dset]
        anchors = [int(rng.integers(s.num_latents)) for s in dset]
        stack = dset._score_stack
        padded = pad_tables(dset, tables)
        aug, rows = padded.reshape(len(dset), -1), anchor_rows(dset, anchors)
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
            got_direction, got_offset, _ = _most_violated(stack, aug, rows, w)
            np.testing.assert_allclose(got_direction, direction / len(dset),
                                       rtol=0, atol=1e-12)
            assert got_offset == pytest.approx(offset / len(dset), abs=1e-12)
            expect = 0.5 * float(w @ w) + C * slack_total / len(dset)
            got = round_objective(stack, w, C, stack.scores(w), padded)
            assert got == pytest.approx(expect, abs=1e-12)


class TestMostViolatedReductions:
    """``_most_violated``'s bare ``np.add.reduce`` means and ``take``
    gather give the direction, offset and key of its ``ndarray.mean``
    form bit for bit, on both sides of numpy's pairwise blocking of the
    offset's 1-D sum (a plain loop below 8 terms, 8 accumulators up to
    128, halves above)."""

    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 17, 130])
    def test_bytes_equal_mean_form(self, n, uniform):
        dset = stack_case(n, uniform, n=n)
        stack = dset._score_stack
        rng = np.random.default_rng(n)
        tables = [rng.exponential(size=(dset.num_labels, s.num_latents))
                  for s in dset]
        aug = pad_tables(dset, tables).reshape(n, -1)
        rows = anchor_rows(dset, [int(rng.integers(s.num_latents)) for s in dset])
        for scale in (0.0, 0.1, 1.0, 10.0):
            w = scale * rng.standard_normal(dset.d_w)
            direction, offset, key = _most_violated(stack, aug, rows, w)
            want = reference_most_violated(stack, aug, rows, w)
            assert direction.shape == want[0].shape == (dset.d_w,)
            assert direction.tobytes() == want[0].tobytes()
            assert type(offset) is float
            assert np.float64(offset).tobytes() == np.float64(want[1]).tobytes()
            assert key == want[2]


class TestStackedRound:
    """What ``_cccp_loop`` and ``cccp_w`` read of ``loss.stack``: the
    anchors, the expected-loss tables and the round objective equal the
    per-sample loops bit for bit."""

    LOSSES = [ZeroOneLoss, OverlapLoss, LabelOnlyZeroOneLoss]

    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_imputation_equals_reference(self, uniform, seed):
        dset = stack_case(seed, uniform)
        scoring = ZeroOneLoss().stack(dset).scoring
        rng = np.random.default_rng(seed)
        for scale in (0.0, 0.1, 1.0, 10.0):
            w = scale * rng.standard_normal(dset.d_w)
            got = scoring.impute(scoring.scores(w))
            assert got == reference_impute(w, dset)
            assert got == [latent_impute(w, s) for s in dset]
            assert all(type(k) is int for k in got)

    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("loss_cls", LOSSES)
    @pytest.mark.parametrize("seed", range(4))
    def test_tables_bytes_equal_reference(self, uniform, loss_cls, seed):
        dset = stack_case(seed, uniform)
        loss = loss_cls()
        stack = loss.stack(dset)
        rng = np.random.default_rng(seed)
        for scale in (0.1, 1.0, 10.0):
            theta = scale * rng.standard_normal(dset.d_theta)
            tables = stack.expected_losses(theta)
            assert tables.shape == stack.scoring.shape
            want = reference_cccp_tables(theta, dset, loss)
            for i, (s, table) in enumerate(zip(dset, want)):
                K = s.num_latents
                assert tables[i, :, :K].tobytes() == table.tobytes()
                assert np.all(tables[i, :, K:] == -np.inf)

    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("seed", range(3))
    def test_objective_from_given_scores(self, uniform, seed):
        dset = stack_case(seed, uniform)
        loss = OverlapLoss()
        stack = loss.stack(dset)
        scoring = stack.scoring
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal(dset.d_theta)
        w = rng.standard_normal(dset.d_w)
        per_sample = pad_tables(dset, reference_cccp_tables(theta, dset, loss))
        per_sample_rows = anchor_rows(dset, reference_impute(w, dset))
        tables = stack.expected_losses(theta)
        stacked_rows = anchor_rows(dset, scoring.impute(scoring.scores(w)))
        assert tables.tobytes() == per_sample.tobytes()
        assert stacked_rows.tobytes() == per_sample_rows.tobytes()
        scores = scoring.scores(w)
        for C in (1e-3, 1.0, 10.0):
            got = round_objective(scoring, w, C, scores, tables)
            assert got == round_objective(scoring, w, C, scores, per_sample)

    @pytest.mark.parametrize("uniform", [True, False])
    def test_solved_anchor_rows_equal_reference(self, uniform, monkeypatch):
        dset = stack_case(1, uniform)
        rng = np.random.default_rng(1)
        theta, w = rng.standard_normal(dset.d_theta), rng.standard_normal(dset.d_w)
        solved = []
        solve = wsolver._solve_inner

        def logged(stack, tables, rows, C, inner_tol):
            solved.append(rows)
            return solve(stack, tables, rows, C, inner_tol)

        monkeypatch.setattr(wsolver, "_solve_inner", logged)
        cccp_w(dset, theta, w, OverlapLoss(), C=1.0)
        want = anchor_rows(dset, reference_impute(w, dset))
        assert solved[0].tobytes() == want.tobytes()

    def test_wrong_shapes_raise_config_error(self):
        dset = stack_case(0, False)
        loss = ZeroOneLoss()
        with pytest.raises(ConfigError, match="theta has shape"):
            cccp_w(dset, np.zeros(dset.d_theta + 1), None, loss, C=1.0)
        with pytest.raises(ConfigError, match="w has shape"):
            cccp_w(dset, np.zeros(dset.d_theta), np.zeros(2), loss, C=1.0)


@pytest.fixture
def python_loop(monkeypatch):
    monkeypatch.setattr(wsolver, "_qp_passes", wsolver._qp_python)


@pytest.mark.usefixtures("python_loop")
class TestDualQPOnPythonLoop(TestDualQP):
    """``TestDualQP`` on the Python loop, the path where no C compiler
    builds the kernel."""


@pytest.mark.usefixtures("python_loop")
class TestDualQPMatchesReferenceOnPythonLoop(TestDualQPMatchesReference):
    """``TestDualQPMatchesReference`` on the Python loop."""


@pytest.mark.usefixtures("python_loop")
class TestPlaneStoreOnPythonLoop(TestPlaneStore):
    """``TestPlaneStore`` on the Python QP loop."""


class TestQPKernel:
    def test_refuses_arrays_it_cannot_read_in_place(self):
        # the kernel reads raw pointers, so every array is checked first
        if wsolver._KERNEL is None:
            pytest.skip("no C compiler built the QP kernel")
        G, b = np.eye(3), np.ones(3)
        bad = [
            (np.asfortranarray(np.arange(9.0).reshape(3, 3)), b, np.zeros(3)),
            (G[:, :2], b[:2], np.zeros(2)),
            (G, b.astype(np.float32), np.zeros(3)),
            (G, b, np.zeros(6)[::2]),
        ]
        frozen = np.zeros(3)
        frozen.flags.writeable = False
        bad.append((G, b, frozen))
        for G_bad, b_bad, alpha in bad:
            with pytest.raises(ValueError, match="QP kernel needs"):
                wsolver._qp_kernel(G_bad, b_bad, 1.0, alpha, 1e-13, 10)

    @pytest.mark.parametrize("cc", ["/nonexistent/cc", "false"])
    def test_without_a_compiler_the_python_loop_runs_silently(self, cc,
                                                               tmp_path):
        # a compiler that is missing, or that fails, leaves both Python
        # loops, with nothing printed and no file left behind; the package
        # is imported from a copy with no built kernel
        proc, built = import_fresh_copy(
            tmp_path,
            "get = sysconfig.get_config_var\n"
            f"sysconfig.get_config_var = lambda name: {cc!r} "
            "if name == 'CC' else get(name)\n",
            "assert w._KERNEL is None and w._qp_passes is w._qp_python\n"
            "assert t._ssd_loop is t._ssd_python\n",
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert built == []

    @pytest.mark.parametrize("hidden", ["numpy", "python"])
    def test_without_headers_only_the_ssd_loop_falls_back(self, hidden,
                                                          tmp_path):
        # the SSD steps need numpy's and Python's headers; without either
        # the QP kernel is built and loads all the same
        proc, built = import_fresh_copy(
            tmp_path, HIDE_HEADERS[hidden],
            "assert w._qp_passes is w._qp_kernel\n"
            "assert t._SSD is None and t._ssd_loop is t._ssd_python\n",
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert [p.suffix for p in built] == [".so"]

    @pytest.mark.parametrize("hidden", ["numpy", "python"])
    def test_headers_found_later_build_the_ssd_steps(self, hidden, tmp_path):
        # a library built while the headers were missing is not the one a
        # later import loads once they are found
        proc, _ = import_fresh_copy(
            tmp_path, HIDE_HEADERS[hidden],
            "assert t._ssd_loop is t._ssd_python\n")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        proc, built = import_fresh_copy(
            tmp_path, "",
            "assert w._qp_passes is w._qp_kernel\n"
            "assert t._ssd_loop is t._ssd_kernel\n")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert len(built) == 2


# the patches that hide numpy's or Python's include directory from the build
HIDE_HEADERS = {
    "numpy": "numpy.get_include = lambda: '/nonexistent'\n",
    "python": "get = sysconfig.get_path\n"
              "sysconfig.get_path = lambda name, *a, **k: '/nonexistent' "
              "if name == 'include' else get(name, *a, **k)\n",
}


def import_fresh_copy(tmp_path, patch: str, check: str):
    """Run ``check`` after importing ``dissim.wsolver`` as w and
    ``dissim.thetasolver`` as t from a copy of the package under
    tmp_path, made with no built kernel on the first call, ``patch`` run
    first with numpy and sysconfig imported; the finished process and
    the files left in the copy's ``__pycache__``."""
    package = Path(wsolver.__file__).parent
    shutil.copytree(package, tmp_path / "dissim", dirs_exist_ok=True,
                    ignore=shutil.ignore_patterns("__pycache__"))
    code = (
        "import numpy, sysconfig\n" + patch
        + "import dissim.wsolver as w, dissim.thetasolver as t\n" + check
    )
    env = dict(src_env(), PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, env=env, timeout=300)
    return proc, list((tmp_path / "dissim" / "__pycache__").iterdir())
