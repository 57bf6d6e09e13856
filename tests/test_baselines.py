"""Latent-SVM baselines and their equivalence properties."""

import contextlib
import gc
import io
import weakref

import numpy as np
import pytest

import dissim.cli as cli
import dissim.wsolver as wsolver
from dissim import (
    LOSS_KINDS,
    ConfigError,
    Dataset,
    LabelOnlyZeroOneLoss,
    OverlapLoss,
    SampleRecord,
    SolverError,
    TaskSpec,
    ZeroOneLoss,
    cccp_w,
    generate,
    ilsvm_train,
    load_dataset,
    lsvm_train,
    make_loss,
    save_dataset,
    stratified_split,
)
from dissim.baselines import ilsvm_latent_estimates
from dissim.model import predict
from helpers import (
    delta_restricted_objective,
    dissimilarity_objective,
    loss_augmented_argmax,
    make_dataset,
    reference_ilsvm_latent_estimates,
    reference_pointwise_tables,
    scalar_loss,
    stack_case,
)


class TestLSVM:
    def test_separable_instance_zero_slack(self):
        psi = np.zeros((2, 1, 2))
        psi[0, 0] = (1.0, 0.0)
        psi[1, 0] = (-1.0, 0.0)
        a = SampleRecord(id="a", truth_label=0, psi=psi,
                         phi=np.zeros((1, 1)))
        b = SampleRecord(id="b", truth_label=1, psi=-psi,
                         phi=np.zeros((1, 1)))
        dset = Dataset(2, 2, 1, (a, b))
        params, report = lsvm_train(dset, LabelOnlyZeroOneLoss(), C=100.0,
                                    inner_tol=1e-6)
        from dissim import slack

        mean_slack = np.mean(
            [slack(params.w, params.theta, s, LabelOnlyZeroOneLoss())
             for s in dset]
        )
        assert mean_slack < 1e-6

    def test_deterministic(self):
        dset = make_dataset(30, n=4)
        a, _ = lsvm_train(dset, ZeroOneLoss(), C=1.0)
        b, _ = lsvm_train(dset, ZeroOneLoss(), C=1.0)
        np.testing.assert_array_equal(a.w, b.w)

    def test_theta_is_zero_vector(self):
        dset = make_dataset(31, n=3)
        params, _ = lsvm_train(dset, ZeroOneLoss(), C=1.0)
        np.testing.assert_array_equal(params.theta, np.zeros(dset.d_theta))

    def test_trace_non_increasing(self):
        for seed in range(5):
            dset = make_dataset(300 + seed, n=4, num_labels=3, num_latents=3)
            _, report = lsvm_train(dset, ZeroOneLoss(), C=1.0, inner_tol=1e-4)
            assert np.all(np.diff(report.trace) <= 1e-9 + 1e-4)


class TestObservationOne:
    @pytest.mark.parametrize("seed", range(4))
    def test_lsvm_matches_dissim_solver_exactly(self, seed):
        dset = make_dataset(400 + seed, n=4, num_labels=3, num_latents=4)
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal(3)
        loss = LabelOnlyZeroOneLoss()
        w_ours, rep_ours = cccp_w(dset, theta, None, loss, C=1.0)
        params, rep_base = lsvm_train(dset, loss, C=1.0)
        assert len(rep_ours.iterates) == len(rep_base.iterates)
        for a, b in zip(rep_ours.iterates, rep_base.iterates):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(w_ours, params.w)

    def test_latent_dependent_loss_breaks_equivalence_sometimes(self):
        # not a guarantee either way; just pin that the two solvers are
        # allowed to differ once the loss depends on latent values
        dset = make_dataset(55, n=4, num_labels=3, num_latents=4)
        w_ours, _ = cccp_w(dset, np.zeros(3), None, ZeroOneLoss(), C=1.0)
        params, _ = lsvm_train(dset, ZeroOneLoss(), C=1.0)
        assert w_ours.shape == params.w.shape


class TestILSVMLatentEstimates:
    def test_correct_label_returns_predicted_latent(self):
        dset = make_dataset(32, n=6, num_labels=2, num_latents=4)
        rng = np.random.default_rng(32)
        w = rng.standard_normal(5)
        refs = ilsvm_latent_estimates(w, dset, ZeroOneLoss())
        for s, ref in zip(dset, refs):
            y_hat, k_hat = predict(w, s)
            if y_hat == s.truth_label:
                assert ref == k_hat
            else:
                assert ref == 0

    def test_brute_force_delta_minimizer(self):
        from dissim import OverlapLoss

        dset = make_dataset(33, n=5, num_labels=3, num_latents=4,
                            geometric=True)
        rng = np.random.default_rng(33)
        w = rng.standard_normal(5)
        loss = OverlapLoss()
        refs = ilsvm_latent_estimates(w, dset, loss)
        for s, ref in zip(dset, refs):
            y_hat, k_hat = predict(w, s)
            costs = [scalar_loss(loss, s.truth_label, k, y_hat, k_hat, s)
                     for k in range(s.num_latents)]
            best = min(range(s.num_latents), key=lambda k: (costs[k], k))
            assert ref == best


class TestDeltaRestrictedObjective:
    def test_perfect_placements_zero(self):
        dset = make_dataset(34, n=4, num_labels=2)
        rng = np.random.default_rng(34)
        w = rng.standard_normal(5)
        loss = ZeroOneLoss()
        placements = []
        perfect = True
        for s in dset:
            y_hat, k_hat = predict(w, s)
            placements.append(k_hat)
            perfect = perfect and y_hat == s.truth_label
        v = delta_restricted_objective(dset, w, placements, loss)
        if perfect:
            assert v == 0.0

    def test_wrong_labels_cost_one(self):
        # features steer every prediction to label 1 while truths are 0
        psi = np.zeros((2, 2, 2))
        psi[1, 0] = (1.0, 0.0)
        samples = tuple(
            SampleRecord(id=f"s{i}", truth_label=0,
                         psi=psi, phi=np.zeros((2, 1)))
            for i in range(3)
        )
        dset = Dataset(2, 2, 1, samples)
        v = delta_restricted_objective(dset, np.array([1.0, 0.0]), [1, 0, 1],
                                       ZeroOneLoss())
        assert v == 1.0

    def test_matches_injected_delta_dissimilarity(self):
        # against the generic objective with the conditional forced to a
        # delta through an overwhelming phi gap
        rng = np.random.default_rng(35)
        n, K = 4, 3
        samples = []
        placements = [int(rng.integers(0, K)) for _ in range(n)]
        for i in range(n):
            phi = np.zeros((K, 1))
            phi[placements[i], 0] = 80.0
            samples.append(SampleRecord(
                id=f"s{i}",
                truth_label=int(rng.integers(0, 2)),
                psi=rng.standard_normal((2, K, 4)),
                phi=phi,
            ))
        dset = Dataset(2, 4, 1, tuple(samples))
        w = rng.standard_normal(4)
        loss = ZeroOneLoss()
        direct = delta_restricted_objective(dset, w, placements, loss)
        injected = dissimilarity_objective(w, np.array([1.0]), dset, loss, 0.1)
        assert direct == pytest.approx(injected, abs=1e-12)

    def test_placement_out_of_range(self):
        dset = make_dataset(36, n=2)
        with pytest.raises(IndexError):
            delta_restricted_objective(dset, np.zeros(5), [0, 99],
                                       ZeroOneLoss())


class TestObservationThree:
    @pytest.mark.parametrize("seed", range(4))
    def test_latent_step_minimizes_restricted_objective(self, seed):
        dset = make_dataset(500 + seed, n=4, num_labels=3, num_latents=4)
        loss = ZeroOneLoss()
        _, report = ilsvm_train(dset, loss, C=1.0)
        for w in report.iterates:
            refs = ilsvm_latent_estimates(w, dset, loss)
            # per-sample brute force over all placements of the restricted
            # objective; the mean decomposes, so compare sample-wise
            for idx, s in enumerate(dset):
                y_hat, k_hat = predict(w, s)
                best_cost, best_k = min(
                    (scalar_loss(loss, s.truth_label, k, y_hat, k_hat, s), k)
                    for k in range(s.num_latents)
                )
                assert refs[idx] == best_k
                assert scalar_loss(
                    loss, s.truth_label, refs[idx], y_hat, k_hat, s
                ) == best_cost

    def test_global_brute_force_over_joint_placements(self):
        # joint minimization over placement vectors agrees with the
        # per-sample rule on a tiny instance
        import itertools

        dset = make_dataset(37, n=3, num_labels=2, num_latents=3)
        rng = np.random.default_rng(37)
        w = rng.standard_normal(5)
        loss = ZeroOneLoss()
        refs = ilsvm_latent_estimates(w, dset, loss)
        best_val, best_vec = min(
            (delta_restricted_objective(dset, w, vec, loss), vec)
            for vec in itertools.product(range(3), repeat=3)
        )
        assert delta_restricted_objective(dset, w, refs, loss) == (
            pytest.approx(best_val, abs=1e-12)
        )


class TestILSVM:
    def test_deterministic(self):
        dset = make_dataset(38, n=4)
        a, _ = ilsvm_train(dset, ZeroOneLoss(), C=1.0)
        b, _ = ilsvm_train(dset, ZeroOneLoss(), C=1.0)
        np.testing.assert_array_equal(a.w, b.w)

    def test_trace_non_increasing(self):
        for seed in range(5):
            dset = make_dataset(600 + seed, n=4, num_labels=3, num_latents=3)
            _, report = ilsvm_train(dset, ZeroOneLoss(), C=1.0, inner_tol=1e-4)
            assert np.all(np.diff(report.trace) <= 1e-9 + 1e-4)


def twin_box_dataset(seed):
    """A geometric dataset whose candidates 0 and 1 share one box, so the
    two rows of every overlap loss table are equal."""
    dset = make_dataset(seed, n=6, num_labels=3, num_latents=4,
                        geometric=True)
    samples = []
    for s in dset:
        boxes = s.boxes.copy()
        boxes[1] = boxes[0]
        samples.append(SampleRecord(id=s.id, truth_label=s.truth_label,
                                    psi=s.psi, phi=s.phi, boxes=boxes,
                                    truth_latent=s.truth_latent))
    return Dataset(dset.num_labels, dset.d_w, dset.d_theta, tuple(samples))


class TestRepeatStop:
    """With epsilon 0 only a repeated convex subproblem ends CCCP, so the
    iteration count and trace pin which subproblems count as repeats.
    Equal loss tables (twin boxes; a latent-independent loss) are where a
    key of integers could disagree with a key on the tables' bytes; the
    pinned values are those the table-byte key gives."""

    CASES = {
        ("twin", "lsvm"): (4, [10.0, 9.053998129560558, 7.130952138303676,
                               6.672037410047262]),
        ("twin", "ilsvm"): (6, [10.0, 9.053998129560558, 7.130952138303676,
                                6.710963209184037, 6.6720374100472455]),
        ("label", "lsvm"): (5, [10.0, 9.663676318973263, 7.153045784228795,
                                6.081850394339746]),
        ("label", "ilsvm"): (5, [10.0, 9.663676318973263, 7.153045784228795,
                                 6.081850394339746]),
    }

    @pytest.mark.parametrize("task, method", sorted(CASES))
    def test_pinned_reports(self, task, method):
        if task == "twin":
            dset, loss = twin_box_dataset(702), OverlapLoss()
        else:
            dset, loss = make_dataset(702, n=6), LabelOnlyZeroOneLoss()
        fit = lsvm_train if method == "lsvm" else ilsvm_train
        _, report = fit(dset, loss, C=10.0, epsilon=0.0)
        iterations, trace = self.CASES[task, method]
        assert report.iterations == iterations
        assert report.termination == "repeat"
        assert report.trace == pytest.approx(trace, rel=1e-12)


def generated_task(clean, seed=3):
    spec = TaskSpec(num_classes=3, per_class=3, grid=4, boxes=4, box_cells=3,
                    noise=0.0 if clean else 0.5,
                    clutter=0.0 if clean else 0.3, seed=seed)
    return generate(spec)[0]


def reordered(dset):
    return Dataset(dset.num_labels, dset.d_w, dset.d_theta,
                   tuple(reversed(dset.samples)))


def same_fit(a, b):
    (pa, ra), (pb, rb) = a, b
    assert pa.w.tobytes() == pb.w.tobytes()
    assert ra.trace == rb.trace
    assert [w.tobytes() for w in ra.iterates] == [w.tobytes() for w in rb.iterates]
    assert (ra.iterations, ra.termination) == (rb.iterations, rb.termination)


@pytest.fixture
def solves(monkeypatch):
    """The (anchor rows, tables) bytes of every convex subproblem solved."""
    calls = []
    solve = wsolver._solve_inner

    def counted(stack, tables, anchor_rows, *args, **kwargs):
        calls.append((anchor_rows.tobytes(), tables.tobytes()))
        return solve(stack, tables, anchor_rows, *args, **kwargs)

    monkeypatch.setattr(wsolver, "_solve_inner", counted)
    return calls


class TestSharedSolves:
    """lsvm and ilsvm on one training set and loss instance solve each
    convex subproblem at most once, and the fits equal those on a fresh
    loss bit for bit."""

    TOL = 1e-2

    @pytest.mark.parametrize("clean", [False, True])
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_fits_equal_fresh_loss(self, clean, kind):
        dset = generated_task(clean)
        for C in (1e-3, 0.1, 1.0, 10.0):
            shared = make_loss(kind)
            for fit in (lsvm_train, ilsvm_train, lsvm_train):
                same_fit(fit(dset, shared, C, inner_tol=self.TOL),
                         fit(dset, make_loss(kind), C, inner_tol=self.TOL))

    def test_ilsvm_reuses_first_solve(self, solves):
        dset = generated_task(clean=True)
        ilsvm_train(dset, ZeroOneLoss(), 1.0, inner_tol=self.TOL)
        fresh = list(solves)
        shared = ZeroOneLoss()
        lsvm_train(dset, shared, 1.0, inner_tol=self.TOL)
        assert solves[len(fresh)] == fresh[0]  # lsvm's first solve
        del solves[:]
        ilsvm_train(dset, shared, 1.0, inner_tol=self.TOL)
        assert fresh[0] not in solves
        assert len(solves) < len(fresh)
        assert all(problem in fresh for problem in solves)
        del solves[:]
        ilsvm_train(dset, shared, 1.0, inner_tol=self.TOL)
        assert solves == []

    def test_nothing_shared_across_scopes(self, solves):
        dset = generated_task(clean=True)
        C, tol = 1.0, self.TOL

        def run(dataset, loss, C, tol):
            del solves[:]
            fit = ilsvm_train(dataset, loss, C, inner_tol=tol)
            return fit, list(solves)

        variants = [(dset, ZeroOneLoss(), C, tol), (dset, None, 0.1, tol),
                    (dset, None, C, 1e-3), (reordered(dset), None, C, tol)]
        for dataset, loss, C_v, tol_v in variants:
            shared = ZeroOneLoss()
            lsvm_train(dset, shared, C, inner_tol=tol)
            fit, solved = run(dataset, loss or shared, C_v, tol_v)
            fresh_fit, fresh_solved = run(dataset, ZeroOneLoss(), C_v, tol_v)
            same_fit(fit, fresh_fit)
            assert solved == fresh_solved

    def test_solver_error_not_stored(self, monkeypatch):
        dset = generated_task(clean=False)
        loss = ZeroOneLoss()
        solve = wsolver._solve_inner

        def failing(stack, tables, anchor_rows, C, inner_tol):
            w = solve(stack, tables, anchor_rows, C, inner_tol)
            raise SolverError("refused", last_iterate=w)

        monkeypatch.setattr(wsolver, "_solve_inner", failing)
        with pytest.raises(SolverError):
            lsvm_train(dset, loss, 1.0, inner_tol=self.TOL)
        assert loss.stack(dset).solves[1.0, self.TOL] == {}
        monkeypatch.setattr(wsolver, "_solve_inner", solve)
        same_fit(lsvm_train(dset, loss, 1.0, inner_tol=self.TOL),
                 lsvm_train(dset, ZeroOneLoss(), 1.0, inner_tol=self.TOL))

    def test_entries_freed_with_loss(self):
        dset = generated_task(clean=True)
        loss = OverlapLoss()
        lsvm_train(dset, loss, 1.0, inner_tol=self.TOL)
        stored = [weakref.ref(w) for w in
                  loss.stack(dset).solves[1.0, self.TOL].values()]
        assert stored and all(ref() is not None for ref in stored)
        del loss
        gc.collect()
        assert all(ref() is None for ref in stored)

    def test_store_freed_with_training_set(self):
        dset = generated_task(clean=True)
        loss = OverlapLoss()
        lsvm_train(dset, loss, 1.0, inner_tol=self.TOL)
        ilsvm_train(dset, loss, 1.0, inner_tol=self.TOL)
        stored = [weakref.ref(w) for w in
                  loss.stack(dset).solves[1.0, self.TOL].values()]
        assert stored and all(ref() is not None for ref in stored)
        samples = dset.samples  # the samples outlive the training set
        del dset
        gc.collect()
        assert all(ref() is None for ref in stored)
        assert len(loss._stacks) == 0
        assert all(loss.view(s) is not None for s in samples)

    def test_experiment_shares_each_split(self, solves, tmp_path):
        """One experiment call over lsvm and ilsvm solves as many
        subproblems as lsvm_train then ilsvm_train on one shared split per
        fold, which is fewer than with a split per method.  (The store is
        keyed by C, so the experiment's split per (fold, C) cell shares as
        much.)  One worker, so that the solves are counted in this
        process."""
        path = tmp_path / "task.txt"
        save_dataset(generated_task(clean=True), path)
        grid, folds, seed = (0.1, 1.0), 2, 4
        argv = ["experiment", "--data", str(path), "--methods", "lsvm,ilsvm",
                "--losses", "zero_one", "--inner-tol", repr(self.TOL),
                "--C-grid", ",".join(map(repr, grid)), "--folds", str(folds),
                "--seed", str(seed), "--no-timings", "--workers", "1",
                "--out", str(tmp_path / "results.csv")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        experiment = len(solves)

        def split(dataset, fold):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=(seed, fold)))
            return stratified_split(dataset, 0.6, rng)[0]

        def count(split_per_method):
            del solves[:]
            dataset, loss = load_dataset(path), ZeroOneLoss()
            for fold in range(folds):
                train_ds = split(dataset, fold)
                for fit in (lsvm_train, ilsvm_train):
                    if split_per_method:
                        train_ds = split(dataset, fold)
                    for C in grid:
                        fit(train_ds, loss, C, inner_tol=self.TOL)
            return len(solves)

        assert experiment == count(split_per_method=False)
        assert experiment < count(split_per_method=True)


class TestStackedEstimates:
    """ilsvm's latent estimates and both baselines' pointwise tables, read
    from ``loss.stack``, equal the per-sample loops bit for bit."""

    LOSSES = [ZeroOneLoss, OverlapLoss, LabelOnlyZeroOneLoss]

    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("loss_cls", LOSSES)
    @pytest.mark.parametrize("seed", range(4))
    def test_estimates_equal_reference(self, uniform, loss_cls, seed):
        dset = stack_case(seed, uniform)
        loss = loss_cls()
        rng = np.random.default_rng(seed)
        for scale in (0.0, 0.1, 1.0, 10.0):
            w = scale * rng.standard_normal(dset.d_w)
            got = ilsvm_latent_estimates(w, dset, loss)
            assert got == reference_ilsvm_latent_estimates(w, dset, loss)
            assert all(type(k) is int for k in got)

    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("loss_cls", LOSSES)
    def test_pointwise_tables_equal_reference(self, uniform, loss_cls):
        dset = stack_case(5, uniform)
        loss = loss_cls()
        rng = np.random.default_rng(5)
        for _ in range(5):
            refs = [int(rng.integers(s.num_latents)) for s in dset]
            tables = loss.stack(dset).pointwise(refs)
            want = reference_pointwise_tables(dset, refs, loss)
            for i, (s, table) in enumerate(zip(dset, want)):
                K = s.num_latents
                assert tables[i, :, :K].tobytes() == table.tobytes()
                assert np.all(tables[i, :, K:] == -np.inf)

    def test_wrong_w_shape_rejected(self):
        dset = stack_case(0, False)
        with pytest.raises(ConfigError, match="w has shape"):
            ilsvm_latent_estimates(np.zeros(dset.d_w + 1), dset, ZeroOneLoss())
