"""Block-coordinate trainer, evaluation, splits, and the fold protocol."""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from dissim import (
    ConfigError,
    Dataset,
    HyperParams,
    InputError,
    LabelOnlyZeroOneLoss,
    LossFunction,
    ModelParams,
    OverlapLoss,
    ResultRow,
    SampleRecord,
    SolverError,
    SSDConfig,
    TaskSpec,
    TrainConfig,
    ZeroOneLoss,
    evaluate,
    generate,
    load_model,
    load_results,
    predict,
    regularized_objective,
    run_protocol,
    save_model,
    save_results,
    stratified_split,
    train,
)
import dissim._kernel as kernel
import dissim.trainer as trainer
from dissim.trainer import DEFAULT_C_GRID, METHODS, _fit, run_protocols
from helpers import (
    LoggedProducts,
    make_dataset,
    make_sample,
    no_child_left,
    reference_evaluate,
    scalar_loss,
    src_env,
    stack_case,
)


def quick_config(C=1.0, max_outer_rounds=4):
    return TrainConfig(
        hyper=HyperParams(C=C),
        ssd=SSDConfig(steps_per_sample=5, seed=0),
        inner_tol=1e-3,
        max_outer_rounds=max_outer_rounds,
    )


class TestTrain:
    def test_objective_never_above_origin_value(self):
        for seed in range(4):
            dset = make_dataset(700 + seed, n=5, num_labels=2, num_latents=3)
            cfg = quick_config()
            model = train(dset, ZeroOneLoss(), cfg)
            origin = regularized_objective(
                np.zeros(dset.d_w), np.zeros(dset.d_theta), dset,
                ZeroOneLoss(), cfg.hyper
            )
            assert model.trace[-1] <= origin + 1e-12
            assert np.all(np.diff(model.trace) <= 1e-12)

    def test_trace_matches_returned_params(self):
        dset = make_dataset(41, n=4)
        cfg = quick_config()
        model = train(dset, ZeroOneLoss(), cfg)
        direct = regularized_objective(model.params.w, model.params.theta,
                                       dset, ZeroOneLoss(), cfg.hyper)
        assert model.trace[-1] == pytest.approx(direct, abs=1e-10)

    def test_deterministic(self):
        dset = make_dataset(42, n=4)
        a = train(dset, ZeroOneLoss(), quick_config())
        b = train(dset, ZeroOneLoss(), quick_config())
        np.testing.assert_array_equal(a.params.w, b.params.w)
        np.testing.assert_array_equal(a.params.theta, b.params.theta)
        assert a.trace == b.trace

    def test_termination_reason_vocabulary(self):
        dset = make_dataset(43, n=4)
        model = train(dset, ZeroOneLoss(), quick_config())
        assert model.termination in ("tolerance", "round_budget")
        squeezed = train(dset, ZeroOneLoss(), quick_config(max_outer_rounds=1))
        assert squeezed.termination == "round_budget"
        # the baselines report why CCCP stopped: a large C * epsilon ends
        # the first round on tolerance; at the default epsilon this
        # instance's subproblem comes back
        for method in ("lsvm", "ilsvm"):
            for epsilon, reason in ((1e-3, "repeat"), (1e2, "tolerance")):
                cfg = replace(quick_config(),
                              hyper=HyperParams(C=1.0, epsilon=epsilon))
                termination = _fit(method, dset, ZeroOneLoss(), cfg).termination
                assert termination == reason

    def test_single_latent_label_only_closed_form(self):
        # one sample, one latent value, latent-independent loss: the w-step
        # is a plain two-class SVM whose solution is min(C, 1/||d||^2) d
        rng = np.random.default_rng(44)
        psi = rng.standard_normal((2, 1, 3))
        sample = SampleRecord(id="s", truth_label=0, psi=psi,
                              phi=np.zeros((1, 2)))
        dset = Dataset(2, 3, 2, (sample,))
        d = np.asarray(psi[0, 0]) - np.asarray(psi[1, 0])
        C = 0.5
        expect = min(C, 1.0 / float(d @ d)) * d
        cfg = TrainConfig(hyper=HyperParams(C=C),
                          ssd=SSDConfig(steps_per_sample=5, seed=0),
                          inner_tol=1e-8, max_outer_rounds=3)
        model = train(dset, LabelOnlyZeroOneLoss(), cfg)
        np.testing.assert_allclose(model.params.w, expect, atol=1e-9)


class TestRoundQuantitiesOnce:
    """A train call computes the posteriors once per theta and scores no
    w twice in a row: the solved w's product serves the CCCP loop, the
    theta step, the objective and the next round's start, and the
    objective's posteriors and tables serve the next w step."""

    @pytest.mark.parametrize("loss_cls", [ZeroOneLoss, OverlapLoss])
    def test_no_product_repeats(self, loss_cls):
        dset, _ = generate(TaskSpec(per_class=3, seed=0))
        loss = loss_cls()
        stack = loss.stack(dset)
        ws, thetas = [], []
        stack.scoring.psi_rows = LoggedProducts(stack.scoring.psi_rows, ws)
        (group,) = stack.blocks
        stack.blocks = [group._replace(phi=LoggedProducts(group.phi, thetas, True))]
        config = TrainConfig(hyper=HyperParams(C=0.1),
                             ssd=SSDConfig(steps_per_sample=10, seed=0),
                             inner_tol=1e-2, max_outer_rounds=6)
        record = train(dset, loss, config)
        rounds = len(record.trace) - 1
        assert rounds >= 2
        assert len(thetas) == rounds + 1
        for log in (ws, thetas):
            assert all(a.tobytes() != b.tobytes() for a, b in zip(log, log[1:]))


class TestEvaluate:
    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("loss_cls", [ZeroOneLoss, OverlapLoss,
                                          LabelOnlyZeroOneLoss])
    @pytest.mark.parametrize("seed", range(3))
    def test_stacked_equals_reference(self, uniform, loss_cls, seed):
        dset = stack_case(seed, uniform, n=12)
        loss = loss_cls()
        rng = np.random.default_rng(seed)
        for scale in (0.0, 0.1, 1.0, 10.0):
            params = ModelParams(scale * rng.standard_normal(dset.d_w),
                                 np.zeros(dset.d_theta))
            got = evaluate(params, dset, loss)
            want = reference_evaluate(params, dset, loss)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_wrong_w_shape_rejected(self):
        dset = stack_case(0, False)
        params = ModelParams(np.zeros(dset.d_w + 1), np.zeros(dset.d_theta))
        with pytest.raises(ConfigError, match="w has shape"):
            evaluate(params, dset, ZeroOneLoss())

    def test_perfect_model_scores_zero(self):
        rng = np.random.default_rng(45)
        samples = []
        for i in range(4):
            s = make_sample(rng, f"s{i}", 2, 3, 4, 2)
            psi = np.array(s.psi)
            # plant an unambiguous peak at the truth pair
            psi[s.truth_label, s.truth_latent] += 50.0 * np.ones(4)
            samples.append(SampleRecord(
                id=s.id, truth_label=s.truth_label, psi=psi, phi=s.phi,
                truth_latent=s.truth_latent,
            ))
        dset = Dataset(2, 4, 2, tuple(samples))
        params = ModelParams(np.ones(4), np.zeros(2))
        assert evaluate(params, dset, ZeroOneLoss()) == 0.0

    def test_wrong_label_everywhere_scores_hundred(self):
        psi = np.zeros((2, 2, 2))
        psi[1, 0] = (1.0, 0.0)
        samples = tuple(
            SampleRecord(id=f"s{i}", truth_label=0,
                         psi=psi, phi=np.zeros((2, 1)), truth_latent=i % 2)
            for i in range(3)
        )
        dset = Dataset(2, 2, 1, samples)
        params = ModelParams(np.array([1.0, 0.0]), np.zeros(1))
        assert evaluate(params, dset, ZeroOneLoss()) == 100.0

    def test_half_and_half_averages_to_fifty(self):
        psi_right = np.zeros((2, 1, 2))
        psi_right[0, 0] = (1.0, 0.0)
        psi_wrong = np.zeros((2, 1, 2))
        psi_wrong[1, 0] = (1.0, 0.0)
        a = SampleRecord(id="a", truth_label=0, psi=psi_right,
                         phi=np.zeros((1, 1)), truth_latent=0)
        b = SampleRecord(id="b", truth_label=0, psi=psi_wrong,
                         phi=np.zeros((1, 1)), truth_latent=0)
        dset = Dataset(2, 2, 1, (a, b))
        params = ModelParams(np.array([1.0, 0.0]), np.zeros(1))
        assert evaluate(params, dset, ZeroOneLoss()) == 50.0

    def test_requires_truth_latent(self):
        dset = make_dataset(46, n=2)
        stripped = Dataset(
            dset.num_labels, dset.d_w, dset.d_theta,
            tuple(
                SampleRecord(id=s.id, truth_label=s.truth_label, psi=s.psi,
                             phi=s.phi)
                for s in dset
            ),
        )
        with pytest.raises(InputError):
            evaluate(ModelParams(np.zeros(5), np.zeros(3)), stripped,
                     ZeroOneLoss())

    def test_scaling_invariance(self):
        dset = make_dataset(47, n=4)
        rng = np.random.default_rng(47)
        w = rng.standard_normal(5)
        params = ModelParams(w, np.zeros(3))
        scaled = ModelParams(7.5 * w, np.zeros(3))
        assert evaluate(params, dset, ZeroOneLoss()) == evaluate(
            scaled, dset, ZeroOneLoss()
        )

    @pytest.mark.parametrize("geometric", [False, True])
    def test_python_float_matching_scalar_loss(self, geometric, tmp_path):
        losses = [ZeroOneLoss(), LabelOnlyZeroOneLoss()]
        if geometric:
            losses.append(OverlapLoss())
        for seed in range(5):
            dset = make_dataset(60 + seed, n=7, num_labels=3, num_latents=5,
                                geometric=geometric, uniform_shapes=False)
            w = np.random.default_rng(seed).standard_normal(dset.d_w)
            params = ModelParams(w, np.zeros(dset.d_theta))
            for loss in losses:
                total = 0.0
                for s in dset:
                    y_hat, k_hat = predict(w, s)
                    total += scalar_loss(loss, s.truth_label, s.truth_latent,
                                         y_hat, k_hat, s)
                value = evaluate(params, dset, loss)
                assert type(value) is float
                assert value == 100.0 * total / len(dset)
                # a numpy scalar would be written as np.float64(...)
                path = tmp_path / "r.csv"
                save_results([ResultRow("dissim", "zero_one", 1.0, 0, value,
                                        0.5, 0.0)], path)
                assert "np.float64(" not in path.read_text()


class TestStratifiedSplit:
    def test_partition_and_stratification(self):
        dset = make_dataset(48, n=20, num_labels=2)
        rng = np.random.default_rng(0)
        train_set, test_set = stratified_split(dset, 0.6, rng)
        ids = {s.id for s in train_set} | {s.id for s in test_set}
        assert len(ids) == 20
        assert len(train_set) + len(test_set) == 20
        for label in range(2):
            total = sum(s.truth_label == label for s in dset)
            got = sum(s.truth_label == label for s in train_set)
            assert got == max(1, min(total - 1, round(0.6 * total)))

    def test_deterministic_under_seed(self):
        dset = make_dataset(49, n=12)
        a_train, a_test = stratified_split(dset, 0.6,
                                           np.random.default_rng(9))
        b_train, b_test = stratified_split(dset, 0.6,
                                           np.random.default_rng(9))
        assert [s.id for s in a_train] == [s.id for s in b_train]
        assert [s.id for s in a_test] == [s.id for s in b_test]

    def test_rejects_singleton_class(self):
        rng = np.random.default_rng(50)
        samples = [make_sample(rng, "a", 2, 3, 4, 2),
                   make_sample(rng, "b", 2, 3, 4, 2)]
        fixed = []
        for i, s in enumerate(samples):
            fixed.append(SampleRecord(
                id=s.id, truth_label=i,
                psi=s.psi, phi=s.phi, truth_latent=s.truth_latent,
            ))
        dset = Dataset(2, 4, 2, tuple(fixed))
        with pytest.raises(InputError):
            stratified_split(dset, 0.6, np.random.default_rng(1))


class TestRunProtocol:
    def small_dataset(self):
        return make_dataset(51, n=12, num_labels=2, num_latents=3,
                            d_w=4, d_theta=2)

    def small_config(self):
        return TrainConfig(
            hyper=HyperParams(),
            ssd=SSDConfig(steps_per_sample=3, seed=0),
            inner_tol=1e-2,
            max_outer_rounds=2,
            C_grid=(0.1, 1.0),
        )

    @pytest.mark.parametrize("method", METHODS)
    def test_row_count_and_cells(self, method):
        res = run_protocol(self.small_dataset(), ZeroOneLoss(),
                           self.small_config(), n_folds=3, methods=(method,))
        assert len(res.rows) == 3 * 2
        cells = {(r.C, r.fold) for r in res.rows}
        assert len(cells) == 6
        for r in res.rows:
            assert 0.0 <= r.test_loss <= 100.0
            assert r.method == method

    def test_methods_equal_single_method_calls(self):
        """One call over every method returns, method-major, the rows and
        summary of one call per method, bit for bit."""
        config = self.small_config()
        joint = run_protocol(self.small_dataset(), ZeroOneLoss(), config,
                             n_folds=2, methods=METHODS)
        rows, summary = [], []
        for method in METHODS:
            single = run_protocol(self.small_dataset(), ZeroOneLoss(), config,
                                  n_folds=2, methods=(method,))
            rows += single.rows
            summary += single.summary

        def cells(rs):
            return [(r.method, r.C, r.fold, r.test_loss.hex(),
                     r.train_objective.hex()) for r in rs]

        assert [r.method for r in joint.rows] == [
            m for m in METHODS for _ in range(2 * len(config.C_grid))]
        assert cells(joint.rows) == cells(rows)
        assert joint.summary == summary

    def test_summary_recomputes_from_rows(self):
        res = run_protocol(self.small_dataset(), ZeroOneLoss(),
                           self.small_config(), n_folds=3)
        for point in res.summary:
            losses = [r.test_loss for r in res.rows if r.C == point.C]
            assert point.mean == pytest.approx(np.mean(losses), abs=1e-12)
            assert point.std == pytest.approx(np.std(losses), abs=1e-12)

    def test_deterministic_apart_from_timings(self):
        a = run_protocol(self.small_dataset(), ZeroOneLoss(),
                         self.small_config(), n_folds=2)
        b = run_protocol(self.small_dataset(), ZeroOneLoss(),
                         self.small_config(), n_folds=2)
        for ra, rb in zip(a.rows, b.rows):
            assert (ra.C, ra.fold, ra.test_loss, ra.train_objective) == (
                rb.C, rb.fold, rb.test_loss, rb.train_objective
            )

    @staticmethod
    def flat(result):
        """Rows and summary in order, every float by its repr."""
        return (
            [(r.method, repr(r.C), r.fold, repr(r.test_loss),
              repr(r.train_objective)) for r in result.rows],
            [(p.method, repr(p.C), repr(p.mean), repr(p.std))
             for p in result.summary],
        )

    @pytest.mark.parametrize("uniform", [True, False])
    def test_worker_counts_agree(self, uniform):
        """1, 2 and 3 workers return the same rows and summary, in the
        same order, bit for bit; the ragged-K case too."""
        dset = make_dataset(51, n=12, num_labels=2, num_latents=4, d_w=4,
                            d_theta=2, uniform_shapes=uniform)
        assert (len({s.num_latents for s in dset}) == 1) == uniform
        got = [
            self.flat(run_protocol(dset, ZeroOneLoss(), self.small_config(),
                                   n_folds=3, methods=METHODS, workers=w))
            for w in (1, 2, 3)
        ]
        assert got[1] == got[0]
        assert got[2] == got[0]
        assert multiprocessing.active_children() == []
        assert no_child_left()

    def test_losses_pooled_as_one_call_per_loss(self):
        dset = self.small_dataset()
        pooled = run_protocols(dset, [ZeroOneLoss(), LabelOnlyZeroOneLoss()],
                               self.small_config(), n_folds=2,
                               methods=("dissim", "lsvm"), workers=2)
        for loss, result in zip((ZeroOneLoss(), LabelOnlyZeroOneLoss()),
                                pooled):
            alone = run_protocol(dset, loss, self.small_config(), n_folds=2,
                                 methods=("dissim", "lsvm"), workers=1)
            assert self.flat(result) == self.flat(alone)

    def test_error_cancels_queued_cells(self, tmp_path, monkeypatch):
        """The largest C goes out first and fails; the parent re-raises
        its error, the cells still queued never run, and no worker is
        left."""
        grid = tuple(float(c) for c in range(1, 21))

        def stub(method, dataset, loss, config):
            if config.hyper.C == grid[-1]:
                raise SolverError("round 1: boom")
            (tmp_path / f"{os.getpid()}-{config.hyper.C!r}").touch()
            time.sleep(0.3)
            raise AssertionError("a cell that should not finish did")

        monkeypatch.setattr(trainer, "_fit", stub)
        config = replace(self.small_config(), C_grid=grid)
        with pytest.raises(SolverError, match="^round 1: boom$"):
            run_protocol(self.small_dataset(), ZeroOneLoss(), config,
                         n_folds=1, methods=("lsvm",), workers=2)
        assert len(list(tmp_path.iterdir())) <= 8
        assert multiprocessing.active_children() == []
        assert no_child_left()

    def test_first_out_error_wins(self, tmp_path, monkeypatch):
        """Two cells fail, each in its own worker.  The cell that went out
        second fails first in time, yet the error re-raised is that of the
        cell that went out first, the larger C."""
        started = tmp_path / "second-out-started"

        def stub(method, dataset, loss, config):
            if config.hyper.C == 1.0:
                started.touch()
                raise SolverError("went out second")
            deadline = time.monotonic() + 30.0
            while not started.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise SolverError("went out first")

        monkeypatch.setattr(trainer, "_fit", stub)
        config = replace(self.small_config(), C_grid=(1.0, 2.0))
        with pytest.raises(SolverError, match="^went out first$"):
            run_protocol(self.small_dataset(), ZeroOneLoss(), config,
                         n_folds=1, methods=("lsvm",), workers=2)
        assert started.exists()
        assert no_child_left()

    def test_unpicklable_error_keeps_its_name(self, monkeypatch):
        """A cell's error that cannot be pickled comes back from a worker
        as a RuntimeError naming it, not as a lost worker."""
        def stub(method, dataset, loss, config):
            raise Unpicklable()

        monkeypatch.setattr(trainer, "_fit", stub)
        with pytest.raises(RuntimeError, match="^Unpicklable: holds a lock$"):
            run_protocol(self.small_dataset(), ZeroOneLoss(),
                         self.small_config(), n_folds=1, methods=("lsvm",),
                         workers=2)
        assert no_child_left()

    def test_interrupt_reaps_running_workers(self, monkeypatch):
        """An interrupt in the parent while cells run stops and reaps the
        workers at once, rather than waiting for their cells."""
        def stub(method, dataset, loss, config):
            time.sleep(60.0)

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        monkeypatch.setattr(trainer, "_fit", stub)
        previous = signal.signal(signal.SIGALRM, interrupt)
        started = time.monotonic()
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_protocol(self.small_dataset(), ZeroOneLoss(),
                             self.small_config(), n_folds=1,
                             methods=("lsvm",), workers=2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - started < 30.0
        assert no_child_left()

    def test_pool_imports_no_executor(self):
        """Two forked workers fit the cells, and the parent never imports
        multiprocessing or concurrent.futures."""
        code = """
import os, sys
from dissim import OverlapLoss, TaskSpec, TrainConfig, generate
from dissim.trainer import run_protocols
from dissim.thetasolver import SSDConfig
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
data, _ = generate(TaskSpec(num_classes=2, per_class=3, grid=4, boxes=4,
                            box_cells=3, seed=0))
config = TrainConfig(ssd=SSDConfig(steps_per_sample=2, seed=0),
                     inner_tol=1e-2, max_outer_rounds=2, C_grid=(0.1, 1.0))
result, = run_protocols(data, [OverlapLoss()], config, n_folds=1,
                        methods=("dissim", "lsvm"), workers=2)
print(len(forks), len(result.rows))
print(*sorted(m for m in ("multiprocessing", "concurrent.futures")
              if m in sys.modules))
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=src_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["2 4", ""]

    @pytest.mark.skipif(
        not hasattr(kernel.NUMPY, "scipy_openblas_get_num_threads64_"),
        reason="numpy's BLAS is not its bundled OpenBLAS")
    def test_each_worker_runs_one_blas_thread(self, tmp_path):
        """With no BLAS thread variable set and the parent at two BLAS
        threads, each of two forked workers runs its BLAS on one thread,
        as numpy's OpenBLAS reports it, and the parent keeps two."""
        code = """
import os, sys
import dissim._kernel as kernel
import dissim._kernel as kernel
import dissim.trainer as trainer
from dissim import TaskSpec, TrainConfig, ZeroOneLoss, generate
from dissim.thetasolver import SSDConfig
threads = kernel.NUMPY.scipy_openblas_get_num_threads64_
kernel.NUMPY.scipy_openblas_set_num_threads64_(2)
serve = trainer._serve
def reporting(*args):
    serve(*args)
    with open(sys.argv[1], "a") as log:
        log.write(f"{os.getpid()} {threads()}\\n")
trainer._serve = reporting
data, _ = generate(TaskSpec(num_classes=2, per_class=3, grid=4, boxes=4,
                            box_cells=3, seed=0))
config = TrainConfig(ssd=SSDConfig(steps_per_sample=2, seed=0),
                     inner_tol=1e-2, max_outer_rounds=2, C_grid=(0.1, 1.0))
trainer.run_protocols(data, [ZeroOneLoss()], config, n_folds=2,
                      methods=("dissim", "lsvm"), workers=2)
print(os.getpid(), threads())
"""
        env = {name: value for name, value in src_env().items()
               if not name.endswith("_NUM_THREADS")}
        log = tmp_path / "workers.txt"
        proc = subprocess.run([sys.executable, "-c", code, str(log)],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        parent, parent_threads = proc.stdout.split()
        workers = [line.split() for line in log.read_text().splitlines()]
        assert len({pid for pid, _ in workers} - {parent}) == 2
        assert [n for _, n in workers] == ["1", "1"]
        assert parent_threads == "2"

    def test_failed_fork_leaks_nothing(self, monkeypatch):
        """A fork that fails after one worker started: its error comes
        through, the started worker is reaped, and no descriptor is left
        open, the failed fork's reply pipe included."""
        def stub(method, dataset, loss, config):
            time.sleep(60.0)

        forks = []
        real_fork = os.fork

        def fork_once():
            forks.append(1)
            if len(forks) > 1:
                raise OSError(11, "Resource temporarily unavailable")
            return real_fork()

        monkeypatch.setattr(trainer, "_fit", stub)
        monkeypatch.setattr(trainer.os, "fork", fork_once)
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError, match="temporarily unavailable"):
            run_protocol(self.small_dataset(), ZeroOneLoss(),
                         self.small_config(), n_folds=1, methods=("lsvm",),
                         workers=2)
        assert len(forks) == 2
        assert no_child_left()
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize("split", [0.0, 1.0, float("nan")])
    def test_bad_split_refused_before_any_fork(self, monkeypatch, split):
        def no_fork():
            raise AssertionError("forked before checking the split")

        monkeypatch.setattr(trainer.os, "fork", no_fork)
        with pytest.raises(ConfigError,
                           match=r"^split fraction must lie in \(0, 1\)"):
            run_protocols(self.small_dataset(), [ZeroOneLoss()],
                          self.small_config(), split=split, workers=2)

    def test_worker_count_must_be_positive(self):
        with pytest.raises(ConfigError, match="workers"):
            run_protocol(self.small_dataset(), ZeroOneLoss(),
                         self.small_config(), workers=0)

    def test_unknown_method_rejected(self):
        from dissim import ConfigError

        with pytest.raises(ConfigError):
            run_protocol(self.small_dataset(), ZeroOneLoss(),
                         self.small_config(), n_folds=2, methods=("svm",))


class Unpicklable(Exception):
    """An error that pickle refuses: it holds a lock."""

    def __init__(self):
        super().__init__("holds a lock")
        self.lock = threading.Lock()


class NamelessLoss(LossFunction):
    """A user's own loss that sets no ``kind``: zero-one, written out."""

    def pair_matrix(self, sample, y1, y2):
        K = sample.num_latents
        return np.ones((K, K)) - (y1 == y2) * np.eye(K)


class TestRecords:
    """A fit is a ModelRecord and a protocol row a ResultRow, each named by
    its loss's kind, and each comes back equal from its file."""

    LOSSES = (ZeroOneLoss(), OverlapLoss(), LabelOnlyZeroOneLoss(),
              NamelessLoss())

    def dataset(self):
        return make_dataset(52, n=8, num_labels=2, num_latents=3, d_w=4,
                            d_theta=2, geometric=True)

    def config(self):
        return TrainConfig(ssd=SSDConfig(steps_per_sample=3, seed=0),
                           inner_tol=1e-2, max_outer_rounds=2,
                           C_grid=(0.1, 1.0))

    def test_kinds(self):
        assert [loss.kind for loss in self.LOSSES] == [
            "zero_one", "overlap", "label_zero_one", "custom"]

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("loss", LOSSES, ids=lambda loss: loss.kind)
    def test_fit_record_round_trips(self, tmp_path, method, loss):
        record = _fit(method, self.dataset(), loss, self.config())
        assert (record.method, record.loss_kind) == (method, loss.kind)
        save_model(record, tmp_path / "m.txt")
        back = load_model(tmp_path / "m.txt")
        assert back.params.w.tobytes() == record.params.w.tobytes()
        assert back.params.theta.tobytes() == record.params.theta.tobytes()
        assert replace(back, params=record.params) == record

    def test_protocol_rows_round_trip(self, tmp_path):
        results = run_protocols(self.dataset(), self.LOSSES, self.config(),
                                n_folds=2, methods=METHODS, workers=1)
        rows = []
        for loss, result in zip(self.LOSSES, results):
            assert all(type(r) is ResultRow and r.loss_kind == loss.kind
                       for r in result.rows)
            rows += result.rows
        save_results(rows, tmp_path / "r.csv")
        assert load_results(tmp_path / "r.csv") == rows


def test_default_c_grid_matches_protocol():
    assert DEFAULT_C_GRID == (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)
    assert TrainConfig().C_grid == DEFAULT_C_GRID


def test_c_grid_must_increase():
    from dissim import ConfigError

    with pytest.raises(ConfigError):
        TrainConfig(C_grid=(1.0, 1.0))


def test_negative_split_seed_rejected():
    from dissim import ConfigError

    with pytest.raises(ConfigError, match="split_seed"):
        TrainConfig(split_seed=-1)


@pytest.mark.parametrize("field, value", [
    ("inner_tol", float("inf")),
    ("inner_tol", float("nan")),
    ("C_grid", (1.0, float("inf"))),
    ("C_grid", (float("nan"),)),
])
def test_non_finite_settings_rejected(field, value):
    from dissim import ConfigError

    with pytest.raises(ConfigError, match="finite"):
        TrainConfig(**{field: value})
