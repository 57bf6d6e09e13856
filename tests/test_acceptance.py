"""Acceptance gate: one test per shipping criterion.

Each test prints a single ``[criterion NN] ... PASS/FAIL`` line (visible
with -s, or in the failure report) and carries its stated runtime budget
as an assertion.  The brute-force evaluators here are written with plain
Python loops, independent of the package's vectorized paths.
"""

import math
import time

import numpy as np

import dissim.cli as cli
from dissim import (
    HyperParams,
    LabelOnlyZeroOneLoss,
    OverlapLoss,
    SSDConfig,
    TaskSpec,
    TrainConfig,
    ZeroOneLoss,
    cccp_w,
    dissimilarity,
    expected_loss,
    generate,
    ilsvm_train,
    load_dataset,
    lsvm_train,
    run_gradient_checks,
    run_protocol,
    save_dataset,
    self_diversity,
    ssd_theta,
    upper_bound,
)
from dissim.baselines import ilsvm_latent_estimates
from dissim.model import FiniteDistribution, latent_posterior
from dissim.thetasolver import grad_self_diversity, grad_slack, theta_objective
from helpers import (
    delta_restricted_objective,
    dissimilarity_objective,
    make_dataset,
    scalar_loss,
)


def report(num, name, ok, detail, elapsed, budget):
    line = (
        f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} "
        f"({detail}; {elapsed:.1f}s of {budget:.0f}s budget)"
    )
    print(line)
    assert ok, line
    assert elapsed < budget, line


def random_instance(rng, index, geometric):
    n = int(rng.integers(1, 6))
    labels = int(rng.integers(2, 4))
    K = int(rng.integers(2, 9))
    dset = make_dataset(int(rng.integers(1 << 31)) + index, n=n,
                        num_labels=labels, num_latents=K, d_w=4, d_theta=3,
                        geometric=geometric)
    w = 0.7 * rng.standard_normal(4)
    theta = 0.7 * rng.standard_normal(3)
    return dset, w, theta


def brute_posterior(theta, sample):
    acts = [sum(t * f for t, f in zip(theta, sample.phi[k]))
            for k in range(sample.num_latents)]
    exps = [math.exp(a) for a in acts]
    z = sum(exps)
    return [e / z for e in exps]


def brute_expected_loss(theta, sample, y, k, loss):
    probs = brute_posterior(theta, sample)
    return sum(
        p * scalar_loss(loss, sample.truth_label, kp, y, k, sample)
        for kp, p in enumerate(probs)
    )


def brute_self_diversity(theta, sample, loss):
    probs = brute_posterior(theta, sample)
    t = sample.truth_label
    return sum(
        p1 * p2 * scalar_loss(loss, t, k1, t, k2, sample)
        for k1, p1 in enumerate(probs)
        for k2, p2 in enumerate(probs)
    )


def brute_predict(w, sample):
    best, arg = -math.inf, (0, 0)
    for y in range(sample.psi.shape[0]):
        for k in range(sample.num_latents):
            s = sum(wj * fj for wj, fj in zip(w, sample.psi[y, k]))
            if s > best:
                best, arg = s, (y, k)
    return arg


def brute_slack(w, theta, sample, loss):
    labels = sample.psi.shape[0]
    augmented = max(
        sum(wj * fj for wj, fj in zip(w, sample.psi[y, k]))
        + brute_expected_loss(theta, sample, y, k, loss)
        for y in range(labels)
        for k in range(sample.num_latents)
    )
    truth_best = max(
        sum(wj * fj for wj, fj in zip(w, sample.psi[sample.truth_label, k]))
        for k in range(sample.num_latents)
    )
    return augmented - truth_best


def brute_upper_bound(w, theta, dataset, loss, beta):
    total = 0.0
    for s in dataset:
        total += brute_slack(w, theta, s, loss)
        total -= beta * brute_self_diversity(theta, s, loss)
    return total / len(dataset)


def brute_objective(w, theta, dataset, loss, beta):
    total = 0.0
    for s in dataset:
        y, k = brute_predict(w, s)
        total += brute_expected_loss(theta, s, y, k, loss)
        total -= beta * brute_self_diversity(theta, s, loss)
    return total / len(dataset)


class TestCriteria:
    def test_criterion_01_oracle_equivalence(self):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0
        for i in range(100):
            geometric = i % 2 == 1
            loss = OverlapLoss() if geometric else ZeroOneLoss()
            dset, w, theta = random_instance(rng, i, geometric)
            beta = float(rng.uniform(0.05, 0.95))
            s = dset.samples[int(rng.integers(len(dset)))]
            y = int(rng.integers(dset.num_labels))
            k = int(rng.integers(s.num_latents))
            pairs = (
                (expected_loss(theta, s, y, k, loss),
                 brute_expected_loss(theta, s, y, k, loss)),
                (self_diversity(theta, s, loss),
                 brute_self_diversity(theta, s, loss)),
                (upper_bound(w, theta, dset, loss, beta),
                 brute_upper_bound(w, theta, dset, loss, beta)),
                (dissimilarity_objective(w, theta, dset, loss, beta),
                 brute_objective(w, theta, dset, loss, beta)),
            )
            worst = max(worst, max(abs(a - b) for a, b in pairs))
        report(1, "oracle equivalence", worst < 1e-12,
               f"worst abs gap {worst:.2e} over 100 instances",
               time.perf_counter() - start, 10)

    def test_criterion_02_bound_validity(self):
        start = time.perf_counter()
        rng = np.random.default_rng(202)
        worst = -math.inf
        for i in range(100):
            geometric = i % 2 == 0
            loss = OverlapLoss() if geometric else ZeroOneLoss()
            dset, w, theta = random_instance(rng, i, geometric)
            beta = float(rng.uniform(0.05, 0.95))
            gap = dissimilarity_objective(w, theta, dset, loss, beta) - (
                upper_bound(w, theta, dset, loss, beta)
            )
            worst = max(worst, gap)
        report(2, "upper bound dominates objective", worst <= 1e-12,
               f"worst objective-minus-bound {worst:.2e} over 100 draws",
               time.perf_counter() - start, 10)

    def test_criterion_03_self_dissimilarity_zero(self):
        start = time.perf_counter()
        rng = np.random.default_rng(303)
        worst = 0.0
        for i in range(50):
            for loss in (ZeroOneLoss(), OverlapLoss()):
                geometric = isinstance(loss, OverlapLoss)
                dset, _, _ = random_instance(rng, i, geometric)
                s = dset.samples[0]
                probs = rng.dirichlet(np.ones(s.num_latents))
                p = FiniteDistribution(probs)
                y = int(rng.integers(dset.num_labels))
                matrix = loss.pair_matrix(s, y, y)
                for beta in (0.1, 0.5, 0.9):
                    worst = max(worst, abs(dissimilarity(p, p, matrix, beta)))
        report(3, "self dissimilarity is zero", worst < 1e-12,
               f"worst |D(P,P)| {worst:.2e}, 50 draws x 2 losses x 3 betas",
               time.perf_counter() - start, 1)

    def test_criterion_04_gradient_correctness(self):
        start = time.perf_counter()
        worst = 0.0
        for loss, geometric in ((ZeroOneLoss(), False), (OverlapLoss(), True)):
            dset = make_dataset(404 + geometric, n=4, num_labels=3,
                                num_latents=5, d_w=5, d_theta=4,
                                geometric=geometric)
            result = run_gradient_checks(dset, loss, seed=4, draws=50)
            assert result.passed
            worst = max(worst, max(result.worst.values()))
        report(4, "analytic gradients match finite differences",
               worst < 1e-6, f"worst relative error {worst:.2e}, 100 draws",
               time.perf_counter() - start, 30)

    def test_criterion_05_descent_traces_monotone(self):
        start = time.perf_counter()
        rng = np.random.default_rng(505)
        inner_tol = 1e-4
        tol = 1e-9 + inner_tol
        worst = -math.inf
        for i in range(20):
            dset, _, theta = random_instance(rng, i, geometric=True)
            loss = OverlapLoss() if i % 2 else ZeroOneLoss()
            C = float(rng.choice([0.5, 1.0, 5.0]))
            traces = []
            _, rep = cccp_w(dset, theta, None, loss, C, inner_tol=inner_tol)
            traces.append(rep.trace)
            for fit in (lsvm_train, ilsvm_train):
                _, rep = fit(dset, loss, C, inner_tol=inner_tol)
                traces.append(rep.trace)
            for trace in traces:
                rises = [b - a for a, b in zip(trace, trace[1:])]
                worst = max(worst, max(rises, default=-math.inf))
        report(5, "solver objective traces non-increasing", worst <= tol,
               f"worst rise {worst:.2e} vs tolerance {tol:.1e}, "
               "20 instances x 3 solvers",
               time.perf_counter() - start, 60)

    def test_criterion_06_latent_independent_reduction(self):
        start = time.perf_counter()
        rng = np.random.default_rng(606)
        loss = LabelOnlyZeroOneLoss()
        worst = 0.0
        for i in range(10):
            dset, _, theta = random_instance(rng, i, geometric=False)
            C = float(rng.choice([0.5, 2.0]))
            _, ours = cccp_w(dset, theta, None, loss, C, inner_tol=1e-4)
            _, base = lsvm_train(dset, loss, C, inner_tol=1e-4)
            assert len(ours.iterates) == len(base.iterates)
            for a, b in zip(ours.iterates, base.iterates):
                worst = max(worst, float(np.max(np.abs(a - b))))
        report(6, "label-only loss reduces to the latent SVM",
               worst <= 1e-9,
               f"max iterate gap {worst:.2e} over 10 instances",
               time.perf_counter() - start, 60)

    def test_criterion_07_pointwise_latent_step_optimal(self):
        start = time.perf_counter()
        rng = np.random.default_rng(707)
        loss = OverlapLoss()
        checked = 0
        for i in range(10):
            dset, _, _ = random_instance(rng, i, geometric=True)
            C = float(rng.choice([0.5, 2.0]))
            _, rep = ilsvm_train(dset, loss, C, inner_tol=1e-4)
            for w in rep.iterates:
                refs = ilsvm_latent_estimates(w, dset, loss)
                for j in range(len(dset)):
                    K = dset.samples[j].num_latents
                    values = []
                    for k in range(K):
                        cand = list(refs)
                        cand[j] = k
                        values.append(delta_restricted_objective(
                            dset, w, cand, loss))
                    best = min(range(K), key=lambda k: (values[k], k))
                    assert refs[j] == best
                    checked += 1
        report(7, "pointwise latent step minimizes the restricted objective",
               True, f"{checked} per-sample steps matched exactly",
               time.perf_counter() - start, 30)

    def test_criterion_08_stochastic_theta_descent(self):
        start = time.perf_counter()
        dset = make_dataset(808, n=5, num_labels=3, num_latents=4, d_w=6,
                            d_theta=4)
        loss = ZeroOneLoss()
        hyper = HyperParams(C=1.0, J=0.1, beta=0.1)
        rng = np.random.default_rng(88)
        w = 0.7 * rng.standard_normal(6)
        theta0 = 0.5 * rng.standard_normal(4)
        initial = theta_objective(w, theta0, dset, loss, hyper)

        n = len(dset)
        theta = theta0.copy()
        oracle_best = initial
        for t in range(1, 4001):
            g = hyper.J * theta
            for s in dset:
                g = g + (hyper.C / n) * (
                    grad_slack(w, theta, s, loss)
                    - hyper.beta * grad_self_diversity(theta, s, loss)
                )
            theta = theta - g / (hyper.J * t)
            oracle_best = min(
                oracle_best, theta_objective(w, theta, dset, loss, hyper)
            )

        descents = 0
        finals = []
        for seed in range(100):
            theta = ssd_theta(dset, w, theta0, loss, hyper,
                              SSDConfig(steps=600, seed=seed))
            final = theta_objective(w, theta, dset, loss, hyper)
            descents += final < initial
            finals.append(final)
        mean_final = float(np.mean(finals))
        rel = abs(mean_final - oracle_best) / abs(oracle_best)
        report(8, "stochastic theta descent",
               descents >= 95 and rel <= 0.02,
               f"{descents}/100 runs descend; mean final {mean_final:.6f} "
               f"vs full-batch {oracle_best:.6f} (rel {rel:.3f})",
               time.perf_counter() - start, 60)

    def test_criterion_09_directional_experiment(self):
        start = time.perf_counter()
        config = TrainConfig(
            ssd=SSDConfig(steps_per_sample=10, seed=0),
            inner_tol=1e-2,
            max_outer_rounds=6,
        )
        losses = {"zero_one": ZeroOneLoss, "overlap": OverlapLoss}

        noisy, _ = generate(TaskSpec(seed=0))
        best = {}
        for kind, loss_cls in losses.items():
            res = run_protocol(noisy, loss_cls(), config, n_folds=5,
                               methods=("dissim", "lsvm", "ilsvm"))
            for method in ("dissim", "lsvm", "ilsvm"):
                best[kind, method] = min(
                    p.mean for p in res.summary if p.method == method
                )
        ordered = all(
            best[kind, "dissim"] <= best[kind, m]
            for kind in losses
            for m in ("lsvm", "ilsvm")
        )

        # The clean-task clause is read per method across every
        # (loss kind, C) cell of the same experiment: the latent SVM
        # cannot reach 5.0 under the latent-dependent zero-one loss on
        # this family (its score-argmax imputation anchors every sample
        # to the same heavily-overlapping box), which is the weakness
        # the dissimilarity method exists to fix, but it solves the
        # overlap-loss task exactly.
        clean, _ = generate(TaskSpec(noise=0.0, clutter=0.0, seed=0))
        clean_best = {m: math.inf for m in ("dissim", "lsvm", "ilsvm")}
        for kind, loss_cls in losses.items():
            res = run_protocol(clean, loss_cls(), config, n_folds=5,
                               methods=tuple(clean_best))
            for p in res.summary:
                clean_best[p.method] = min(clean_best[p.method], p.mean)
        solved = all(v <= 5.0 for v in clean_best.values())

        detail = "; ".join(
            f"{kind}: dissim {best[kind, 'dissim']:.2f} vs "
            f"lsvm {best[kind, 'lsvm']:.2f}, ilsvm {best[kind, 'ilsvm']:.2f}"
            for kind in losses
        )
        detail += "; clean-task minima " + ", ".join(
            f"{m}={v:.2f}" for m, v in clean_best.items()
        )
        report(9, "directional experiment ordering", ordered and solved,
               detail, time.perf_counter() - start, 900)

    def test_criterion_10_determinism_round_trip(self, tmp_path):
        start = time.perf_counter()
        flags = ["--classes", "2", "--per-class", "3", "--grid", "4",
                 "--boxes", "4", "--box-cells", "3", "--seed", "5"]
        d1, d2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert cli.main(["generate", *flags, "--out", str(d1)]) == 0
        assert cli.main(["generate", *flags, "--out", str(d2)]) == 0
        same_data = d1.read_bytes() == d2.read_bytes()

        copy = tmp_path / "copy.txt"
        save_dataset(load_dataset(d1), copy)
        round_trip = d1.read_bytes() == copy.read_bytes()

        train_flags = ["train", "--data", str(d1), "--inner-tol", "1e-2",
                       "--max-rounds", "3", "--ssd-factor", "5",
                       "--seed", "7"]
        m1, m2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        assert cli.main([*train_flags, "--out", str(m1)]) == 0
        assert cli.main([*train_flags, "--out", str(m2)]) == 0
        same_model = m1.read_bytes() == m2.read_bytes()

        exp_flags = ["experiment", "--data", str(d1), "--C-grid", "0.1,10.0",
                     "--folds", "2", "--inner-tol", "1e-2", "--max-rounds",
                     "3", "--ssd-factor", "5", "--no-timings",
                     "--methods", "dissim", "--losses", "zero_one"]
        r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert cli.main([*exp_flags, "--out", str(r1)]) == 0
        assert cli.main([*exp_flags, "--out", str(r2)]) == 0
        same_results = r1.read_bytes() == r2.read_bytes()

        ok = same_data and round_trip and same_model and same_results
        report(10, "determinism and bit-exact round trips", ok,
               f"dataset={same_data} round_trip={round_trip} "
               f"model={same_model} results={same_results}",
               time.perf_counter() - start, 10)
