"""Exercises the command line harness end to end, in process."""

import dataclasses
import inspect
import multiprocessing
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dissim.cli as cli
import dissim.trainer as trainer
from dissim import (
    DEFAULT_C_GRID,
    LOSS_KINDS,
    METHODS,
    ConfigError,
    Dataset,
    HyperParams,
    SampleRecord,
    SolverError,
    SSDConfig,
    TaskSpec,
    TrainConfig,
    cccp_w,
    ilsvm_train,
    load_dataset,
    load_model,
    load_results,
    lsvm_train,
    run_gradient_checks,
    run_protocol,
    save_dataset,
)
from dissim.trainer import run_protocols
from helpers import (
    MUTATION_TOKENS,
    MUTATIONS,
    make_dataset,
    no_child_left,
    write_mutated,
)


TINY = [
    "--classes", "2", "--per-class", "3", "--grid", "4", "--boxes", "4",
    "--box-cells", "3", "--noise", "0.1", "--clutter", "0.1",
]


def generate_tiny(tmp_path, seed=0):
    data = tmp_path / "data.txt"
    code = cli.main(["generate", *TINY, "--seed", str(seed),
                     "--out", str(data)])
    assert code == 0
    return data


def scaled_copy(data, psi=1.0, phi=1.0):
    """Rewrite a dataset file with its feature tables scaled."""
    dset = load_dataset(data)
    samples = [
        SampleRecord(id=s.id, truth_label=s.truth_label, psi=psi * s.psi,
                     phi=phi * s.phi, boxes=s.boxes,
                     truth_latent=s.truth_latent)
        for s in dset
    ]
    save_dataset(Dataset(dset.num_labels, dset.d_w, dset.d_theta, samples),
                 data)
    return data


class TestGenerate:
    def test_writes_loadable_dataset(self, tmp_path):
        data = generate_tiny(tmp_path)
        dset = load_dataset(data)
        assert len(dset) == 6
        assert dset.num_labels == 2
        assert dset.geometric

    def test_same_seed_same_bytes(self, tmp_path):
        a = generate_tiny(tmp_path, seed=4)
        b = tmp_path / "again.txt"
        assert cli.main(["generate", *TINY, "--seed", "4",
                         "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_preserves_bytes(self, tmp_path):
        data = generate_tiny(tmp_path)
        copy = tmp_path / "copy.txt"
        save_dataset(load_dataset(data), copy)
        assert data.read_bytes() == copy.read_bytes()

    def test_bad_spec_exits_2(self, tmp_path):
        for boxes in ("5", "0", "-4"):
            code = cli.main(["generate", "--boxes", boxes,
                             "--out", str(tmp_path / "x.txt")])
            assert code == 2, boxes

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_noise_exits_2(self, tmp_path, capsys, value):
        out = tmp_path / "x.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["generate", *TINY, f"--noise={value}",
                             "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: noise must be finite and >= 0, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("message", [
        "Unable to allocate 74.5 TiB for an array with shape (100000, 100000)",
        "",
    ])
    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch, message):
        def no_memory(spec):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "generate", no_memory)
        out = tmp_path / "x.txt"
        assert cli.main(["generate", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: out of memory{': ' + message if message else ''}\n"
        assert not out.exists()


class TestTrain:
    @pytest.mark.parametrize("method", ["dissim", "lsvm", "ilsvm"])
    def test_trains_and_saves(self, tmp_path, method):
        data = generate_tiny(tmp_path)
        out = tmp_path / f"{method}.model"
        code = cli.main([
            "train", "--data", str(data), "--method", method,
            "--loss", "zero_one", "--C", "1.0", "--inner-tol", "1e-2",
            "--max-rounds", "4", "--ssd-factor", "5", "--out", str(out),
        ])
        assert code == 0
        rec = load_model(out)
        assert rec.method == method
        assert rec.loss_kind == "zero_one"
        assert len(rec.trace) >= 1
        assert np.all(np.isfinite(rec.params.w))

    @pytest.mark.parametrize("method", ["lsvm", "ilsvm"])
    def test_baseline_records_repeat_termination(self, tmp_path, method):
        # on this task the baselines' CCCP stops on a repeated subproblem
        data = generate_tiny(tmp_path)
        out = tmp_path / f"{method}.model"
        code = cli.main([
            "train", "--data", str(data), "--method", method,
            "--loss", "zero_one", "--C", "1.0", "--inner-tol", "1e-2",
            "--out", str(out),
        ])
        assert code == 0
        assert load_model(out).termination == "repeat"
        assert "termination repeat" in out.read_text().splitlines()

    def test_deterministic_model_bytes(self, tmp_path):
        data = generate_tiny(tmp_path)
        outs = []
        for name in ("a.model", "b.model"):
            out = tmp_path / name
            code = cli.main([
                "train", "--data", str(data), "--loss", "overlap",
                "--C", "0.5", "--inner-tol", "1e-2", "--max-rounds", "3",
                "--ssd-factor", "5", "--seed", "1", "--out", str(out),
            ])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_warns_on_inert_flags(self, tmp_path, capsys):
        data = generate_tiny(tmp_path)
        code = cli.main([
            "train", "--data", str(data), "--method", "lsvm",
            "--J", "0.5", "--beta", "0.2", "--inner-tol", "1e-2",
            "--max-rounds", "3", "--out", str(tmp_path / "m.model"),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "--J" in err and "--beta" in err and "no effect" in err

    def test_no_warning_for_dissim(self, tmp_path, capsys):
        data = generate_tiny(tmp_path)
        code = cli.main([
            "train", "--data", str(data), "--method", "dissim",
            "--J", "0.5", "--beta", "0.2", "--inner-tol", "1e-2",
            "--max-rounds", "2", "--ssd-factor", "5",
            "--out", str(tmp_path / "m.model"),
        ])
        assert code == 0
        assert "no effect" not in capsys.readouterr().err

    def test_missing_data_exits_2(self, tmp_path):
        code = cli.main(["train", "--data", str(tmp_path / "nope.txt"),
                         "--out", str(tmp_path / "m.model")])
        assert code == 2

    def test_unknown_method_exits_2(self, tmp_path):
        data = generate_tiny(tmp_path)
        code = cli.main(["train", "--data", str(data), "--method", "bogus",
                         "--out", str(tmp_path / "m.model")])
        assert code == 2

    def test_missing_required_flag_exits_2(self):
        assert cli.main(["train"]) == 2

    @pytest.mark.parametrize("flag,value", [
        ("--C", "inf"), ("--J", "inf"), ("--epsilon", "inf"),
        ("--inner-tol", "inf"), ("--C", "nan"),
    ])
    def test_non_finite_hyperparameter_exits_2(self, tmp_path, capsys, flag,
                                               value):
        data = generate_tiny(tmp_path)
        out = tmp_path / "m.model"
        code = cli.main(["train", "--data", str(data), "--method", "lsvm",
                         flag, value, "--out", str(out)])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_solver_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        data = generate_tiny(tmp_path)

        def boom(*args, **kwargs):
            raise SolverError("round budget exhausted")

        monkeypatch.setattr(trainer, "train", boom)
        code = cli.main([
            "train", "--data", str(data), "--out", str(tmp_path / "m.model"),
        ])
        assert code == 3
        assert "solver failure" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["dissim", "lsvm"])
    def test_overflowing_gram_matrix_exits_3(self, tmp_path, method, capsys):
        # psi * 1e160 squares past the float range in the Gram matrix
        data = scaled_copy(generate_tiny(tmp_path), psi=1e160)
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main([
                "train", "--data", str(data), "--method", method,
                "--inner-tol", "1e-2", "--max-rounds", "4",
                "--ssd-factor", "5", "--out", str(tmp_path / "m.model"),
            ])
        assert code == 3
        assert "Gram matrix is not finite" in capsys.readouterr().err
        assert not (tmp_path / "m.model").exists()

    @pytest.mark.parametrize("flag,value", [("--C", "1e308"), ("--J", "1e-320")])
    def test_extreme_finite_hyperparameter_exits_3_quietly(self, tmp_path, flag,
                                                           value):
        # C = 1e308 overflows the objective, and J = 1e-320 the theta step;
        # the round-end check reports either as one solver failure, with no
        # numpy floating-point warning before it
        import os
        import subprocess
        import sys
        from pathlib import Path

        import dissim

        data = generate_tiny(tmp_path)
        src = str(Path(dissim.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "dissim", "train", "--data", str(data),
             "--method", "dissim", flag, value,
             "--out", str(tmp_path / "m.model")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("solver failure:"), lines
        assert not (tmp_path / "m.model").exists()

    def test_nan_objective_exits_3(self, tmp_path, capsys):
        # phi * 1e300 overflows the conditional's activations once theta
        # leaves zero, so the first round's objective is NaN
        data = scaled_copy(generate_tiny(tmp_path), phi=1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main([
                "train", "--data", str(data), "--inner-tol", "1e-2",
                "--max-rounds", "4", "--ssd-factor", "5",
                "--out", str(tmp_path / "m.model"),
            ])
        assert code == 3
        assert "round 1: objective is not finite" in capsys.readouterr().err
        assert not (tmp_path / "m.model").exists()


class TestGradcheck:
    def test_healthy_exits_0(self, tmp_path, capsys):
        data = generate_tiny(tmp_path)
        code = cli.main(["gradcheck", "--data", str(data), "--draws", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "zero_one" in out and "overlap" in out
        assert "FAIL" not in out

    def test_no_draws_exits_2(self, tmp_path, capsys):
        data = generate_tiny(tmp_path)
        for draws in ("0", "-3"):
            code = cli.main(["gradcheck", "--data", str(data), "--draws", draws])
            assert code == 2, draws
            captured = capsys.readouterr()
            assert "draws" in captured.err
            assert "worst relative error" not in captured.out

    def test_corrupt_exits_1(self, tmp_path, capsys):
        data = generate_tiny(tmp_path)
        code = cli.main(["gradcheck", "--data", str(data), "--draws", "5",
                         "--corrupt"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


class TestExperiment:
    FLAGS = [
        "--methods", "dissim,lsvm,ilsvm", "--losses", "zero_one,overlap",
        "--C-grid", "0.1,10.0", "--folds", "2", "--inner-tol", "1e-2",
        "--max-rounds", "3", "--ssd-factor", "5", "--no-timings",
    ]

    def run(self, tmp_path, out_name="res.csv", seed="0", extra=()):
        data = generate_tiny(tmp_path)
        out = tmp_path / out_name
        code = cli.main(["experiment", "--data", str(data), "--seed", seed,
                         *self.FLAGS, *extra, "--out", str(out)])
        assert code == 0
        return out

    def test_row_count_and_files(self, tmp_path):
        out = self.run(tmp_path)
        rows = load_results(out)
        assert len(rows) == 3 * 2 * 2 * 2
        cells = {(r.method, r.loss_kind, r.C, r.fold) for r in rows}
        assert len(cells) == len(rows)
        assert all(0.0 <= r.test_loss <= 100.0 for r in rows)
        assert all(r.wallclock_seconds == 0.0 for r in rows)
        base = out.with_suffix("")
        for loss in ("zero_one", "overlap"):
            for method in ("dissim", "lsvm", "ilsvm"):
                assert (tmp_path / f"{base.name}_curve_{loss}_{method}.tsv").exists()
        assert (tmp_path / f"{base.name}_summary.txt").exists()

    def test_curve_matches_rows(self, tmp_path):
        out = self.run(tmp_path)
        rows = load_results(out)
        curve = (out.with_suffix("").parent /
                 f"{out.stem}_curve_zero_one_dissim.tsv")
        for line in curve.read_text().splitlines():
            if line.startswith("#"):
                continue
            C, mean, _ = (float(v) for v in line.split("\t"))
            losses = [r.test_loss for r in rows
                      if r.method == "dissim" and r.loss_kind == "zero_one"
                      and r.C == C]
            assert np.mean(losses) == pytest.approx(mean, abs=1e-12)

    def test_deterministic_output_bytes(self, tmp_path):
        a = self.run(tmp_path, "a.csv")
        b = self.run(tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()
        ca = tmp_path / "a_curve_overlap_lsvm.tsv"
        cb = tmp_path / "b_curve_overlap_lsvm.tsv"
        assert ca.read_bytes() == cb.read_bytes()

    def test_files_equal_for_any_worker_count(self, tmp_path):
        one = tmp_path / "one"
        two = tmp_path / "two"
        for workers, where in (("1", one), ("2", two)):
            where.mkdir()
            self.run(where, extra=("--workers", workers))
        names = sorted(p.name for p in one.iterdir())
        assert names == sorted(p.name for p in two.iterdir())
        assert len(names) == 1 + 1 + 6 + 1  # data, results, curves, summary
        for name in names:
            assert (one / name).read_bytes() == (two / name).read_bytes(), name
        assert multiprocessing.active_children() == []
        assert no_child_left()

    def test_inert_flags_warn_and_change_no_file(self, tmp_path, capsys):
        """Without dissim among the methods, --J and --beta draw one
        warning each and the files are those of the run without them."""
        plain, flagged = tmp_path / "plain", tmp_path / "flagged"
        errors = []
        for where, extra in ((plain, ()),
                             (flagged, ("--J", "0.5", "--beta", "0.2"))):
            where.mkdir()
            self.run(where, extra=("--methods", "lsvm,ilsvm", *extra))
            errors.append(capsys.readouterr().err.splitlines())
        assert errors[0] == []
        assert [("--J" in e, "--beta" in e, "no effect" in e)
                for e in errors[1]] == [(True, False, True), (False, True, True)]
        names = sorted(p.name for p in plain.iterdir())
        assert names == sorted(p.name for p in flagged.iterdir())
        for name in names:
            assert (plain / name).read_bytes() == (flagged / name).read_bytes()

    def test_no_warning_with_dissim(self, tmp_path, capsys):
        self.run(tmp_path, extra=("--methods", "lsvm,dissim", "--J", "0.5",
                                  "--beta", "0.2"))
        assert "no effect" not in capsys.readouterr().err

    @pytest.mark.parametrize("error, code, message", [
        (SolverError("round 2: budget exhausted"), 3,
         "solver failure: round 2: budget exhausted"),
        (ConfigError("bad setting"), 2, "error: bad setting"),
        (MemoryError(), 2, "error: out of memory"),
    ])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_worker_error_exit_code(self, tmp_path, capsys, monkeypatch,
                                    workers, error, code, message):
        """An error raised in a cell ends the command as it would in
        process: same exit code, same one stderr line, no output file
        and no worker left behind."""
        data = generate_tiny(tmp_path)
        capsys.readouterr()

        def boom(*args, **kwargs):
            raise error

        monkeypatch.setattr(trainer, "_fit", boom)
        out = tmp_path / "r.csv"
        assert cli.main(["experiment", "--data", str(data), *self.FLAGS,
                         "--workers", workers, "--out", str(out)]) == code
        assert capsys.readouterr().err.splitlines() == [message]
        assert not out.exists()
        assert multiprocessing.active_children() == []
        assert no_child_left()

    def test_killed_worker_exits_2(self, tmp_path, capsys, monkeypatch):
        """A worker killed outright, as the out-of-memory killer does,
        ends the command as an out-of-memory error, not a traceback."""
        import os
        import signal

        data = generate_tiny(tmp_path)
        capsys.readouterr()
        parent = os.getpid()

        def killed(*args, **kwargs):
            assert os.getpid() != parent, "a cell ran in the parent"
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(trainer, "_fit", killed)
        out = tmp_path / "r.csv"
        assert cli.main(["experiment", "--data", str(data), *self.FLAGS,
                         "--workers", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: out of memory: a worker process was killed"]
        assert not out.exists()
        assert multiprocessing.active_children() == []
        assert no_child_left()

    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    def test_bad_worker_count_exits_2(self, tmp_path, capsys, value):
        data = generate_tiny(tmp_path)
        out = tmp_path / "r.csv"
        code = cli.main(["experiment", "--data", str(data), "--workers", value,
                         "--out", str(out)])
        assert code == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_loss_exits_2(self, tmp_path, capsys):
        data = generate_tiny(tmp_path)
        for losses in ("huber", ""):
            code = cli.main(["experiment", "--data", str(data), "--losses",
                             losses, "--out", str(tmp_path / "r.csv")])
            assert code == 2, losses
            assert "--losses" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_unknown_method_exits_2(self, tmp_path, capsys):
        data = generate_tiny(tmp_path)
        for methods in ("svm", ","):
            code = cli.main(["experiment", "--data", str(data), "--methods",
                             methods, "--out", str(tmp_path / "r.csv")])
            assert code == 2, methods
            assert "--methods" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("flag, names", [
        ("--methods", "lsvm,lsvm"), ("--methods", "dissim,ilsvm,dissim"),
        ("--losses", "zero_one,zero_one"), ("--losses", "overlap, overlap"),
    ])
    def test_repeated_name_exits_2(self, tmp_path, capsys, flag, names):
        data = generate_tiny(tmp_path)
        out = tmp_path / "r.csv"
        code = cli.main(["experiment", "--data", str(data), flag, names,
                         "--C-grid", "0.1", "--folds", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert flag in err and "more than once" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.txt"]

    def test_zero_ssd_factor_exits_2(self, tmp_path, capsys):
        data = generate_tiny(tmp_path)
        code = cli.main(["experiment", "--data", str(data), "--ssd-factor",
                         "0", "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "steps_per_sample" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_non_finite_c_grid_exits_2(self, tmp_path, capsys):
        data = generate_tiny(tmp_path)
        code = cli.main(["experiment", "--data", str(data), "--methods", "lsvm",
                         "--C-grid", "1e308,inf", "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_non_numeric_c_grid_exits_2(self, tmp_path, capsys):
        data = generate_tiny(tmp_path)
        code = cli.main(["experiment", "--data", str(data), "--C-grid", "1,x",
                         "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "--C-grid" in capsys.readouterr().err


class TestOverlapNeedsBoxes:
    def test_abstract_dataset_rejected(self, tmp_path):
        from helpers import make_dataset

        dset = make_dataset(1, n=4, num_labels=2, num_latents=3, d_w=4,
                            d_theta=2)
        data = tmp_path / "abstract.txt"
        save_dataset(dset, data)
        code = cli.main(["train", "--data", str(data), "--loss", "overlap",
                         "--out", str(tmp_path / "m.model")])
        assert code == 2


class TestErrorsExit2:
    """Input the commands cannot use ends in one ``error:`` line and exit
    2, never a traceback."""

    @staticmethod
    def assert_one_error_line(capsys):
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines

    @pytest.mark.parametrize("command", ["generate", "train", "experiment",
                                         "gradcheck"])
    def test_negative_seed(self, tmp_path, capsys, command):
        data = generate_tiny(tmp_path)
        capsys.readouterr()
        argv = {
            "generate": ["generate", *TINY],
            "train": ["train", "--data", str(data)],
            "experiment": ["experiment", "--data", str(data)],
            "gradcheck": ["gradcheck", "--data", str(data)],
        }[command] + ["--seed", "-2"]
        if command != "gradcheck":
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        self.assert_one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "experiment", "gradcheck"])
    def test_data_is_a_directory(self, tmp_path, capsys, command):
        argv = [command, "--data", str(tmp_path)]
        if command != "gradcheck":
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("command", ["train", "experiment", "gradcheck"])
    def test_content_after_last_sample(self, tmp_path, capsys, command):
        data = generate_tiny(tmp_path)
        data.write_text(data.read_text() + "garbage line\n")
        capsys.readouterr()
        argv = [command, "--data", str(data)]
        if command != "gradcheck":
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        self.assert_one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    def test_experiment_without_truth_latents(self, tmp_path, capsys,
                                              monkeypatch):
        """A set without ground-truth latents is refused in each worker's
        first cell, before it fits a model."""
        data = generate_tiny(tmp_path)
        data.write_text("".join(
            line for line in data.read_text().splitlines(keepends=True)
            if not line.startswith("truth_latent ")))
        capsys.readouterr()

        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran before the annotations were checked")

        monkeypatch.setattr(trainer, "_fit", no_fit)
        argv = ["experiment", "--data", str(data), "--workers", "2",
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert re.fullmatch(
            "error: sample c[01]s00[0-2] has no ground-truth latent annotation",
            line), line
        assert not (tmp_path / "out").exists()
        assert no_child_left()

    @pytest.mark.parametrize("out", ["missing/x", "."])
    @pytest.mark.parametrize("command", ["generate", "train", "experiment"])
    def test_unwritable_out(self, tmp_path, capsys, monkeypatch, command, out):
        data = generate_tiny(tmp_path)
        capsys.readouterr()
        written = sorted(tmp_path.iterdir())

        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran before --out was checked")

        monkeypatch.setattr(trainer, "_fit", no_fit)
        monkeypatch.setattr(cli, "_fit", no_fit)
        argv = [command, *(TINY if command == "generate" else
                           ["--data", str(data)]),
                "--out", str(tmp_path / out)]
        assert cli.main(argv) == 2
        self.assert_one_error_line(capsys)
        assert sorted(tmp_path.iterdir()) == written


class TestMutatedDataset:
    """One deleted, duplicated or rewritten line of a small dataset never
    makes a command raise: train exits 0, 2 or 3 and gradcheck 0, 1, 2
    or 3."""

    COMMANDS = (
        (("train", "--method", "dissim"), {0, 2, 3}),
        (("train", "--method", "ilsvm", "--loss", "overlap"), {0, 2, 3}),
        (("gradcheck", "--draws", "2"), {0, 1, 2, 3}),
    )
    TRAIN_FLAGS = ("--inner-tol", "1e-2", "--max-rounds", "2",
                   "--ssd-factor", "2")

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(op=st.sampled_from(MUTATIONS),
           where=st.integers(0, 10_000),
           token=st.integers(0, 10_000),
           replacement=st.sampled_from(MUTATION_TOKENS))
    def test_commands_exit_with_documented_codes(
        self, tmp_path, op, where, token, replacement
    ):
        valid = tmp_path / "valid.txt"
        if not valid.exists():
            save_dataset(make_dataset(3, n=4, num_labels=2, num_latents=2,
                                      d_w=2, d_theta=2, geometric=True), valid)
        data = tmp_path / "mutated.txt"
        write_mutated(data, valid.read_text().splitlines(), op, where, token,
                      replacement)
        for command, codes in self.COMMANDS:
            argv = [*command, "--data", str(data)]
            if command[0] == "train":
                argv += [*self.TRAIN_FLAGS, "--out", str(tmp_path / "m.model")]
            assert cli.main(argv) in codes, argv


class TestDefaults:
    """Each flag left unset parses to the record field, function default
    or constant it feeds: every default is written in one place."""

    @staticmethod
    def parse(*argv):
        return cli.build_parser().parse_args(list(argv))

    @staticmethod
    def defaults(function):
        return {name: p.default
                for name, p in inspect.signature(function).parameters.items()}

    def test_generate(self):
        args = self.parse("generate", "--out", "d.txt")
        for field in dataclasses.fields(TaskSpec):
            assert getattr(args, field.name) == field.default, field.name

    @pytest.mark.parametrize("command", ["train", "experiment"])
    def test_fit_flags(self, command):
        args = self.parse(command, "--data", "d.txt", "--out", "out")
        assert args.J is None and args.beta is None
        assert args.epsilon == HyperParams.epsilon
        assert args.inner_tol == TrainConfig.inner_tol
        assert args.ssd_factor == SSDConfig.steps_per_sample
        assert args.max_rounds == TrainConfig.max_outer_rounds
        assert args.seed == SSDConfig.seed == TrainConfig.split_seed

    def test_train(self):
        args = self.parse("train", "--data", "d.txt", "--out", "m.model")
        assert args.C == HyperParams.C
        config = cli._train_config(args, [args.method], (args.C,))
        assert config == TrainConfig(C_grid=(HyperParams.C,))

    def test_experiment(self):
        args = self.parse("experiment", "--data", "d.txt", "--out", "r.csv")
        assert args.methods == ",".join(METHODS)
        assert args.losses == ",".join(LOSS_KINDS)
        c_grid = tuple(float(c) for c in args.C_grid.split(","))
        assert c_grid == DEFAULT_C_GRID == TrainConfig.C_grid
        for protocol in (run_protocol, run_protocols):
            assert self.defaults(protocol)["n_folds"] == args.folds
            assert self.defaults(protocol)["split"] == args.split
        assert (args.folds, args.split) == (trainer.DEFAULT_FOLDS,
                                            trainer.DEFAULT_SPLIT)
        assert args.workers is None and not args.no_timings
        config = cli._train_config(args, METHODS, c_grid)
        assert config == TrainConfig(hyper=HyperParams(C=c_grid[0]))

    def test_gradcheck(self):
        args = self.parse("gradcheck", "--data", "d.txt")
        checks = self.defaults(run_gradient_checks)
        assert (args.seed, args.draws) == (checks["seed"], checks["draws"])
        assert not args.corrupt

    @pytest.mark.parametrize("fit", [cccp_w, lsvm_train, ilsvm_train])
    def test_solver_tolerances(self, fit):
        """The solvers' own defaults are the ones the fit flags give."""
        assert self.defaults(fit)["epsilon"] == HyperParams.epsilon
        assert self.defaults(fit)["inner_tol"] == TrainConfig.inner_tol


class TestEntryPoint:
    def test_python_dash_m(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import dissim

        src = str(Path(dissim.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "dissim", "--help"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "generate" in proc.stdout and "experiment" in proc.stdout

    def test_star_import_binds_no_module(self):
        import types

        names = {}
        exec("from dissim import *", names)
        assert not [name for name, value in names.items()
                    if isinstance(value, types.ModuleType)]
