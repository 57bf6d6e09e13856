"""Exercises the command line harness end to end, in process."""

import numpy as np
import pytest

import dissim.cli as cli
import dissim.trainer as trainer
from dissim import SolverError, load_dataset, load_model, load_results, save_dataset


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
        code = cli.main(["generate", "--boxes", "5",
                         "--out", str(tmp_path / "x.txt")])
        assert code == 2


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


class TestGradcheck:
    def test_healthy_exits_0(self, tmp_path, capsys):
        data = generate_tiny(tmp_path)
        code = cli.main(["gradcheck", "--data", str(data), "--draws", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "zero_one" in out and "overlap" in out
        assert "FAIL" not in out

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

    def run(self, tmp_path, out_name="res.csv", seed="0"):
        data = generate_tiny(tmp_path)
        out = tmp_path / out_name
        code = cli.main(["experiment", "--data", str(data), "--seed", seed,
                         *self.FLAGS, "--out", str(out)])
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

    def test_unknown_loss_exits_2(self, tmp_path):
        data = generate_tiny(tmp_path)
        code = cli.main(["experiment", "--data", str(data), "--losses",
                         "huber", "--out", str(tmp_path / "r.csv")])
        assert code == 2

    def test_unknown_method_exits_2(self, tmp_path):
        data = generate_tiny(tmp_path)
        code = cli.main(["experiment", "--data", str(data), "--methods",
                         "svm", "--out", str(tmp_path / "r.csv")])
        assert code == 2

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


class TestEntryPoint:
    def test_python_dash_m(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "dissim", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "generate" in proc.stdout and "experiment" in proc.stdout
