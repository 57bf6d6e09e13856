"""Round-trip and validation tests for the text file formats."""

import numpy as np
import pytest

from dissim import (
    InputError,
    ModelParams,
    ModelRecord,
    ResultRow,
    TaskSpec,
    generate,
    load_dataset,
    load_model,
    load_results,
    save_dataset,
    save_model,
    save_results,
)
from dissim.dataio import DATASET_MAGIC, MODEL_MAGIC, RESULTS_HEADER
from helpers import make_dataset


class TestDatasetRoundTrip:
    def test_bit_exact(self, tmp_path):
        dset, _ = generate(TaskSpec(num_classes=3, per_class=2, seed=7))
        path = tmp_path / "d.txt"
        save_dataset(dset, path)
        back = load_dataset(path)
        assert back.num_labels == dset.num_labels
        assert back.d_w == dset.d_w
        assert back.d_theta == dset.d_theta
        assert back.geometric == dset.geometric
        for a, b in zip(dset, back):
            assert a.id == b.id
            assert a.truth_label == b.truth_label
            assert a.truth_latent == b.truth_latent
            assert a.latent_space == b.latent_space
            np.testing.assert_array_equal(np.asarray(a.psi), np.asarray(b.psi))
            np.testing.assert_array_equal(np.asarray(a.phi), np.asarray(b.phi))

    def test_save_is_deterministic(self, tmp_path):
        dset, _ = generate(TaskSpec(num_classes=2, per_class=2, seed=3))
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_dataset(dset, p1)
        save_dataset(dset, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_without_geometry_or_truth(self, tmp_path):
        dset = make_dataset(5, n=3, num_labels=2, num_latents=3, d_w=4,
                            d_theta=2)
        from dissim import Dataset, SampleRecord

        bare = Dataset(
            dset.num_labels, dset.d_w, dset.d_theta,
            tuple(
                SampleRecord(id=s.id, truth_label=s.truth_label,
                             latent_space=s.latent_space, psi=s.psi,
                             phi=s.phi)
                for s in dset
            ),
        )
        path = tmp_path / "bare.txt"
        save_dataset(bare, path)
        back = load_dataset(path)
        assert not back.geometric
        for a, b in zip(bare, back):
            assert b.truth_latent is None
            np.testing.assert_array_equal(np.asarray(a.psi), np.asarray(b.psi))

    def test_exotic_floats_survive(self, tmp_path):
        dset = make_dataset(11, n=1, num_labels=2, num_latents=2, d_w=3,
                            d_theta=2)
        from dissim import Dataset, SampleRecord

        s = dset.samples[0]
        psi = np.asarray(s.psi).copy()
        psi[0, 0] = [1e-308, np.pi, -0.1]
        tweaked = Dataset(2, 3, 2, (SampleRecord(
            id=s.id, truth_label=s.truth_label, latent_space=s.latent_space,
            psi=psi, phi=s.phi, truth_latent=s.truth_latent,
        ),))
        path = tmp_path / "f.txt"
        save_dataset(tweaked, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(np.asarray(back.samples[0].psi), psi)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_dataset(tmp_path / "absent.txt")

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("something else\n")
        with pytest.raises(InputError, match="magic"):
            load_dataset(path)

    def test_truncated_reports_position(self, tmp_path):
        dset = make_dataset(6, n=2, num_labels=2, num_latents=3, d_w=4,
                            d_theta=2)
        path = tmp_path / "t.txt"
        save_dataset(dset, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        with pytest.raises(InputError):
            load_dataset(path)

    def test_corrupt_field_reports_line(self, tmp_path):
        dset = make_dataset(6, n=1, num_labels=2, num_latents=2, d_w=3,
                            d_theta=2)
        path = tmp_path / "c.txt"
        save_dataset(dset, path)
        lines = path.read_text().splitlines()
        for keyword, corrupt in (
            ("psi", "psi 0 0 1.0"),
            ("psi", "psi 0 0 1.0 abc 2.0"),
            ("psi", "psi x 0 1.0 2.0 3.0"),
            ("phi", "phi x 1.0 2.0"),
            ("latent", "latent x"),
        ):
            idx = next(i for i, l in enumerate(lines) if l.split()[0] == keyword)
            path.write_text("\n".join(lines[:idx] + [corrupt] + lines[idx + 1 :])
                            + "\n")
            with pytest.raises(InputError, match=rf"line {idx + 1}"):
                load_dataset(path)

    def test_bad_integer_reports_line(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text(DATASET_MAGIC + "\nlabels two\n")
        with pytest.raises(InputError, match="line 2"):
            load_dataset(path)


class TestModelRoundTrip:
    def make_record(self):
        rng = np.random.default_rng(0)
        return ModelRecord(
            params=ModelParams(rng.standard_normal(5),
                               rng.standard_normal(3)),
            method="dissim",
            loss_kind="overlap",
            termination="converged",
            trace=[2.0, 1.5, 1.25],
        )

    def test_bit_exact(self, tmp_path):
        rec = self.make_record()
        path = tmp_path / "m.txt"
        save_model(rec, path)
        back = load_model(path)
        np.testing.assert_array_equal(back.params.w, rec.params.w)
        np.testing.assert_array_equal(back.params.theta, rec.params.theta)
        assert back.method == rec.method
        assert back.loss_kind == rec.loss_kind
        assert back.termination == rec.termination
        assert back.trace == rec.trace

    def test_save_load_save_identical(self, tmp_path):
        rec = self.make_record()
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(rec, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(DATASET_MAGIC + "\n")
        with pytest.raises(InputError, match="magic"):
            load_model(path)

    def test_length_mismatch(self, tmp_path):
        rec = self.make_record()
        path = tmp_path / "m.txt"
        save_model(rec, path)
        text = path.read_text().replace("dw 5", "dw 4")
        path.write_text(text)
        with pytest.raises(InputError, match="length"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_model(tmp_path / "absent.txt")

    @pytest.mark.parametrize("keyword, corrupt", [
        ("method", "method"),
        ("termination", "termination"),
        ("dw", "dw five"),
        ("w", "w 1.0 nope 3.0 4.0 5.0"),
        ("2.0", "two"),
    ])
    def test_malformed_field_reports_line(self, tmp_path, keyword, corrupt):
        path = tmp_path / "m.txt"
        save_model(self.make_record(), path)
        lines = path.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.split()[0] == keyword)
        lines[idx] = corrupt
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match=rf"line {idx + 1}"):
            load_model(path)


class TestResults:
    ROWS = [
        ResultRow("dissim", "overlap", 0.1, 0, 12.5, 3.25, 0.75),
        ResultRow("lsvm", "zero_one", 10.0, 4, 100.0, 1e-3, 2.5),
    ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.csv"
        save_results(self.ROWS, path)
        assert load_results(path) == self.ROWS

    def test_header(self, tmp_path):
        path = tmp_path / "r.csv"
        save_results(self.ROWS, path)
        first = path.read_text().splitlines()[0]
        assert first.split(",") == list(RESULTS_HEADER)
        assert len(RESULTS_HEADER) == 7

    def test_save_load_save_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_results(self.ROWS, p1)
        save_results(load_results(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InputError, match="header"):
            load_results(path)

    def test_rejects_short_row(self, tmp_path):
        path = tmp_path / "r.csv"
        save_results(self.ROWS, path)
        path.write_text(path.read_text() + "dissim,overlap,1.0\n")
        with pytest.raises(InputError, match="malformed"):
            load_results(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_results(tmp_path / "absent.csv")

    def test_rejects_non_numeric_field(self, tmp_path):
        path = tmp_path / "r.csv"
        save_results(self.ROWS, path)
        path.write_text(path.read_text() + "dissim,overlap,1.0,x,1.0,1.0,0.0\n")
        with pytest.raises(InputError, match="line 4"):
            load_results(path)

    def test_magic_strings_are_stable(self):
        assert DATASET_MAGIC == "dissim-dataset 1"
        assert MODEL_MAGIC == "dissim-model 1"
