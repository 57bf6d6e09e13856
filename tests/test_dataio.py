"""Round-trip and validation tests for the text file formats."""

import dataclasses
import gc
import io
import os
import re
import signal
import stat
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dissim import (
    ConfigError,
    Dataset,
    InputError,
    ModelParams,
    ModelRecord,
    ResultRow,
    SampleRecord,
    TaskSpec,
    generate,
    load_dataset,
    load_model,
    load_results,
    save_dataset,
    save_model,
    save_results,
)
import dissim.cli as cli
import dissim.dataio as dataio
import dissim.model as model
from dissim.dataio import DATASET_MAGIC, MODEL_MAGIC, RESULTS_HEADER
from helpers import (
    MUTATION_TOKENS,
    MUTATIONS,
    make_dataset,
    reference_dataset_text,
    reference_load,
    reference_model_text,
    reference_rows_dataset_text,
    reference_rows_model_text,
    src_env,
    write_mutated,
)

# doubles whose words or bits are easy to get wrong: both zeros, the
# smallest subnormals, the largest magnitudes, and values whose repr
# switches to or from exponent form
EDGE_VALUES = (-0.0, 0.0, 5e-324, -5e-324, -1.7976931348623157e308,
               1.7976931348623157e308, 1e16, 9999999999999998.0, 1e-4,
               9.999999999999999e-05, 0.1, -2.5)


def with_tables(sample, psi, phi):
    return SampleRecord(id=sample.id, truth_label=sample.truth_label, psi=psi,
                        phi=phi, boxes=sample.boxes,
                        truth_latent=sample.truth_latent)


def assert_same_doubles(a, b):
    """Every psi and phi value of two datasets has the same bits; the
    signs of zeros are compared on their own, as array equality cannot
    see them."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        for u, v in ((x.psi, y.psi), (x.phi, y.phi)):
            assert u.shape == v.shape
            assert u.tobytes() == v.tobytes()
            np.testing.assert_array_equal(np.signbit(u), np.signbit(v))


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
            np.testing.assert_array_equal(a.boxes, b.boxes)
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
        bare = Dataset(
            dset.num_labels, dset.d_w, dset.d_theta,
            tuple(
                SampleRecord(id=s.id, truth_label=s.truth_label, psi=s.psi,
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
        s = dset.samples[0]
        psi = np.asarray(s.psi).copy()
        psi[0, 0] = [1e-308, np.pi, -0.1]
        tweaked = Dataset(2, 3, 2, (SampleRecord(
            id=s.id, truth_label=s.truth_label,
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
        abstract = make_dataset(6, n=1, num_labels=2, num_latents=2, d_w=3,
                                d_theta=2)
        geometric = make_dataset(6, n=1, num_labels=2, num_latents=2, d_w=3,
                                 d_theta=2, geometric=True)
        pair = make_dataset(6, n=2, num_labels=2, num_latents=2, d_w=3,
                            d_theta=2)
        path = tmp_path / "c.txt"
        for dset, keyword, corrupt in (
            (abstract, "psi", "psi 0 0 1.0"),
            (abstract, "psi", "psi 0 0 1.0 abc 2.0"),
            (abstract, "psi", "psi x 0 1.0 2.0 3.0"),
            (abstract, "phi", "phi x 1.0 2.0"),
            (abstract, "latent", "latent x"),
            (abstract, "latent", "latent 1"),
            (abstract, "latent", "latent 0 0 0 1 1"),
            (abstract, "geometric", "geometric 2"),
            (abstract, "labels", "labels -1"),
            (abstract, "dw", "dw -1"),
            (abstract, "dtheta", "dtheta -2"),
            (abstract, "latents", "latents -1"),
            (abstract, "samples", "samples 0"),
            # checks Dataset makes, named by their line too
            (abstract, "labels", "labels 1"),
            (pair, "sample s1", "sample s0"),
            (abstract, "phi", "phi 0 1.0 \udcff2.0"),
            # checks SampleRecord makes, named by the row that fails them
            (abstract, "label", "label 2"),
            (abstract, "label", "label -1"),
            (abstract, "truth_latent", "truth_latent 2"),
            (abstract, "latents", "latents 0"),
            (abstract, "psi 1 1", "psi 1 1 1.0 nan 2.0"),
            (abstract, "phi 1", "phi 1 -inf 1.0"),
            (geometric, "latent", "latent 0 4 0 4 3"),
            (geometric, "latent", "latent 0 0 0 1 9223372036854775808"),
            (geometric, "latent", "latent 0 0 0 3037000500 3037000500"),
            (geometric, "latent", "latent 0 1 0 3037000501 3037000500"),
            (geometric, "latent", "latent 0 0 0 33554432 1"),
        ):
            save_dataset(dset, path)
            lines = path.read_text().splitlines()
            idx = next(i for i, l in enumerate(lines)
                       if (l + " ").startswith(keyword + " "))
            text = "\n".join(lines[:idx] + [corrupt] + lines[idx + 1 :]) + "\n"
            # a lone surrogate escape writes one byte that is not UTF-8
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
            with pytest.raises(InputError, match=rf"line {idx + 1}"):
                load_dataset(path)

    @pytest.mark.parametrize("bad, message", [
        ("nan", "values must be finite"),
        ("abc", "bad float field"),
    ])
    def test_bad_field_among_known_values_reports_line(self, tmp_path, bad,
                                                       message):
        """A row whose other fields were all read on earlier rows still
        names its own line."""
        dset, _ = generate(TaskSpec(num_classes=2, per_class=2, seed=1))
        path = tmp_path / "d.txt"
        path.write_text(reference_dataset_text(dset, dense=True))
        lines = path.read_text().splitlines()
        first = next(i for i, l in enumerate(lines) if l.startswith("psi "))
        idx = first + 1
        fields = lines[first].split()
        fields[:3] = lines[idx].split()[:3]
        fields[-1] = bad
        lines[idx] = " ".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match=rf"line {idx + 1}: {message}"):
            load_dataset(path)

    def test_huge_count_sizes_no_allocation(self, tmp_path):
        dset = make_dataset(6, n=1, num_labels=2, num_latents=2, d_w=3,
                            d_theta=2)
        path = tmp_path / "h.txt"
        save_dataset(dset, path)
        path.write_text(path.read_text().replace("dw 3", "dw 99999999999999"))
        with pytest.raises(InputError, match="psi row needs"):
            load_dataset(path)

    def test_bad_integer_reports_line(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text(DATASET_MAGIC + "\nlabels two\n")
        with pytest.raises(InputError, match="line 2"):
            load_dataset(path)


class TestWrittenBytes:
    """save_dataset and save_model write the bytes of the value-by-value
    layout in helpers, and loading gives back every double, bit for bit."""

    def check_dataset(self, dset, tmp_path):
        path = tmp_path / "d.txt"
        save_dataset(dset, path)
        assert path.read_bytes() == reference_dataset_text(dset).encode()
        assert_same_doubles(dset, load_dataset(path))

    @pytest.mark.parametrize("noise, clutter", [(0.5, 0.3), (0.0, 0.0)])
    def test_generated_tasks(self, tmp_path, noise, clutter):
        dset, _ = generate(TaskSpec(num_classes=3, per_class=3, noise=noise,
                                    clutter=clutter, seed=2))
        self.check_dataset(dset, tmp_path)

    def test_abstract_ragged(self, tmp_path):
        dset = make_dataset(9, n=6, num_labels=3, num_latents=7, d_w=4,
                            d_theta=3, uniform_shapes=False)
        assert not dset.geometric
        assert len({s.num_latents for s in dset}) > 1
        self.check_dataset(dset, tmp_path)

    def test_edge_rows(self, tmp_path):
        base = make_dataset(4, n=2, num_labels=2, num_latents=3, d_w=6,
                            d_theta=4, geometric=True)
        edges = np.array(EDGE_VALUES)
        samples = []
        for i, s in enumerate(base):
            psi = np.asarray(s.psi).copy()
            phi = np.asarray(s.phi).copy()
            psi[0, 0] = edges[:6]
            psi[1, 2] = edges[6:] if i else edges[:6][::-1]
            psi[0, 1, :2] = [-0.0, 0.0]
            phi[0] = [0.0, -0.0, 0.0, -0.0]
            phi[1, 0] = psi[1, 1, 3]  # a phi value repeated in psi
            phi[2] = edges[i : i + 4]
            samples.append(with_tables(s, psi, phi))
        dset = Dataset(2, 6, 4, tuple(samples))
        self.check_dataset(dset, tmp_path)
        back = load_dataset(tmp_path / "d.txt")
        assert np.signbit(back.samples[0].psi[0, 1, :2]).tolist() == [True,
                                                                     False]

    def test_model(self, tmp_path):
        w = np.array([*EDGE_VALUES, 0.1, -0.0])
        for trace in ([2.0, 1.5, 1.5, -0.0, 5e-324], []):
            rec = ModelRecord(ModelParams(w, np.array([0.1, 0.0, -0.0])),
                              "dissim", "overlap", "tolerance", trace)
            path = tmp_path / "m.txt"
            save_model(rec, path)
            assert path.read_bytes() == reference_model_text(rec).encode()
            back = load_model(path)
            assert back.params.w.tobytes() == w.tobytes()
            assert np.signbit(back.params.theta).tolist() == [False, False,
                                                              True]
            assert np.array(back.trace).tobytes() == np.array(trace).tobytes()


# doubles drawn for the formatter tests: the edge values, the smallest
# normal and largest subnormal, and any other finite double
DRAWN_DOUBLES = st.one_of(
    st.sampled_from(EDGE_VALUES + (2.2250738585072014e-308,
                                   2.225073858507201e-308)),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def drawn_values(draw, n):
    """n doubles: all distinct by bit pattern, drawn from a pool of at
    most three (mostly repeats), or freely (some repeats, some not)."""
    kind = draw(st.sampled_from(["distinct", "repeated", "free"]))
    if kind == "distinct":
        values = st.lists(DRAWN_DOUBLES, min_size=n, max_size=n,
                          unique_by=lambda v: np.float64(v).tobytes())
    elif kind == "repeated":
        pool = draw(st.lists(DRAWN_DOUBLES, min_size=1, max_size=3))
        values = st.lists(st.sampled_from(pool), min_size=n, max_size=n)
    else:
        values = st.lists(DRAWN_DOUBLES, min_size=n, max_size=n)
    return np.array(draw(values), dtype=np.float64)


@st.composite
def drawn_datasets(draw):
    """Small datasets of drawn doubles: geometric or not, K = 1 or ragged
    K, d_theta = 1 among the dimensions, truth latents or none."""
    num_labels = draw(st.integers(2, 3))
    d_w, d_theta = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    geometric = draw(st.booleans())
    samples = []
    for i in range(draw(st.integers(1, 3))):
        K = draw(st.integers(1, 4))
        psi = draw(drawn_values(num_labels * K * d_w))
        phi = draw(drawn_values(K * d_theta))
        boxes = [(k, 0, k + 1, 2) for k in range(K)] if geometric else None
        truth = draw(st.none() | st.integers(0, K - 1))
        samples.append(SampleRecord(
            id=f"s{i}", truth_label=draw(st.integers(0, num_labels - 1)),
            psi=psi.reshape(num_labels, K, d_w), phi=phi.reshape(K, d_theta),
            boxes=boxes, truth_latent=truth))
    return Dataset(num_labels, d_w, d_theta, tuple(samples))


class TestFormatterMatchesReference:
    """save_dataset and save_model write the bytes of the row-by-row
    writer in helpers (one np.unique per sample, one join per row) and of
    the value-by-value layout, on drawn tables."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(dset=drawn_datasets())
    def test_dataset(self, tmp_path, dset):
        path = tmp_path / "d.txt"
        save_dataset(dset, path)
        assert path.read_bytes() == reference_rows_dataset_text(dset).encode()
        assert path.read_bytes() == reference_dataset_text(dset).encode()
        assert_same_doubles(dset, load_dataset(path))

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), d_w=st.integers(1, 6), d_theta=st.integers(1, 4),
           trace_len=st.integers(0, 5))
    def test_model(self, tmp_path, data, d_w, d_theta, trace_len):
        values = data.draw(drawn_values(d_w + d_theta + trace_len))
        rec = ModelRecord(ModelParams(values[:d_w], values[d_w:d_w + d_theta]),
                          "dissim", "zero_one", "tolerance",
                          values[d_w + d_theta:].tolist())
        path = tmp_path / "m.txt"
        save_model(rec, path)
        assert path.read_bytes() == reference_rows_model_text(rec).encode()
        assert path.read_bytes() == reference_model_text(rec).encode()

    def test_rows_without_values(self, tmp_path):
        """A table with no columns writes its labels with the space after
        them, as the row-by-row writer does."""
        sample = SampleRecord(id="a", truth_label=0, psi=np.zeros((2, 3, 0)),
                              phi=np.zeros((3, 0)))
        dset = Dataset(2, 0, 0, (sample,))
        path = tmp_path / "d.txt"
        save_dataset(dset, path)
        assert path.read_bytes() == reference_rows_dataset_text(dset).encode()
        rec = ModelRecord(ModelParams(np.zeros(0), np.zeros(0)), "dissim",
                          "zero_one", "tolerance", [])
        save_model(rec, path)
        assert path.read_bytes() == reference_rows_model_text(rec).encode()


class TestBlockLayout:
    """A dataset whose every psi is the block embedding of its phi is
    written with ``joint block`` and no psi rows, and loads back to the
    same doubles, each psi a read-only window as ``generate`` makes it;
    any other dataset is written dense, as before."""

    SPEC = TaskSpec(num_classes=3, per_class=2, seed=7)

    def test_synth_set_round_trips_byte_for_byte(self, tmp_path):
        dset, _ = generate(self.SPEC)
        path, again = tmp_path / "d.txt", tmp_path / "again.txt"
        save_dataset(dset, path)
        lines = path.read_text().splitlines()
        assert lines[5] == "joint block"
        assert not [l for l in lines if l.startswith("psi")]
        back = load_dataset(path)
        assert_same_doubles(dset, back)
        for a, b in zip(dset, back):  # the window generate makes
            assert not b.psi.flags.writeable and b.psi.strides == a.psi.strides
        save_dataset(back, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("value", [-0.0, 1e-300])
    def test_one_off_block_value_keeps_the_file_dense(self, tmp_path, value):
        dset, _ = generate(self.SPEC)
        first, *rest = dset.samples
        psi = np.array(first.psi)
        psi[1, 3, 0] = value  # block 0 of label 1's row: off its block
        changed = Dataset(dset.num_labels, dset.d_w, dset.d_theta,
                          (with_tables(first, psi, first.phi), *rest))
        path = tmp_path / "d.txt"
        save_dataset(changed, path)
        text = path.read_text()
        assert "joint" not in text
        assert text == reference_dataset_text(changed)
        assert text == reference_dataset_text(changed, dense=True)
        assert_same_doubles(changed, load_dataset(path))

    def test_dense_file_of_a_synth_set_fits_the_same(self, tmp_path):
        """The old layout of a generated task loads to the block file's
        doubles, and an experiment on either writes the same files."""
        dset, _ = generate(TaskSpec(num_classes=2, per_class=4, grid=4,
                                    boxes=4, box_cells=3, seed=3))
        block, dense = tmp_path / "block.txt", tmp_path / "dense.txt"
        save_dataset(dset, block)
        dense.write_text(reference_dataset_text(dset, dense=True))
        assert "joint" not in dense.read_text()
        assert_same_doubles(load_dataset(block), load_dataset(dense))
        for data in (block, dense):
            out = tmp_path / data.stem
            out.mkdir()
            assert cli.main([
                "experiment", "--data", str(data), "--methods",
                "dissim,lsvm,ilsvm", "--losses", "zero_one,overlap",
                "--C-grid", "0.1,10.0", "--folds", "2", "--max-rounds", "2",
                "--ssd-factor", "2", "--workers", "1", "--no-timings",
                "--out", str(out / "res.csv")]) == 0
        names = sorted(p.name for p in (tmp_path / "block").iterdir())
        assert len(names) == 8  # results, summary and 6 curves
        assert names == sorted(p.name for p in (tmp_path / "dense").iterdir())
        for name in names:
            assert ((tmp_path / "block" / name).read_bytes()
                    == (tmp_path / "dense" / name).read_bytes())

    @pytest.mark.parametrize("keyword, bad, message", [
        ("joint", "joint dense", "joint must be block, got 'dense'"),
        ("joint", "joint", "joint takes one value"),
        ("joint", "joint block block", "joint takes one value"),
        ("dw", "dw 47", "joint block needs dw = labels \\* dtheta = 48, got 47"),
        ("latent 15", None, "expected 'phi', got 'psi 0 0 "),
    ])
    def test_malformed_joint_names_its_line(self, tmp_path, capsys, keyword,
                                            bad, message):
        """Each error names the line that is wrong: the joint line, or a
        psi line where a block file has phi rows; the CLI exits 2."""
        dset, _ = generate(TaskSpec(per_class=1, seed=0))
        path = tmp_path / "d.txt"
        save_dataset(dset, path)
        lines = path.read_text().splitlines()
        at = next(i for i, l in enumerate(lines)
                  if (l + " ").startswith(keyword + " "))
        if bad is None:  # a dense sample's first psi row after its latents
            dense = reference_dataset_text(dset, dense=True).splitlines()
            lines.insert(at + 1, next(l for l in dense if l.startswith("psi")))
            at += 1
        else:
            lines[at] = bad
        path.write_text("\n".join(lines) + "\n")
        # a dw that joint block cannot have is named at the joint line, 6
        wrong = 6 if keyword == "dw" else at + 1
        with pytest.raises(InputError, match=rf"line {wrong}: {message}"):
            load_dataset(path)
        capsys.readouterr()
        assert cli.main(["gradcheck", "--data", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path} line {wrong}:")


class TestOnlyDeclaredRecords:
    """Content after the records a file declares is an InputError naming
    its line, not something a loader silently drops."""

    @staticmethod
    def rewrite(path, lines):
        path.write_text("\n".join(lines) + "\n")

    def test_more_samples_than_declared(self, tmp_path):
        path = tmp_path / "d.txt"
        save_dataset(make_dataset(1, n=4, num_labels=2, num_latents=2, d_w=2,
                                  d_theta=2), path)
        lines = path.read_text().replace("samples 4", "samples 3").splitlines()
        self.rewrite(path, lines)
        extra = lines.index("sample s3") + 1
        with pytest.raises(InputError,
                           match=rf"line {extra}: unexpected 'sample s3'"):
            load_dataset(path)

    def test_trailing_line_after_dataset(self, tmp_path):
        path = tmp_path / "d.txt"
        save_dataset(generate(TaskSpec(num_classes=2, per_class=2))[0], path)
        lines = path.read_text().splitlines()
        self.rewrite(path, lines + ["", "  "])
        load_dataset(path)
        self.rewrite(path, lines + ["", "garbage line"])
        with pytest.raises(InputError,
                           match=rf"line {len(lines) + 2}: unexpected "
                                 r"'garbage line' after the last of 4 samples"):
            load_dataset(path)

    def test_trailing_line_after_model(self, tmp_path):
        path = tmp_path / "m.txt"
        save_model(TestModelRoundTrip().make_record(), path)
        lines = path.read_text().splitlines()
        self.rewrite(path, lines + [""])
        load_model(path)
        for extra in ("1.0", "trace 1"):
            self.rewrite(path, lines + ["", extra])
            with pytest.raises(InputError, match=rf"line {len(lines) + 2}: "
                                                 rf"unexpected '{extra}'"):
                load_model(path)


class TestSampleIds:
    @pytest.mark.parametrize("bad", ["a b", "x\tb", "a\nb", " a", "a\u2028b",
                                     "a\x1cb"])
    def test_id_that_does_not_load_back_is_not_saved(self, tmp_path, bad):
        dset = make_dataset(2, n=2, num_labels=2, num_latents=2, d_w=2,
                            d_theta=2)
        first, last = dset.samples
        renamed = SampleRecord(id=bad, truth_label=last.truth_label,
                               psi=last.psi, phi=last.phi)
        path = tmp_path / "d.txt"
        with pytest.raises(ConfigError, match="sample id"):
            save_dataset(Dataset(2, 2, 2, (first, renamed)), path)
        assert not path.exists()

    def test_token_ids_load_back(self, tmp_path):
        dset = make_dataset(2, n=1, num_labels=2, num_latents=2, d_w=2,
                            d_theta=2)
        s = dataclasses.replace(dset.samples[0], id="a,b#\u00e9")
        path = tmp_path / "d.txt"
        save_dataset(Dataset(2, 2, 2, (s,)), path)
        assert load_dataset(path).samples[0].id == "a,b#\u00e9"


class TestFailedSave:
    """A save that cannot encode its text raises InputError and leaves the
    file it would have replaced as it was, with no temporary file beside
    it."""

    @staticmethod
    def savers():
        dset = make_dataset(2, n=1, num_labels=2, num_latents=2, d_w=2,
                            d_theta=2)
        sample = dataclasses.replace(dset.samples[0], id="a\udcffb")
        record = TestModelRoundTrip().make_record()
        return {
            "dataset": lambda path: save_dataset(Dataset(2, 2, 2, (sample,)),
                                                 path),
            "model": lambda path: save_model(
                dataclasses.replace(record, method="dis\udcffsim"), path),
            "results": lambda path: save_results(
                [dataclasses.replace(TestResults.ROWS[0], loss_kind="\ud800")],
                path),
        }

    @pytest.mark.parametrize("kind", ["dataset", "model", "results"])
    def test_old_file_survives(self, tmp_path, kind):
        path = tmp_path / "target.txt"
        path.write_text("previous contents\n")
        with pytest.raises(InputError, match="UTF-8"):
            self.savers()[kind](path)
        assert path.read_text() == "previous contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["target.txt"]

    def test_replaces_an_existing_file_whole(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("x" * 10_000)
        save_results(TestResults.ROWS, path)
        assert load_results(path) == TestResults.ROWS
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv"]


class TestModelRoundTrip:
    def make_record(self):
        rng = np.random.default_rng(0)
        return ModelRecord(
            params=ModelParams(rng.standard_normal(5),
                               rng.standard_normal(3)),
            method="dissim",
            loss_kind="overlap",
            termination="tolerance",
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

    def test_unknown_termination_not_saved(self, tmp_path):
        rec = dataclasses.replace(self.make_record(), termination="converged")
        path = tmp_path / "m.txt"
        with pytest.raises(ConfigError, match="converged"):
            save_model(rec, path)
        assert not path.exists()

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
        ("dw", "dw -5"),
        ("trace", "trace -1"),
        ("loss", "loss overl\udcffap"),
        ("w", "w nan 1.0 2.0 3.0 4.0"),
        ("theta", "theta 1.0 -inf 2.0"),
        ("2.0", "nan"),
        ("termination", "termination bogus"),
    ])
    def test_malformed_field_reports_line(self, tmp_path, keyword, corrupt):
        path = tmp_path / "m.txt"
        save_model(self.make_record(), path)
        lines = path.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.split()[0] == keyword)
        lines[idx] = corrupt
        text = "\n".join(lines) + "\n"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
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

    def test_bytes_of_a_csv_writer_on_the_file(self, tmp_path):
        import csv

        path, reference = tmp_path / "r.csv", tmp_path / "ref.csv"
        save_results(self.ROWS, path)
        with reference.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(RESULTS_HEADER)
            for r in self.ROWS:
                writer.writerow([r.method, r.loss_kind, repr(r.C), r.fold,
                                 repr(r.test_loss), repr(r.train_objective),
                                 repr(r.wallclock_seconds)])
        assert path.read_bytes() == reference.read_bytes()

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
        valid = path.read_bytes()
        for row in (b"dissim,overlap,1.0,x,1.0,1.0,0.0\n",
                    b"dissim,overlap,1.0,0,1\xff,1.0,0.0\n"):
            path.write_bytes(valid + row)
            with pytest.raises(InputError, match=r"r\.csv line 4"):
                load_results(path)

    def test_magic_strings_are_stable(self):
        assert DATASET_MAGIC == "dissim-dataset 1"
        assert MODEL_MAGIC == "dissim-model 1"


class TestMutatedFiles:
    """One deleted, duplicated or rewritten line of a valid file either
    still loads or raises InputError/ConfigError; nothing else escapes."""

    @staticmethod
    def valid_files(root):
        dset = make_dataset(3, n=1, num_labels=2, num_latents=2, d_w=2,
                            d_theta=2, geometric=True)
        save_dataset(dset, root / "dataset")
        save_model(TestModelRoundTrip().make_record(), root / "model")
        save_results(TestResults.ROWS, root / "results")

    @settings(max_examples=600, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(["dataset", "model", "results"]),
           op=st.sampled_from(MUTATIONS),
           where=st.integers(0, 10_000),
           token=st.integers(0, 10_000),
           replacement=st.sampled_from(MUTATION_TOKENS))
    def test_load_succeeds_or_raises_input_error(
        self, tmp_path, kind, op, where, token, replacement
    ):
        if not (tmp_path / "dataset").exists():
            self.valid_files(tmp_path)
        path = tmp_path / "mutated"
        write_mutated(path, (tmp_path / kind).read_text().splitlines(), op,
                      where, token, replacement,
                      sep="," if kind == "results" else " ")
        load = {"dataset": load_dataset, "model": load_model,
                "results": load_results}[kind]
        try:
            load(path)
        except (InputError, ConfigError):
            pass


class TestTemporaryFiles:
    """Saves write a temporary file with a random name beside the target."""

    def test_leftover_temporary_does_not_block_a_save(self, tmp_path):
        """A file left by a killed run under the name a save of this
        process once used stays as it is, and the save goes through."""
        dset = make_dataset(2, n=2, num_labels=2, num_latents=2, d_w=2,
                            d_theta=2)
        path = tmp_path / "d.txt"
        leftover = tmp_path / f".d.txt.{os.getpid()}.tmp"
        leftover.write_text("partial")
        save_dataset(dset, path)
        assert path.read_text() == reference_dataset_text(dset)
        assert leftover.read_text() == "partial"
        assert sorted(p.name for p in tmp_path.iterdir()) == [leftover.name,
                                                             "d.txt"]

    def test_taken_name_is_drawn_again(self, tmp_path, monkeypatch):
        tokens = iter([b"\0" * 8, b"\1" * 8])
        monkeypatch.setattr(dataio.os, "urandom", lambda n: next(tokens))
        taken = tmp_path / f".r.csv.{'00' * 8}.tmp"
        taken.write_text("partial")
        save_results(TestResults.ROWS, tmp_path / "r.csv")
        assert load_results(tmp_path / "r.csv") == TestResults.ROWS
        assert taken.read_text() == "partial"
        assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name,
                                                             "r.csv"]

    def test_failed_save_after_written_samples(self, tmp_path):
        """A save that fails on its last sample, after the others were
        written, keeps the old file and removes its temporary."""
        dset = make_dataset(2, n=3, num_labels=2, num_latents=2, d_w=2,
                            d_theta=2)
        bad = dataclasses.replace(dset.samples[2], id="s\udcff")
        path = tmp_path / "d.txt"
        path.write_text("previous contents\n")
        leftover = tmp_path / f".d.txt.{os.getpid()}.tmp"
        leftover.write_text("partial")
        with pytest.raises(InputError, match="UTF-8"):
            save_dataset(Dataset(2, 2, 2, (*dset.samples[:2], bad)), path)
        assert path.read_text() == "previous contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [leftover.name,
                                                             "d.txt"]

    def test_saved_file_has_the_usual_permissions(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("")
        saved = tmp_path / "m.model"
        save_model(TestModelRoundTrip().make_record(), saved)
        assert (stat.S_IMODE(saved.stat().st_mode)
                == stat.S_IMODE(plain.stat().st_mode))


class TestKilledSave:
    """A save killed outright leaves the old file and no temporary."""

    SAVE = """
import sys, time
from dissim.dataio import write_atomic

def chunks():
    yield "x" * 100_000  # more than a buffer's worth, so bytes reach the file
    print("writing", flush=True)
    time.sleep(60)
    yield "never written"

write_atomic(sys.argv[1], chunks())
"""

    def test_sigkill_mid_save_leaves_nothing(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("previous contents\n")
        proc = subprocess.Popen([sys.executable, "-c", self.SAVE, str(path)],
                                stdout=subprocess.PIPE, text=True,
                                env=src_env())
        try:
            assert proc.stdout.readline() == "writing\n"
            # the file being written has no name yet
            assert [p.name for p in tmp_path.iterdir()] == ["d.txt"]
        finally:
            proc.kill()
            proc.communicate()
        assert proc.returncode == -signal.SIGKILL
        assert [p.name for p in tmp_path.iterdir()] == ["d.txt"]
        assert path.read_text() == "previous contents\n"

    def test_named_temporary_where_o_tmpfile_is_refused(self, tmp_path,
                                                        monkeypatch):
        """Without O_TMPFILE the save writes under a temporary name, and
        leaves only the target once it is done."""
        made = []
        real_open = open

        def watched_open(file, mode="r", *args, **kwargs):
            made.append((Path(file).name, mode))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.delattr(dataio.os, "O_TMPFILE", raising=False)
        monkeypatch.setattr(dataio, "open", watched_open, raising=False)
        save_results(TestResults.ROWS, tmp_path / "r.csv")
        assert len(made) == 1
        assert re.fullmatch(r"\.r\.csv\.[0-9a-f]{16}\.tmp", made[0][0])
        assert made[0][1] == "xb"
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]
        assert load_results(tmp_path / "r.csv") == TestResults.ROWS

    def test_named_temporary_where_proc_is_refused(self, tmp_path,
                                                   monkeypatch):
        """Without /proc the unnamed file could never be linked, so the
        save writes under a temporary name from the start: the same bytes,
        and no temporary left."""
        dset = make_dataset(3, n=4, num_labels=2, num_latents=3, d_w=2,
                            d_theta=2)
        save_dataset(dset, tmp_path / "want.txt")
        refused = []
        real_open = os.open

        def no_proc(file, *args, **kwargs):
            if file == "/proc/self/fd":
                refused.append(file)
                raise FileNotFoundError(2, "No such file or directory", file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(dataio.os, "open", no_proc)
        save_dataset(dset, tmp_path / "d.txt")
        assert refused
        assert ((tmp_path / "d.txt").read_bytes()
                == (tmp_path / "want.txt").read_bytes())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.txt",
                                                             "want.txt"]


def loaded(load, path, read=lambda load, path: load(path)):
    """What a loader makes of a file, as plain data whose equality is bit
    equality: its result, or its error's type and message."""
    try:
        value = read(load, path)
    except (InputError, ConfigError) as err:
        return type(err).__name__, str(err)
    if isinstance(value, Dataset):
        return (value.num_labels, value.d_w, value.d_theta,
                [(s.id, s.truth_label, s.truth_latent,
                  None if s.boxes is None else s.boxes.tolist(),
                  s.psi.shape, s.psi.tobytes(), s.phi.shape, s.phi.tobytes())
                 for s in value])
    if isinstance(value, ModelRecord):
        return (value.method, value.loss_kind, value.termination,
                value.params.w.tobytes(), value.params.theta.tobytes(),
                [repr(v) for v in value.trace])
    return [repr(row) for row in value]


class TestStreamingReaders:
    """The streaming loaders make of every file what the whole-text
    readers made of it: the same values bit for bit, or the same error
    naming the same line.  The one difference allowed is the codec's byte
    position inside a UTF-8 message, which now counts from the start of
    the line the message names."""

    LOADERS = {"dataset": load_dataset, "model": load_model,
               "results": load_results, "cli-dataset": load_dataset,
               "block-dataset": load_dataset}

    @staticmethod
    def valid_lines(root, kind):
        """The valid files the mutation tests of this module and of
        test_cli start from, and a small generated task in the block
        layout, as lines."""
        path = root / kind
        if kind == "cli-dataset":
            save_dataset(make_dataset(3, n=4, num_labels=2, num_latents=2,
                                      d_w=2, d_theta=2, geometric=True), path)
        elif kind == "block-dataset":
            save_dataset(generate(TaskSpec(
                num_classes=2, per_class=1, grid=4, boxes=4, box_cells=3,
                feature_dim=3))[0], path)
        else:
            TestMutatedFiles.valid_files(root)
        return path.read_text().splitlines()

    @staticmethod
    def mutations(lines, sep):
        """Every (op, where, token, replacement) whose mutated file differs
        from the others: ``write_mutated`` reduces where and token modulo
        the line and field counts."""
        for op in MUTATIONS:
            for where, line in enumerate(lines):
                if op != "rewrite":
                    yield op, where, 0, ""
                    continue
                for token in range(max(1, len(line.split(sep)) - 1)):
                    for replacement in MUTATION_TOKENS:
                        yield op, where, token, replacement

    @staticmethod
    def line_break_files(lines):
        """The valid text with its line endings and line contents changed
        in the ways ``str.splitlines`` and the decoder tell apart, each
        also with a last line that does not parse, so that an error comes
        after the change."""
        text = ("\n".join(lines) + "\n").encode("utf-8")
        yield text.replace(b"\n", b"\r\n")
        yield text.replace(b"\n", b"\r")
        yield text[:-1]
        yield text + b" \t"
        yield text + b"\xff"
        rows = text.split(b"\n")[:-1]
        for i, row in enumerate(rows):
            middle = len(row) // 2
            variants = [row + b"\r", row + b"\r\n", row[:middle] + b"\r\n"
                        + row[middle:], row + b"\xe2\x82"]
            for inner in ("\r", " ", "\x1c", "\x85", "\x0b", "\x0c",
                          "\xff", "é"):
                data = (inner.encode("utf-8") if inner != "\xff"
                        else b"\xff")
                variants.append(row[:middle] + data + row[middle:])
            for blank in (b"", b" \t ", "　".encode("utf-8")):
                variants.append(row + b"\n" + blank)
            for variant in variants:
                yield b"\n".join(rows[:i] + [variant] + rows[i + 1:]) + b"\n"
                if i < len(rows) - 1:
                    yield b"\n".join(rows[:i] + [variant] + rows[i + 1:-1]
                                     + [b"x 1,2"]) + b"\n"

    @staticmethod
    def quoted_results(root):
        """Results files whose quoted fields hold line breaks."""
        for inner in ("\n", "\r", "\r\n", " ", "\x1c"):
            path = root / "quoted"
            save_results([dataclasses.replace(TestResults.ROWS[0],
                                              method=f"a{inner}b"),
                          TestResults.ROWS[1]], path)
            yield path.read_bytes()

    def assert_same(self, load, path, case):
        new = loaded(load, path)
        old = loaded(load, path, read=reference_load)
        if "not UTF-8 text" in str(old[-1]):
            new, old = [(t, re.sub(r"in position \d+(-\d+)?", "", m))
                        for t, m in (new, old)]
        assert new == old, case

    @pytest.mark.parametrize("kind", list(LOADERS))
    def test_every_mutated_file(self, tmp_path, kind):
        lines = self.valid_lines(tmp_path, kind)
        sep = "," if kind == "results" else " "
        path = tmp_path / "mutated"
        for case in self.mutations(lines, sep):
            write_mutated(path, lines, *case, sep=sep)
            self.assert_same(self.LOADERS[kind], path, case)

    @pytest.mark.parametrize("kind", list(LOADERS))
    def test_line_breaks_and_bytes(self, tmp_path, kind):
        lines = self.valid_lines(tmp_path, kind)
        files = list(self.line_break_files(lines))
        if kind == "results":
            files += list(self.quoted_results(tmp_path))
        path = tmp_path / "changed"
        for data in files:
            path.write_bytes(data)
            self.assert_same(self.LOADERS[kind], path, data)

    def test_undecodable_byte_names_line_and_position(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(TestModelRoundTrip().make_record(), path)
        lines = path.read_bytes().split(b"\n")
        lines[2] = b"loss \xffoverlap"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(InputError,
                           match=r"m\.model line 3: not UTF-8 text .* "
                                 r"in position 5: invalid start byte"):
            load_model(path)

    @pytest.mark.parametrize("kind, bad", [
        ("dataset", b"psi 0 0 1.0 x 2.0"),
        ("dataset", b"psi 0 0 1.0 \xff 2.0"),
        ("model", b"w 1.0 x 2.0"),
        ("results", b"dissim,overlap,1.0,x,1.0,1.0,0.0"),
        ("results", b"dissim,overlap,1.0,0,1\xff,1.0,0.0"),
    ])
    def test_failed_load_closes_its_file(self, tmp_path, monkeypatch, kind,
                                         bad):
        """A load that fails mid-file has closed the file when it raises,
        and leaves no file for the collector to warn about."""
        TestMutatedFiles.valid_files(tmp_path)
        lines = (tmp_path / kind).read_bytes().split(b"\n")
        keyword = bad.split()[0] if kind != "results" else b"dissim,"
        i = next(i for i, l in enumerate(lines) if l.startswith(keyword))
        path = tmp_path / "failing"
        path.write_bytes(b"\n".join(lines[:i] + [bad] + lines[i + 1:]))
        opened = []

        def tracking_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(dataio, "open", tracking_open, raising=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(InputError, match=rf"line {i + 1}"):
                {"dataset": load_dataset, "model": load_model,
                 "results": load_results}[kind](path)
            assert len(opened) == 1 and opened[0].closed
            del opened[:]
            gc.collect()
        assert not [w for w in caught if w.category is ResourceWarning]


def test_loaded_sample_keeps_the_loader_arrays(tmp_path, monkeypatch):
    """load_dataset hands SampleRecord read-only psi, phi and boxes arrays,
    which the record keeps rather than copies."""
    dataset, _ = generate(TaskSpec(num_classes=2, per_class=2, seed=0))
    save_dataset(dataset, tmp_path / "d.txt")
    kept = []
    frozen = model._frozen_array

    def spy(values, dtype=np.float64):
        arr = frozen(values, dtype)
        kept.append(arr is values)
        return arr

    monkeypatch.setattr(model, "_frozen_array", spy)
    load_dataset(tmp_path / "d.txt")
    assert kept == [True] * 3 * len(dataset)


class TestLoadMemo:
    """The dataset loader's per-sample memo (field -> value) never changes
    which error a line raises, and never learns a field of a line that
    failed."""

    @staticmethod
    def reader():
        return dataio._LineReader(Path("memo.txt"), io.BytesIO(b""))

    @pytest.mark.parametrize("bad, message", [
        ("nan", "values must be finite"), ("1e999", "values must be finite"),
        ("x", "bad float field"),
    ])
    def test_errors_do_not_depend_on_the_memo(self, bad, message):
        for memo in (None, {}, {"0.0": 0.0, "0.5": 0.5}):
            with pytest.raises(InputError, match=f"memo.txt line 0: {message}"):
                self.reader().parse_finite(["0.0", bad, "0.5"], memo)
            assert memo is None or bad not in memo


def traced(fn):
    """fn's result, and the traced memory it allocated at its peak and
    still holds at its end, in bytes."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start, current - start


class TestMemoryBound:
    """Beyond the dataset itself, a save or a load holds one sample at a
    time: growing the file 4x grows neither peak by a sample's text."""

    def test_peaks_do_not_follow_the_file(self, tmp_path):
        save_peak, load_peak = {}, {}
        for per_class in (2, 8):
            dset, _ = generate(TaskSpec(per_class=per_class, seed=4))
            path = tmp_path / f"{per_class}.txt"
            _, save_peak[per_class], _ = traced(lambda: save_dataset(dset,
                                                                     path))
            back, peak, kept = traced(lambda: load_dataset(path))
            assert len(back) == len(dset)
            # the peak above what the returned dataset holds
            load_peak[per_class] = peak - kept
        sample_text = path.stat().st_size / len(dset)
        assert save_peak[8] - save_peak[2] < sample_text
        assert load_peak[8] - load_peak[2] < sample_text
