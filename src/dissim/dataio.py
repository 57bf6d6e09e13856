"""Text serialization: datasets, trained models, and result tables.

All formats are line-based and self-describing, with a magic first line
and integer counts up front, so files can be validated while streaming.
Floats are written with ``repr``, which round-trips every finite double
exactly; loading a saved dataset reproduces the original bit for bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError
from .model import Dataset, LatentValue, ModelParams, SampleRecord

DATASET_MAGIC = "dissim-dataset 1"
MODEL_MAGIC = "dissim-model 1"
RESULTS_HEADER = (
    "method",
    "loss_kind",
    "C",
    "fold",
    "test_loss",
    "train_objective",
    "wallclock_seconds",
)


def _fmt_floats(values: Iterable[float]) -> str:
    return " ".join(repr(float(v)) for v in values)


class _LineReader:
    def __init__(self, path: Path):
        self.path = path
        self.lines = path.read_text().splitlines()
        self.pos = 0

    def next(self) -> str:
        while self.pos < len(self.lines):
            line = self.lines[self.pos]
            self.pos += 1
            if line.strip():
                return line.rstrip("\n")
        raise InputError(f"{self.path}: unexpected end of file")

    def peek(self) -> str | None:
        pos = self.pos
        while pos < len(self.lines):
            if self.lines[pos].strip():
                return self.lines[pos]
            pos += 1
        return None

    def expect(self, keyword: str) -> list[str]:
        line = self.next()
        parts = line.split()
        if not parts or parts[0] != keyword:
            raise InputError(
                f"{self.path} line {self.pos}: expected {keyword!r}, got {line!r}"
            )
        return parts[1:]

    def expect_one(self, keyword: str) -> str:
        parts = self.expect(keyword)
        if len(parts) != 1:
            raise InputError(
                f"{self.path} line {self.pos}: {keyword} takes one value"
            )
        return parts[0]

    def expect_int(self, keyword: str) -> int:
        return self.parse([self.expect_one(keyword)], int)[0]

    def parse(self, fields: Sequence[str], kind=float) -> list:
        """Fields of the current line converted by ``kind``; a field that
        does not convert is an InputError naming the line."""
        try:
            return [kind(v) for v in fields]
        except ValueError as err:
            raise InputError(
                f"{self.path} line {self.pos}: bad {kind.__name__} field ({err})"
            ) from err


def save_dataset(dataset: Dataset, path) -> None:
    path = Path(path)
    out = [DATASET_MAGIC]
    out.append(f"labels {dataset.num_labels}")
    out.append(f"dw {dataset.d_w}")
    out.append(f"dtheta {dataset.d_theta}")
    out.append(f"geometric {1 if dataset.geometric else 0}")
    out.append(f"samples {len(dataset)}")
    for s in dataset:
        out.append(f"sample {s.id}")
        out.append(f"label {s.truth_label}")
        if s.truth_latent is not None:
            out.append(f"truth_latent {s.truth_latent}")
        out.append(f"latents {s.num_latents}")
        for lv in s.latent_space:
            if lv.box is not None:
                x0, y0, x1, y1 = lv.box
                out.append(f"latent {lv.index} {x0} {y0} {x1} {y1}")
            else:
                out.append(f"latent {lv.index}")
        for y in range(dataset.num_labels):
            for k in range(s.num_latents):
                out.append(f"psi {y} {k} {_fmt_floats(s.psi[y, k])}")
        for k in range(s.num_latents):
            out.append(f"phi {k} {_fmt_floats(s.phi[k])}")
    path.write_text("\n".join(out) + "\n")


def load_dataset(path) -> Dataset:
    path = Path(path)
    if not path.exists():
        raise InputError(f"dataset file {path} does not exist")
    reader = _LineReader(path)
    magic = reader.next()
    if magic != DATASET_MAGIC:
        raise InputError(f"{path}: not a dataset file (magic {magic!r})")
    num_labels = reader.expect_int("labels")
    d_w = reader.expect_int("dw")
    d_theta = reader.expect_int("dtheta")
    geometric = reader.expect_int("geometric")
    n = reader.expect_int("samples")
    samples = []
    for _ in range(n):
        parts = reader.expect("sample")
        if len(parts) != 1:
            raise InputError(f"{path} line {reader.pos}: sample takes one id")
        sample_id = parts[0]
        label = reader.expect_int("label")
        truth_latent = None
        if (peeked := reader.peek()) is not None and peeked.startswith(
            "truth_latent"
        ):
            truth_latent = reader.expect_int("truth_latent")
        K = reader.expect_int("latents")
        latents = []
        for k in range(K):
            parts = reader.parse(reader.expect("latent"), int)
            if len(parts) == 1:
                latents.append(LatentValue(index=parts[0]))
            elif len(parts) == 5:
                latents.append(LatentValue(index=parts[0], box=tuple(parts[1:])))
            else:
                raise InputError(
                    f"{path} line {reader.pos}: latent takes 1 or 5 values"
                )
        psi = np.empty((num_labels, K, d_w))
        for y in range(num_labels):
            for k in range(K):
                parts = reader.expect("psi")
                if len(parts) != 2 + d_w:
                    raise InputError(
                        f"{path} line {reader.pos}: psi row needs "
                        f"{2 + d_w} fields, got {len(parts)}"
                    )
                if reader.parse(parts[:2], int) != [y, k]:
                    raise InputError(
                        f"{path} line {reader.pos}: psi rows out of order"
                    )
                psi[y, k] = reader.parse(parts[2:])
        phi = np.empty((K, d_theta))
        for k in range(K):
            parts = reader.expect("phi")
            if len(parts) != 1 + d_theta:
                raise InputError(
                    f"{path} line {reader.pos}: phi row needs "
                    f"{1 + d_theta} fields, got {len(parts)}"
                )
            if reader.parse(parts[:1], int) != [k]:
                raise InputError(f"{path} line {reader.pos}: phi rows out of order")
            phi[k] = reader.parse(parts[1:])
        samples.append(
            SampleRecord(
                id=sample_id,
                truth_label=label,
                latent_space=tuple(latents),
                psi=psi,
                phi=phi,
                truth_latent=truth_latent,
            )
        )
    dataset = Dataset(
        num_labels=num_labels, d_w=d_w, d_theta=d_theta, samples=tuple(samples)
    )
    if dataset.geometric != bool(geometric):
        raise InputError(f"{path}: geometric flag disagrees with latent boxes")
    return dataset


@dataclass
class ModelRecord:
    """A trained model as stored on disk."""

    params: ModelParams
    method: str
    loss_kind: str
    termination: str
    trace: list[float]


def save_model(record: ModelRecord, path) -> None:
    path = Path(path)
    out = [MODEL_MAGIC]
    out.append(f"method {record.method}")
    out.append(f"loss {record.loss_kind}")
    out.append(f"dw {record.params.w.size}")
    out.append(f"dtheta {record.params.theta.size}")
    out.append(f"termination {record.termination}")
    out.append(f"w {_fmt_floats(record.params.w)}")
    out.append(f"theta {_fmt_floats(record.params.theta)}")
    out.append(f"trace {len(record.trace)}")
    for v in record.trace:
        out.append(repr(float(v)))
    path.write_text("\n".join(out) + "\n")


def load_model(path) -> ModelRecord:
    path = Path(path)
    if not path.exists():
        raise InputError(f"model file {path} does not exist")
    reader = _LineReader(path)
    magic = reader.next()
    if magic != MODEL_MAGIC:
        raise InputError(f"{path}: not a model file (magic {magic!r})")
    method = reader.expect_one("method")
    loss_kind = reader.expect_one("loss")
    d_w = reader.expect_int("dw")
    d_theta = reader.expect_int("dtheta")
    termination = reader.expect_one("termination")
    w = reader.parse(reader.expect("w"))
    theta = reader.parse(reader.expect("theta"))
    if len(w) != d_w or len(theta) != d_theta:
        raise InputError(f"{path}: parameter vector length mismatch")
    trace_len = reader.expect_int("trace")
    trace = [reader.parse([reader.next()])[0] for _ in range(trace_len)]
    return ModelRecord(
        params=ModelParams(np.array(w), np.array(theta)),
        method=method,
        loss_kind=loss_kind,
        termination=termination,
        trace=trace,
    )


@dataclass(frozen=True)
class ResultRow:
    method: str
    loss_kind: str
    C: float
    fold: int
    test_loss: float
    train_objective: float
    wallclock_seconds: float


def save_results(rows: Sequence[ResultRow], path) -> None:
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RESULTS_HEADER)
        for r in rows:
            writer.writerow(
                [
                    r.method,
                    r.loss_kind,
                    repr(r.C),
                    r.fold,
                    repr(r.test_loss),
                    repr(r.train_objective),
                    repr(r.wallclock_seconds),
                ]
            )


def load_results(path) -> list[ResultRow]:
    path = Path(path)
    if not path.exists():
        raise InputError(f"results file {path} does not exist")
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader, ()))
        if header != RESULTS_HEADER:
            raise InputError(f"{path}: unexpected results header {header}")
        rows = []
        for parts in reader:
            if not parts:
                continue
            if len(parts) != len(RESULTS_HEADER):
                raise InputError(f"{path}: malformed results row {parts}")
            try:
                rows.append(
                    ResultRow(
                        method=parts[0],
                        loss_kind=parts[1],
                        C=float(parts[2]),
                        fold=int(parts[3]),
                        test_loss=float(parts[4]),
                        train_objective=float(parts[5]),
                        wallclock_seconds=float(parts[6]),
                    )
                )
            except ValueError as err:
                raise InputError(
                    f"{path} line {reader.line_num}: bad results field ({err})"
                ) from err
    return rows
