"""Text serialization: datasets, trained models, and result tables.

All formats are line-based and self-describing, with a magic first line
and integer counts up front, so files are validated while streaming.
Floats are written with ``repr``, which round-trips every finite double
exactly; loading a saved dataset reproduces the original bit for bit.
Each distinct double of a sample (or of a model) is formatted once and its
word reused, which writes the same bytes as formatting every value.

Files stream in both directions.  ``save_dataset`` hands the writer one
sample's text at a time, and the loaders decode and parse one line at a
time, so beyond the dataset itself a save or a load holds one sample, not
the file.  Every writer goes through ``write_atomic``, which writes a new
file beside the target (an unnamed ``O_TMPFILE`` on Linux, where
``/proc`` is mounted) and replaces the target with it only once that file
is complete.  A dataset whose every psi is the block embedding of its
phi (``model._block_embedding``) is written with the header line
``joint block`` and no psi rows, and its loader rebuilds each psi as that
embedding, a read-only window on the parsed phi's buffer, as ``generate``
makes it.  A results file is csv with one column per ``ResultRow``
field, in field order, so the record alone defines its layout.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence, get_type_hints

import numpy as np

from .errors import ConfigError, InputError
from .model import (
    BOX_COORD_LIMIT, Dataset, ModelParams, SampleRecord, _block_embedding,
)

DATASET_MAGIC = "dissim-dataset 1"
MODEL_MAGIC = "dissim-model 1"
# why training stopped, as a model file's termination line gives it
TERMINATIONS = ("tolerance", "round_budget", "repeat")


def _float_rows(*tables: np.ndarray) -> list[str]:
    """Every row of the 2-d tables, in order, as the ``repr`` words of its
    values joined by spaces.

    Each distinct double is formatted once; values are told apart by bit
    pattern, so -0.0 and 0.0 keep their own words.  The values' bits turn
    in place into token ids: the +0.0s (all bits clear), most of a psi
    table, keep token 0 where they lie; only the other values are sorted,
    so that equal bits sit side by side and each run gets the next token.
    The text is then one gather from the table of words, and one join per
    row."""
    tables = [np.asarray(t, dtype=np.float64) for t in tables]
    ids = np.concatenate([t.ravel() for t in tables]).view(np.int64)
    order = ids.nonzero()[0]
    order = order[ids[order].argsort()]
    runs = ids[order]
    first = np.empty(runs.size, dtype=bool)
    first[:1] = True
    np.not_equal(runs[1:], runs[:-1], out=first[1:])
    ids[order] = first.cumsum()
    words = np.array(
        ["0.0", *map(repr, runs[first].view(np.float64).tolist())], dtype=object
    )
    flat = words[ids]
    rows, start = [], 0
    for t in tables:
        rows += map(" ".join, flat[start : start + t.size].reshape(t.shape).tolist())
        start += t.size
    return rows


def _decoded_lines(handle, path: Path) -> Iterator[str]:
    """Each ``\\n``-terminated line of an open binary file, decoded as UTF-8
    with its ending kept; a line that does not decode is an InputError
    naming the file and the line."""
    for number, raw in enumerate(handle, 1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as err:
            raise InputError(f"{path} line {number}: not UTF-8 text ({err})") from err
        yield line


class _LineReader:
    """The lines of an open binary file as ``str.splitlines`` breaks its
    text, read one at a time; ``pos`` is the number of the last line read.
    Splitting each decoded line breaks the text where splitting all of it
    would: each decoded line ends in the ``\\n`` of a break, so no break,
    ``\\r\\n`` included, straddles two of them."""

    def __init__(self, path: Path, handle):
        self.path = path
        self.lines = chain.from_iterable(
            map(str.splitlines, _decoded_lines(handle, path))
        )
        self.pos = 0
        self.ahead: str | None = None  # the next non-blank line, once peeked
        self.blanks = 0  # the blank lines read before it

    def next(self) -> str:
        line = self.peek()
        if line is None:
            raise InputError(f"{self.path}: unexpected end of file")
        self.pos += self.blanks + 1
        self.ahead, self.blanks = None, 0
        return line

    def peek(self) -> str | None:
        """The next non-blank line, left for ``next``; None at the end."""
        if self.ahead is None:
            for line in self.lines:
                if line.strip():
                    self.ahead = line
                    break
                self.blanks += 1
        return self.ahead

    def expect_end(self, what: str) -> None:
        """Only blank lines are left; anything else is an InputError
        naming the first extra line."""
        if self.peek() is not None:
            line = self.next()
            raise self.error(f"unexpected {line!r} after {what}")

    def expect(self, keyword: str) -> list[str]:
        line = self.next()
        parts = line.split()
        if not parts or parts[0] != keyword:
            raise self.error(f"expected {keyword!r}, got {line!r}")
        return parts[1:]

    def expect_one(self, keyword: str) -> str:
        parts = self.expect(keyword)
        if len(parts) != 1:
            raise self.error(f"{keyword} takes one value")
        return parts[0]

    def expect_int(self, keyword: str) -> int:
        return self.parse([self.expect_one(keyword)], int)[0]

    def expect_count(self, keyword: str) -> int:
        """A non-negative integer field."""
        value = self.expect_int(keyword)
        if value < 0:
            raise self.error(f"{keyword} must be >= 0, got {value}")
        return value

    def error(self, message: str) -> InputError:
        return InputError(f"{self.path} line {self.pos}: {message}")

    def parse(self, fields: Sequence[str], kind=float) -> list:
        """Fields of the current line converted by ``kind``; a field that
        does not convert is an InputError naming the line."""
        try:
            return list(map(kind, fields))
        except ValueError as err:
            raise self.error(f"bad {kind.__name__} field ({err})") from err

    def parse_finite(
        self, fields: Sequence[str], memo: dict[str, float] | None = None
    ) -> list[float]:
        """Float fields of the current line; a value that is not finite is
        an InputError naming the line.  With a memo (field -> value), a line
        whose fields are all in it is read from it; any other line is
        converted in full, so the memo never changes which error a line
        raises, and its fields are remembered."""
        if memo:
            try:
                return list(map(memo.__getitem__, fields))
            except KeyError:
                pass
        values = self.parse(fields)
        if not all(map(math.isfinite, values)):
            raise self.error("values must be finite")
        if memo is not None:
            memo.update(zip(fields, values))
        return values


def write_atomic(path, chunks: Iterable[str]) -> None:
    """Write the text of ``chunks`` as UTF-8 in place of ``path``, whole or
    not at all.

    Each chunk is encoded and written in turn to a new file beside the
    target, created like any other file, so the saved file gets the usual
    permissions.  On Linux that file is an unnamed ``O_TMPFILE``, so a save
    killed while writing leaves nothing behind; once complete it is linked
    under a temporary name, through ``/proc/self/fd``, and that name then
    replaces the target.  Where the system or the file system refuses
    ``O_TMPFILE``, or ``/proc`` is not mounted, the file is made under the
    temporary name from the start.  The name carries a random token,
    so that no file left by an earlier run can stand in its way.  A failed
    save leaves an existing file as it was and removes its temporary.  A
    chunk UTF-8 cannot encode (a lone surrogate) raises InputError.
    """
    path = Path(path)
    temporary = fds = None
    try:
        try:
            # both opened first, so a refusal of either names the file at once
            fds = os.open("/proc/self/fd", os.O_RDONLY | os.O_DIRECTORY)
            handle = open(os.open(path.parent, os.O_TMPFILE | os.O_WRONLY, 0o666),
                          "wb")
        except (AttributeError, OSError):  # no O_TMPFILE or no /proc here
            temporary, handle = _draw_name(path, lambda name: open(name, "xb"))
        with handle:
            for chunk in chunks:
                try:
                    data = chunk.encode("utf-8")
                except UnicodeEncodeError as err:
                    raise InputError(
                        f"{path}: cannot write "
                        f"{err.object[err.start:err.end]!r} as UTF-8"
                    ) from None
                handle.write(data)
            if temporary is None:
                handle.flush()
                # os.link follows this process's link to the open file only
                # when the source is relative to a directory fd
                temporary, _ = _draw_name(path, lambda name: os.link(
                    str(handle.fileno()), name, src_dir_fd=fds))
        os.replace(temporary, path)
    except BaseException:
        if temporary is not None:
            temporary.unlink(missing_ok=True)
        raise
    finally:
        if fds is not None:
            os.close(fds)


def _draw_name(path: Path, make):
    """A temporary name beside ``path``, drawn again until ``make(name)``
    finds it free, and what ``make`` returned."""
    while True:
        temporary = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
        try:
            return temporary, make(temporary)
        except FileExistsError:
            continue


def save_dataset(dataset: Dataset, path) -> None:
    for s in dataset:
        # the loader reads a sample line's id as one whitespace-split token
        if s.id.split() != [s.id]:
            raise ConfigError(
                f"sample id {s.id!r} must be one token without whitespace"
            )
    write_atomic(path, _dataset_chunks(dataset, _is_block(dataset)))


def _is_block(dataset: Dataset) -> bool:
    """Whether every sample's psi is the block embedding of its phi, bit
    for bit: the bits are compared, so a -0.0 off the blocks keeps the
    file dense.  Compared label by label: numpy compares a whole window,
    whose labels overlap in memory, through dense copies of both sides."""
    labels = dataset.num_labels
    return dataset.d_w == labels * dataset.d_theta and all(
        all(map(np.array_equal, s.psi.view(np.int64),
                _block_embedding(s.phi, labels).view(np.int64)))
        for s in dataset
    )


def _dataset_chunks(dataset: Dataset, block: bool) -> Iterator[str]:
    """A dataset file's text: the header, then one chunk per sample.  A
    block file holds no psi rows."""
    yield (
        f"{DATASET_MAGIC}\n"
        f"labels {dataset.num_labels}\n"
        f"dw {dataset.d_w}\n"
        f"dtheta {dataset.d_theta}\n"
        f"geometric {1 if dataset.geometric else 0}\n"
        + ("joint block\n" if block else "")
        + f"samples {len(dataset)}\n"
    )
    for s in dataset:
        out = [f"sample {s.id}", f"label {s.truth_label}"]
        if s.truth_latent is not None:
            out.append(f"truth_latent {s.truth_latent}")
        out.append(f"latents {s.num_latents}")
        if s.geometric:
            for k, (x0, y0, x1, y1) in enumerate(s.boxes.tolist()):
                out.append(f"latent {k} {x0} {y0} {x1} {y1}")
        else:
            out.extend(f"latent {k}" for k in range(s.num_latents))
        L, K, d_w = s.psi.shape
        if block:
            rows = iter(_float_rows(s.phi))
        else:
            rows = iter(_float_rows(s.psi.reshape(L * K, d_w), s.phi))
            for y in range(L):
                for k in range(K):
                    out.append(f"psi {y} {k} {next(rows)}")
        for k in range(K):
            out.append(f"phi {k} {next(rows)}")
        yield "\n".join(out) + "\n"


def load_dataset(path) -> Dataset:
    path = Path(path)
    if not path.exists():
        raise InputError(f"dataset file {path} does not exist")
    with open(path, "rb") as handle:
        reader = _LineReader(path, handle)
        magic = reader.next()
        if magic != DATASET_MAGIC:
            raise InputError(f"{path}: not a dataset file (magic {magic!r})")
        num_labels = reader.expect_count("labels")
        if num_labels < 2:
            raise reader.error(f"labels must be >= 2, got {num_labels}")
        d_w = reader.expect_count("dw")
        d_theta = reader.expect_count("dtheta")
        geometric = reader.expect_int("geometric")
        if geometric not in (0, 1):
            raise reader.error(f"geometric must be 0 or 1, got {geometric}")
        latent_fields = 5 if geometric else 1
        block = False
        if (peeked := reader.peek()) is not None and peeked.startswith("joint"):
            joint = reader.expect_one("joint")
            if joint != "block":
                raise reader.error(f"joint must be block, got {joint!r}")
            if d_w != num_labels * d_theta:
                raise reader.error(
                    f"joint block needs dw = labels * dtheta = "
                    f"{num_labels * d_theta}, got {d_w}"
                )
            block = True
        n = reader.expect_count("samples")
        if n < 1:
            raise reader.error("samples must be >= 1")
        samples, seen_ids = [], set()
        for _ in range(n):
            parts = reader.expect("sample")
            if len(parts) != 1:
                raise reader.error("sample takes one id")
            sample_id = parts[0]
            # the checks Dataset and SampleRecord would make are made row by
            # row here, so that each error names its line
            if sample_id in seen_ids:
                raise reader.error(f"duplicate sample id {sample_id!r}")
            seen_ids.add(sample_id)
            label = reader.expect_int("label")
            if not 0 <= label < num_labels:
                raise reader.error(f"label {label} outside [0, {num_labels})")
            truth_latent = None
            if (peeked := reader.peek()) is not None and peeked.startswith(
                "truth_latent"
            ):
                truth_latent = reader.expect_int("truth_latent")
                truth_line = reader.pos
            K = reader.expect_count("latents")
            if K < 1:
                raise reader.error("latents must be >= 1")
            if truth_latent is not None and not 0 <= truth_latent < K:
                raise InputError(
                    f"{path} line {truth_line}: truth_latent {truth_latent} "
                    f"outside [0, {K})"
                )
            boxes = []
            for k in range(K):
                parts = reader.expect("latent")
                if len(parts) != latent_fields:
                    raise reader.error(
                        f"latent takes {latent_fields} value(s) in a file with "
                        f"geometric {geometric}"
                    )
                parts = reader.parse(parts, int)
                if parts[0] != k:
                    raise reader.error(f"latent index {parts[0]} at position {k}")
                box = parts[1:]
                if geometric:
                    if not (
                        -BOX_COORD_LIMIT <= min(box) and max(box) < BOX_COORD_LIMIT
                    ):
                        raise reader.error(
                            "box coordinates must lie in "
                            f"[{-BOX_COORD_LIMIT}, {BOX_COORD_LIMIT})"
                        )
                    if not (box[0] < box[2] and box[1] < box[3]):
                        raise reader.error(
                            f"degenerate box {tuple(box)}: need x0 < x1 and y0 < y1"
                        )
                boxes.append(box)
            # the arrays are built from the parsed rows, so a corrupt count
            # never sizes an allocation; the memo holds this sample's fields
            memo: dict[str, float] = {}
            psi_values = []
            for y in range(0 if block else num_labels):  # block: no psi rows
                for k in range(K):
                    parts = reader.expect("psi")
                    if len(parts) != 2 + d_w:
                        raise reader.error(
                            f"psi row needs {2 + d_w} fields, got {len(parts)}"
                        )
                    if reader.parse(parts[:2], int) != [y, k]:
                        raise reader.error("psi rows out of order")
                    psi_values += reader.parse_finite(parts[2:], memo)
            phi_values = []
            for k in range(K):
                parts = reader.expect("phi")
                if len(parts) != 1 + d_theta:
                    raise reader.error(
                        f"phi row needs {1 + d_theta} fields, got {len(parts)}"
                    )
                if reader.parse(parts[:1], int) != [k]:
                    raise reader.error("phi rows out of order")
                phi_values += reader.parse_finite(parts[1:], memo)
            # frozen here, so SampleRecord keeps them without a copy
            phi = np.array(phi_values).reshape(K, d_theta)
            phi.flags.writeable = False
            if block:
                psi = _block_embedding(phi, num_labels)
            else:
                psi = np.array(psi_values).reshape(num_labels, K, d_w)
                psi.flags.writeable = False
            boxes = np.array(boxes, dtype=np.int64) if geometric else None
            if geometric:
                boxes.flags.writeable = False
            samples.append(
                SampleRecord(
                    id=sample_id,
                    truth_label=label,
                    psi=psi,
                    phi=phi,
                    boxes=boxes,
                    truth_latent=truth_latent,
                )
            )
        reader.expect_end(f"the last of {n} samples")
        return Dataset(
            num_labels=num_labels, d_w=d_w, d_theta=d_theta, samples=tuple(samples)
        )


@dataclass(frozen=True)
class ModelRecord:
    """A trained model as stored on disk."""

    params: ModelParams
    method: str
    loss_kind: str
    termination: str
    trace: list[float]


def save_model(record: ModelRecord, path) -> None:
    if record.termination not in TERMINATIONS:
        raise ConfigError(
            f"termination {record.termination!r} is not one of "
            f"{', '.join(TERMINATIONS)}"
        )
    out = [MODEL_MAGIC]
    out.append(f"method {record.method}")
    out.append(f"loss {record.loss_kind}")
    out.append(f"dw {record.params.w.size}")
    out.append(f"dtheta {record.params.theta.size}")
    out.append(f"termination {record.termination}")
    w, theta, *trace = _float_rows(
        record.params.w[None], record.params.theta[None],
        np.reshape(record.trace, (-1, 1)),
    )
    out.append(f"w {w}")
    out.append(f"theta {theta}")
    out.append(f"trace {len(trace)}")
    out.extend(trace)
    write_atomic(path, ["\n".join(out) + "\n"])


def load_model(path) -> ModelRecord:
    path = Path(path)
    if not path.exists():
        raise InputError(f"model file {path} does not exist")
    with open(path, "rb") as handle:
        reader = _LineReader(path, handle)
        magic = reader.next()
        if magic != MODEL_MAGIC:
            raise InputError(f"{path}: not a model file (magic {magic!r})")
        method = reader.expect_one("method")
        loss_kind = reader.expect_one("loss")
        d_w = reader.expect_count("dw")
        d_theta = reader.expect_count("dtheta")
        termination = reader.expect_one("termination")
        if termination not in TERMINATIONS:
            raise reader.error(
                f"termination {termination!r} is not one of {', '.join(TERMINATIONS)}"
            )
        w = reader.parse_finite(reader.expect("w"))
        theta = reader.parse_finite(reader.expect("theta"))
        if len(w) != d_w or len(theta) != d_theta:
            raise InputError(f"{path}: parameter vector length mismatch")
        trace_len = reader.expect_count("trace")
        trace = [reader.parse_finite([reader.next()])[0] for _ in range(trace_len)]
        reader.expect_end(f"the last of {trace_len} trace values")
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


# a results file's columns: ResultRow's fields, each float as its repr
_RESULT_COLUMNS = tuple(get_type_hints(ResultRow).items())
RESULTS_HEADER = tuple(name for name, _ in _RESULT_COLUMNS)


def save_results(rows: Sequence[ResultRow], path) -> None:
    with io.StringIO(newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RESULTS_HEADER)
        writer.writerows(
            [repr(getattr(r, name)) if kind is float else getattr(r, name)
             for name, kind in _RESULT_COLUMNS]
            for r in rows
        )
        text = handle.getvalue()
    write_atomic(path, [text])


def load_results(path) -> list[ResultRow]:
    path = Path(path)
    if not path.exists():
        raise InputError(f"results file {path} does not exist")
    with open(path, "rb") as handle:
        # csv reads the lines as a file opened with newline="" gives them,
        # broken at \n, \r and \r\n only, line endings kept
        reader = csv.reader(chain.from_iterable(
            io.StringIO(line, newline="") for line in _decoded_lines(handle, path)
        ))
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
                rows.append(ResultRow(*(
                    kind(part) for (_, kind), part in zip(_RESULT_COLUMNS, parts)
                )))
            except ValueError as err:
                raise InputError(
                    f"{path} line {reader.line_num}: bad results field ({err})"
                ) from err
    return rows
