"""Command-line front end: ingestion, selection, simulation, bootstrap.

Curves are read from a long-format CSV (``sample_id,predictor_id,t,value``)
with responses in a second file (``sample_id,y``). Every option is declared
once, as a field of :class:`JobConfig`: the field name gives the flag and the
config-file key, the default gives the default and the flag's type, and
``JobConfig.__post_init__`` is the one range check. A value comes from its
flag, else from the optional flat ``key = value`` config file, else (the seed
only) from the FUNCSEL_SEED environment variable, else from the default.
Config lines go through the same argparse conversions and choices as flags,
and an unknown key is rejected. A usage error prints the usage line and the
reason.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from itertools import chain, islice

import numpy as np

from .bspline import BasisSpec, make_uniform_basis
from .design import DesignMatrix, build_design, check_parameter_count
from .errors import DataError, NumericalError, RankDeficiencyError
from .inference import test_all, test_resamples
from .linmodel import sample_qr
from .selection import check_method, check_q, default_q, selection_mask
from .simgen import NUM_PREDICTORS, SimScenario, _rng_for, run_monte_carlo
from .smoothing import CurveBlock, build_dataset

__all__ = [
    "JobConfig",
    "ingest_long_csv",
    "run_select",
    "run_bootstrap",
    "bootstrap_counts",
    "run_simulate",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

# config keys "<name>.<predictor id>" that override one predictor's basis
_OVERRIDES = ("basis_size", "degree", "domain")

# lines of the curves file split and converted at a time. On a 90,000-row
# file, an ingest in chunks of 4,096 and 1,024 lines took 3% and 13% more
# CPU time than in chunks of 16,384, and raised the peak RSS by 7.8 and 7.4
# MB, against 10.0 MB. But after 4,096-line chunks, glibc trimmed the heap
# under the bootstrap's batch arrays after each batch, and faulted them in
# again, in 52 of 80 jobs (the 3rd to 12th of 8 processes): 26,700 more page
# faults a job, and about a quarter more CPU time in bootstrap_counts. After
# 16,384-line chunks it did so in 1 of 80.
CHUNK_LINES = 16384
# bytes read from the curves file at a time, per line of a chunk: 256 KiB
# for 16,384-line chunks, a third of a chunk of 47-byte lines, so the memory
# held scales with the chunk. Cutting a 90,000-row file into chunks took
# 3-4 ms of CPU time in reads of 16 bytes a line, and 5-8 ms in reads of 64.
LINE_BYTES = 16
_CURVES_HEADER = ["sample_id", "predictor_id", "t", "value"]


@dataclass(frozen=True)
class JobConfig:
    """Resolved job options for one CLI invocation.

    Every field but the overrides is one flag (``basis_size`` is
    ``--basis-size``) and one config key, of the type of its default (str
    when the default is None); the metadata holds the flag's choices and
    help. The overrides are keyed by predictor id, from config lines such as
    "basis_size.TEMP = 8" or "domain.TEMP = 0:12".
    """

    mode: str | None = field(
        default=None, metadata={"choices": ("select", "simulate", "bootstrap")}
    )
    curves: str | None = None
    responses: str | None = None
    method: str = field(default="fdr", metadata={"choices": ("bc", "fdr")})
    q: str = field(
        default="auto",
        metadata={"help": "level in (0,1), or 'auto' for the rule of thumb"},
    )
    basis_size: int = 6
    degree: int = 3
    seed: int = 0
    reps: int = 100
    bootstrap_b: int = 100
    out: str | None = None
    c: float = field(default=0.0, metadata={"help": "signal strength for simulate mode"})
    n: int = field(default=300, metadata={"help": "sample size for simulate mode"})
    basis_size_overrides: dict[str, int] = field(default_factory=dict)
    degree_overrides: dict[str, int] = field(default_factory=dict)
    domain_overrides: dict[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        if self.mode is None:
            raise ValueError("--mode is required (select, simulate, or bootstrap)")
        if self.mode in ("select", "bootstrap") and not (self.curves and self.responses):
            raise ValueError(f"mode '{self.mode}' requires --curves and --responses")
        checks = [
            ("--reps", self.reps, 1),
            ("--bootstrap-b", self.bootstrap_b, 1),
        ]
        # one rule for the flags' basis and for every overridden predictor's
        overridden = self.degree_overrides.keys() | self.basis_size_overrides.keys()
        for predictor in [None, *sorted(overridden)]:
            degree, num_basis = self.basis_of(predictor)
            names = (
                ("--degree", "--basis-size")
                if predictor is None
                else (f"degree.{predictor}", f"basis_size.{predictor}")
            )
            checks += [(names[0], degree, 0), (names[1], num_basis, degree + 1)]
        for name, value, low in checks:
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if not 0 <= self.seed < 2**64:  # the Philox key is a uint64
            raise ValueError(f"--seed must lie in [0, 2**64), got {self.seed}")
        SimScenario(c=self.c, n=self.n, seed=self.seed)  # the rules of --n and --c
        for predictor, (lo, hi) in self.domain_overrides.items():
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(
                    f"domain.{predictor} must be finite with lo < hi, got {lo}:{hi}"
                )
        if self.q != "auto":
            check_q(float(self.q))

    def basis_of(self, predictor: str | None) -> tuple[int, int]:
        """(degree, basis size) of a predictor; None gives the flags' values."""
        return (
            self.degree_overrides.get(predictor, self.degree),
            self.basis_size_overrides.get(predictor, self.basis_size),
        )

    def resolve_q(self, n: int, num_predictors: int) -> float:
        return default_q(n, num_predictors) if self.q == "auto" else float(self.q)


# the fields that are flags, by name
_OPTIONS = {f.name: f for f in fields(JobConfig) if not f.name.endswith("_overrides")}


def _parse_float(text: str, path: str, line: int, field_name: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"{path} line {line}: field '{field_name}' is not numeric: {text!r}"
        ) from None
    if not math.isfinite(value):
        raise DataError(
            f"{path} line {line}: field '{field_name}' is not finite: {text!r}"
        )
    return value


def _check_header(first: list[str] | None, path: str, header: list[str]) -> None:
    if first is None or [h.strip() for h in first] != header:
        raise DataError(f"{path} line 1: expected header '{','.join(header)}'")


def _csv_reader(handle, path: str, header: list[str]):
    """The CSV rows of ``handle`` past its first line, which must be
    ``header``. A row the csv module rejects, such as a field longer than
    ``csv.field_size_limit()``, raises :class:`DataError` naming its line."""
    reader = csv.reader(handle)
    try:
        _check_header(next(reader, None), path, header)
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path} line {reader.line_num}: {exc}") from None


@contextmanager
def _utf8_errors(path: str):
    """A byte of ``path`` that does not decode as UTF-8 raises
    :class:`DataError` naming the file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path}: not UTF-8 text: cannot decode byte "
            f"0x{exc.object[exc.start]:02x} ({exc.reason})"
        ) from None


@contextmanager
def _open_utf8(path: str, newline: str):
    """``path`` opened as UTF-8 text (a byte order mark is skipped)."""
    with _utf8_errors(path), open(
        path, newline=newline, encoding="utf-8-sig"
    ) as handle:
        yield handle


class _NotPlain(Exception):
    """The curves file holds a quote or a bare carriage return, where
    splitting its lines at commas could disagree with the csv module."""


def _runs(
    data: bytes, begin: np.ndarray, stop: np.ndarray
) -> tuple[bytes, np.ndarray]:
    """Runs of consecutive rows whose fields ``data[begin[r]:stop[r]]`` are
    equal in bytes: the fields of the runs' first rows, end to end, and the
    runs' lengths."""
    size = stop - begin
    # the 8 bytes from each offset of ``data`` as one little-endian word
    words = np.ndarray(len(data), "<u8", data + bytes(8), strides=(1,))
    same = np.zeros(begin.size, bool)
    same[1:] = size[1:] == size[:-1]
    # compare fields of equal length with the one before, 8 bytes at a time,
    # the bytes past their end shifted out, while they still agree
    for start in range(0, int(size.max(initial=0)), 8):
        rows = np.flatnonzero(same & (size > start))
        past = 8 * np.maximum(start + 8 - size[rows], 0).astype(np.uint64)
        differ = words[begin[rows] + start] ^ words[begin[rows - 1] + start]
        same[rows] = differ << past == 0
    firsts = np.flatnonzero(~same)
    size, begin = size[firsts], begin[firsts]
    at = np.arange(size.sum()) + np.repeat(begin - (np.cumsum(size) - size), size)
    lengths = np.diff(firsts, append=same.size)
    return np.frombuffer(data, np.uint8)[at].tobytes(), lengths


def _segments(raw: np.ndarray, begin: np.ndarray, stop: np.ndarray) -> bytes:
    """The bytes ``raw[begin[i]:stop[i]]`` of ascending disjoint spans, each
    followed by a comma, end to end; ``stop`` lies inside ``raw``."""
    edges = np.column_stack((begin, stop + 1)).ravel()
    spans = np.diff(edges, prepend=0, append=raw.size)
    inside = np.zeros(spans.size, bool)
    inside[1::2] = True
    out = raw[np.repeat(inside, spans)]
    out[np.cumsum(spans[1::2]) - 1] = ord(",")
    return out.tobytes()


def _parse_columns(numbers: bytes, rows: int):
    """The ``t`` and ``value`` columns of ``rows`` rows' "t,value," bytes:
    float arrays read by numpy in one pass where that read must agree with
    ``float()``, else the lists of their texts. Only the caller holds
    either, so they are freed before the next chunk is read.

    numpy reads each field with CPython's own correctly rounded parser, but
    skips whitespace around it, reads a field of whitespace as -1.0 and
    reads "nan(...)"; it rejects what is not an ASCII number, such as
    "1_000" or "١", which ``float()`` reads. So the arrays are kept only for
    bytes without whitespace, read to their end into 2 × ``rows`` finite
    numbers. At an unread field numpy raises ValueError; older versions
    return the numbers before it with a DeprecationWarning, raised only
    where warnings are errors. The warnings filters are not touched: a
    change to them, even inside ``catch_warnings``, makes Python show again
    every warning it has already shown once.
    """
    if not any(space in numbers for space in b" \t\r\v\f"):
        try:
            parsed = np.fromstring(numbers, sep=",")
        except (DeprecationWarning, ValueError):
            parsed = None
        if parsed is not None and parsed.size == 2 * rows and np.isfinite(parsed).all():
            return parsed[0::2], parsed[1::2]
    cells = numbers.decode().split(",")
    return cells[0:-1:2], cells[1::2]


def _lines(handle):
    """The rest of binary ``handle`` in chunks of CHUNK_LINES lines, the
    last maybe shorter and without its final newline, each with the byte
    positions of its newlines. The file is read LINE_BYTES * CHUNK_LINES
    bytes at a time and each read's newlines are found once: the bytes past
    a chunk's last line carry over to the next chunk with their positions."""
    rest, ends = b"", np.empty(0, np.intp)
    while True:
        blocks, found = [rest], [ends]
        size, lines = len(rest), ends.size
        while lines < CHUNK_LINES and (block := handle.read(LINE_BYTES * CHUNK_LINES)):
            blocks.append(block)
            found.append(np.flatnonzero(np.frombuffer(block, np.uint8) == ord("\n")) + size)
            size += len(block)
            lines += found[-1].size
        ends = np.concatenate(found)
        rest = b""
        if lines >= CHUNK_LINES:
            # the chunk's last newline is in the last block: the only one
            # read while the chunk was still short of lines
            end = int(ends[CHUNK_LINES - 1]) + 1
            cut = end - (size - len(blocks[-1]))
            last = memoryview(blocks[-1])
            rest, blocks[-1] = last[cut:], last[:cut]
            size = end
        if not size:
            return
        chunk = [b"".join(blocks)]
        del blocks, found
        # popped, so that this frame holds no reference to the chunk while
        # the caller reads it
        yield chunk.pop(), ends[:CHUNK_LINES]
        ends = ends[CHUNK_LINES:] - size


def _plain_chunks(
    handle, path: str, samples: dict[str, int], predictors: dict[str, int]
):
    """The curves file past its header, split at newlines and commas, as
    ``(blanks, t, value, sample, predictor, short)`` per chunk of at most
    CHUNK_LINES lines: the line numbers of the blank lines; for the rows
    before the first line without 4 fields, the ``t`` and ``value`` columns
    (see :func:`_parse_columns`) and the codes of the ids in ``samples``
    and ``predictors``; and that line's index among the chunk's data rows
    and its field count, or None. ``handle`` is binary. Raises
    :class:`_NotPlain` on a quote or on a carriage return not followed by a
    newline, and UnicodeDecodeError on a chunk that is not UTF-8."""

    def plain(data: bytes) -> bytes:
        data.decode()  # a newline ends no character, so a chunk decodes alone
        if b'"' in data:
            raise _NotPlain
        if b"\r" in data:
            if data.count(b"\r") != data.count(b"\r\n"):
                raise _NotPlain
            data = data.replace(b"\r\n", b"\n")
        return data

    header = plain(handle.readline().removeprefix(b"\xef\xbb\xbf"))
    _check_header(header.decode().removesuffix("\n").split(","), path, _CURVES_HEADER)
    line = 2
    for data, ends in _lines(handle):
        lf = plain(data)
        if not lf.endswith(b"\n"):
            lf += b"\n"
        raw = np.frombuffer(lf, np.uint8)
        # newlines and commas are single bytes in UTF-8, never part of
        # another character, so their byte positions delimit lines and fields
        if lf is not data:  # line ends changed or added
            ends = np.flatnonzero(raw == ord("\n"))
        commas = np.flatnonzero(raw == ord(","))
        before = np.searchsorted(commas, ends)  # the commas before each line end
        starts = np.concatenate(([0], ends[:-1] + 1))
        filled = starts < ends
        blanks = (line + np.flatnonzero(~filled)).tolist()
        line += ends.size
        counts = np.diff(before, prepend=0)[filled] + 1
        starts, ends, before = starts[filled], ends[filled], before[filled]
        bad = np.flatnonzero(counts != 4)
        good = bad[0] if bad.size else counts.size
        short = (int(good), int(counts[good])) if bad.size else None
        starts, ends, before = starts[:good], ends[:good], before[:good]
        # of the 3 commas of a row of 4 fields, the second ends its ids
        second = commas[before - 2]
        # the ids are coded once per run of rows with the same id bytes, from
        # the "sample,predictor," of each run's first row
        ids, lengths = _runs(lf, starts, second + 1)
        del commas, before, starts
        ids = ids.decode().split(",")
        sample = np.repeat(_code(samples, ids[0:-1:2]), lengths)
        predictor = np.repeat(_code(predictors, ids[1::2]), lengths)
        del ids
        numbers = _segments(raw, second + 1, ends)  # "t,value," per row
        # freed before the numbers are read
        del data, lf, raw, ends, second
        yield blanks, *_parse_columns(numbers, int(good)), sample, predictor, short


def _csv_chunks(
    handle, path: str, samples: dict[str, int], predictors: dict[str, int]
):
    """:func:`_plain_chunks` read with the csv module, so quoted fields are
    unquoted; a line number counts the csv rows before it."""
    reader = _csv_reader(handle, path, _CURVES_HEADER)
    line = 2
    while rows := list(islice(reader, CHUNK_LINES)):
        blanks = [line + i for i, row in enumerate(rows) if not row]
        line += len(rows)
        rows = [row for row in rows if row]
        counts = np.fromiter(map(len, rows), np.intp, len(rows))
        bad = np.flatnonzero(counts != 4)
        short = (int(bad[0]), int(counts[bad[0]])) if bad.size else None
        cells = list(chain.from_iterable(rows[: bad[0]] if bad.size else rows))
        yield (
            blanks, cells[2::4], cells[3::4],
            _code(samples, cells[0::4]), _code(predictors, cells[1::4]), short,
        )


def _line_of(row: int, blanks: list[int]) -> int:
    """The line of the row-th non-blank data row, given the sorted numbers
    of the blank lines before it."""
    line = row + 2
    for blank in blanks:
        if blank > line:
            break
        line += 1
    return line


def _finite_rows(
    path: str, t, value, first_row: int, blanks: list[int]
) -> tuple[np.ndarray, np.ndarray, DataError | None]:
    """A chunk's ``t`` and ``value`` columns, given as the arrays that
    :func:`_parse_columns` read or as the lists of their texts: float arrays
    of the rows before the first whose ``t`` or ``value`` is not a finite
    number, and that row's error, or None. ``first_row`` counts the data
    rows before the chunk. ``float()`` reads each column's texts once, up to
    the first that it rejects."""
    if isinstance(t, np.ndarray):
        return t, value, None  # read only when every number is finite
    columns, ends = [], []
    for texts in (t, value):
        numbers = []
        try:
            numbers.extend(map(float, texts))
        except ValueError:  # the numbers before it stay in the list
            pass
        numbers = np.array(numbers, float)
        bad = np.flatnonzero(~np.isfinite(numbers))
        columns.append(numbers)
        ends.append(int(bad[0]) if bad.size else numbers.size)  # the first faulty row
    row = min(ends)
    if row == len(t):
        return *columns, None
    column = ends.index(row)  # t before value in the same row
    kind = "finite" if row < columns[column].size else "numeric"
    return columns[0][:row], columns[1][:row], DataError(
        f"{path} line {_line_of(first_row + row, blanks)}: field "
        f"'{('t', 'value')[column]}' is not {kind}: {(t, value)[column][row]!r}"
    )


def _code(table: dict[str, int], ids: list[str]) -> np.ndarray:
    """The codes of the stripped ``ids``, adding unseen ids to ``table``.
    The table keeps a copy of each new id: the chunk's own cell would keep
    the strings around it resident."""
    codes = dict.fromkeys(ids)  # each distinct raw id is stripped once
    for name in codes:
        key = name.strip()
        if key not in table:
            table[key.encode().decode()] = len(table)
        codes[name] = table[key]
    return np.fromiter(map(codes.__getitem__, ids), np.intp, len(ids))


def _sorted_ids(table: dict[str, int], codes: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The ids sorted as strings, and each code's position among them."""
    ids = sorted(table)
    position = np.empty(len(ids), dtype=np.intp)
    position[[table[name] for name in ids]] = np.arange(len(ids))
    return ids, position[codes]


def _read_points(path: str, chunks, handle):
    """Every point of the curves file, sorted by (predictor, sample, t):
    ``(sample_ids, predictor_ids, curve, t, value)``, where ``curve`` is
    ``predictor * len(sample_ids) + sample`` for the indices of a point's
    ids in the sorted id lists. ``chunks(handle, path, samples, predictors)``
    yields the file's chunks, coding ids in those two tables, each cut
    short at its first line without 4 fields. Reading stops at the first
    row with a wrong field count or a bad number; a repeated point before
    it is reported instead."""
    samples: dict[str, int] = {}
    predictors: dict[str, int] = {}
    parts = []  # (sample codes, predictor codes, t, value) per chunk
    blanks: list[int] = []
    rows = 0
    fault = None  # the error of the first faulty row
    for chunk_blanks, t, value, sample, predictor, short in chunks(
        handle, path, samples, predictors
    ):
        blanks += chunk_blanks
        t, value, fault = _finite_rows(path, t, value, rows, blanks)
        if fault is None and short is not None:  # a bad number comes before it
            row, count = short
            fault = DataError(
                f"{path} line {_line_of(rows + row, blanks)}: expected 4 fields, got {count}"
            )
        # the rows before the fault are kept: a duplicate point among them
        # comes first in the file, so it is the error reported
        parts.append((sample[: t.size], predictor[: t.size], t, value))
        rows += t.size
        if fault is not None:
            break
    if not rows:
        raise fault or DataError(f"{path}: no data rows")
    sample, predictor, t, value = (np.concatenate(column) for column in zip(*parts))
    del parts
    sample_ids, sample = _sorted_ids(samples, sample)
    predictor_ids, predictor = _sorted_ids(predictors, predictor)
    curve = predictor * len(sample_ids) + sample
    del sample, predictor  # freed before the sort, the peak of the ingest
    # by t, then by curve, both stable, so each repeat of a point comes
    # after its first row. The curves sort as the smallest unsigned type
    # that holds them, which numpy sorts by radix up to 65,536 curves: in
    # all, 10 ms on a 90,000-row file, against 17 ms for np.lexsort
    order = np.argsort(t, kind="stable")
    key = curve[order].astype(np.min_scalar_type(len(sample_ids) * len(predictor_ids)))
    order = order[np.argsort(key, kind="stable")]
    by_curve, by_t = curve[order], t[order]
    repeat = (by_curve[1:] == by_curve[:-1]) & (by_t[1:] == by_t[:-1])
    if repeat.any():
        row = int(order[1:][repeat].min())
        predictor, sample = divmod(int(curve[row]), len(sample_ids))
        raise DataError(
            f"{path} line {_line_of(row, blanks)}: duplicate point for sample "
            f"'{sample_ids[sample]}', predictor '{predictor_ids[predictor]}', "
            f"t={float(t[row])}"
        )
    if fault is not None:
        raise fault
    return sample_ids, predictor_ids, by_curve, by_t, value[order]


def ingest_long_csv(
    curves_path: str, responses_path: str
) -> tuple[list[list[CurveBlock]], np.ndarray, list[str], list[str]]:
    """Read curves and responses; returns (curves, y, sample_ids, predictor_ids).

    Samples and predictors are ordered by their (string) ids. Every sample
    must appear in both files and every (sample, predictor) pair must have
    enough distinct grid points for the configured basis. ``curves[m]`` lists
    predictor m's blocks: each run of consecutive samples with the same
    number of points forms one :class:`CurveBlock`, whose grid is shared when
    every curve of the run has the same grid and per row otherwise. A CSV on
    one regular grid thus gives one block per predictor.

    The curves file is read as bytes in blocks, which are cut into chunks
    of at most ``CHUNK_LINES`` lines, each checked as UTF-8 once. Each
    line's field count, and which lines are blank, come from the byte
    positions of the chunk's newlines and commas. Rows whose id bytes equal
    the row before's share its codes, so the ids are decoded and looked up
    once per run of such rows. numpy reads a chunk's ``t`` and ``value``
    fields in one pass, with CPython's own parser; a chunk whose numbers
    hold whitespace, an underscore, a non-ASCII digit or a fault is read
    field by field with ``float()`` instead, with the same results. Blank
    lines are accepted anywhere, trailing ones included, at any file length.
    A file holding a quote or a bare carriage return is read with the csv
    module instead; it gives the same results and is slower. Either way
    reading stops at the first row with a wrong field count or a bad number,
    and the first faulty row in the file (that one, or a repeated point
    before it) is reported with its line, counting the header and blank
    lines. The points are ordered by two stable sorts: by ``t``, then by
    the curve.
    """
    # reading every file with the csv module, which makes a list per row,
    # made a select job on a 90,000-row file about a quarter slower
    try:
        with _utf8_errors(curves_path), open(curves_path, "rb") as handle:
            points = _read_points(curves_path, _plain_chunks, handle)
    except _NotPlain:
        with _open_utf8(curves_path, newline="") as handle:
            points = _read_points(curves_path, _csv_chunks, handle)
    sample_ids, predictor_ids, curve, t, value = points

    responses: dict[str, float] = {}
    with _open_utf8(responses_path, newline="") as handle:
        reader = _csv_reader(handle, responses_path, ["sample_id", "y"])
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DataError(
                    f"{responses_path} line {lineno}: expected 2 fields, got {len(row)}"
                )
            name = row[0].strip()
            if name in responses:
                raise DataError(
                    f"{responses_path} line {lineno}: duplicate sample_id '{name}'"
                )
            responses[name] = _parse_float(row[1], responses_path, lineno, "y")

    missing = [s for s in sample_ids if s not in responses]
    if missing:
        raise DataError(
            f"{responses_path}: missing response for sample_id '{missing[0]}'"
        )
    known = set(sample_ids)
    extra = [s for s in responses if s not in known]
    if extra:
        raise DataError(
            f"{responses_path}: sample_id '{extra[0]}' has no curves in {curves_path}"
        )

    n = len(sample_ids)
    counts = np.bincount(curve, minlength=len(predictor_ids) * n)
    if not counts.all():
        m, i = divmod(int(np.argmin(counts)), n)
        raise DataError(
            f"{curves_path}: sample '{sample_ids[i]}' has no rows for predictor "
            f"'{predictor_ids[m]}'"
        )
    offsets = np.concatenate(([0], np.cumsum(counts)))
    curves: list[list[CurveBlock]] = []
    for m, lengths in enumerate(counts.reshape(-1, n)):
        edges = [0, *(np.flatnonzero(np.diff(lengths)) + 1).tolist(), n]
        blocks = []
        for first, stop in zip(edges[:-1], edges[1:]):
            points_of = slice(offsets[m * n + first], offsets[m * n + stop])
            grid = t[points_of].reshape(stop - first, -1)
            if (grid == grid[0]).all():
                grid = grid[0]
            blocks.append(
                CurveBlock(grid=grid, values=value[points_of].reshape(stop - first, -1))
            )
        curves.append(blocks)
    y = np.array([responses[s] for s in sample_ids])
    return curves, y, sample_ids, predictor_ids


def _bases_for(
    config: JobConfig,
    predictor_ids: list[str],
    curves: list[list[CurveBlock]],
) -> tuple[BasisSpec, ...]:
    """One basis per predictor, from the flags and the config overrides; an
    override for a predictor absent from the curves file is a usage error."""
    for name in _OVERRIDES:
        for predictor in getattr(config, f"{name}_overrides"):
            if predictor not in predictor_ids:
                raise ValueError(
                    f"config key '{name}.{predictor}': no predictor "
                    f"'{predictor}' in {config.curves}"
                )
    bases = []
    for predictor, blocks in zip(predictor_ids, curves):
        degree, num_basis = config.basis_of(predictor)
        domain = config.domain_overrides.get(predictor)
        if domain is None:
            lo = min(block.grid[..., 0].min() for block in blocks)
            hi = max(block.grid[..., -1].max() for block in blocks)
            if not lo < hi:
                raise DataError(
                    f"{config.curves}: every point of predictor '{predictor}' has "
                    f"t = {lo}; a basis needs a range of t"
                )
        else:
            lo, hi = domain
        bases.append(make_uniform_basis(lo, hi, degree=degree, num_basis=num_basis))
    return tuple(bases)


def _selection_pipeline(config: JobConfig):
    curves, y, sample_ids, predictor_ids = ingest_long_csv(
        config.curves, config.responses
    )
    bases = _bases_for(config, predictor_ids, curves)
    try:
        dataset = build_dataset(curves, y, bases)
    except (DataError, RankDeficiencyError) as exc:
        # the library names the curve by its positions; name the file and ids
        i, m, last = exc.curve
        where = f"sample '{sample_ids[i]}', predictor '{predictor_ids[m]}'"
        if last is not None:
            where += f" (grid shared by samples '{sample_ids[i]}'-'{sample_ids[last]}')"
        raise type(exc)(f"{config.curves}: {where}: {exc.__cause__}") from exc
    design = build_design(dataset)
    check_parameter_count(design.n, design.k)
    return design, y, predictor_ids


def _write_records(path: str | None, records) -> None:
    """Write the ``--out`` report, if asked for: one JSON object per line."""
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def _id_width(predictor_ids: list[str]) -> int:
    return max(len(name) for name in ["predictor", *predictor_ids])


def run_select(config: JobConfig) -> np.ndarray:
    """Test every predictor, select, print the table, write the record;
    returns the selection mask."""
    design, y, predictor_ids = _selection_pipeline(config)
    statistics, p_values = test_all(design, y)
    q = config.resolve_q(design.n, design.num_predictors)
    mask = selection_mask(config.method, p_values, q)
    method = "fdr" if check_method(config.method) == "fdr" else "bonferroni"
    dofs = np.diff(design.block_offsets).tolist()
    rows = list(
        zip(predictor_ids, statistics.tolist(), dofs, p_values.tolist(), mask.tolist())
    )
    width = _id_width(predictor_ids)
    print(f"method: {method}   q: {q:.6g}")
    print(f"{'predictor':<{width}}  {'T_L':>12}  {'dof':>4}  {'p_value':>12}  selected")
    for pid, statistic, dof, p, chosen in rows:
        flag = "yes" if chosen else "no"
        print(f"{pid:<{width}}  {statistic:>12.4f}  {dof:>4d}  {p:>12.4e}  {flag}")
    selected = [pid for pid, *_, chosen in rows if chosen]
    print(f"selected set: {', '.join(selected) or '(none)'}")
    keys = ("predictor", "statistic", "dof", "p_value", "selected")
    records = [dict(zip(keys, row)) for row in rows]
    records.append({"method": method, "q": q, "selected": selected})
    _write_records(config.out, records)
    return mask


def _resample_indices(rng: np.random.Generator, n: int, b: int, chunk: int):
    """The row indices of b bootstrap resamples of n rows, as (chunk, n)
    arrays (the last one shorter), from ``rng``: the same draws, in the same
    order, as b draws of n."""
    for start in range(0, b, chunk):
        yield rng.integers(0, n, size=(min(chunk, b - start), n))


def bootstrap_counts(
    design: DesignMatrix, y: np.ndarray, method: str, q: float, b: int, seed: int
) -> tuple[np.ndarray, int]:
    """How often each predictor is selected over b resamples of the rows,
    and how many resamples failed their fit (a rank-deficient design, or
    no more rows than columns). The resamples draw from the Philox stream
    keyed (seed, 0); a seed outside [0, 2**64) raises ValueError on entry."""
    rng = _rng_for(seed, 0)
    selected = np.zeros(design.num_predictors, dtype=int)
    try:
        qr = sample_qr(design, y)
    except NumericalError:
        return selected, b
    failed = 0
    for idx in _resample_indices(rng, design.n, b, qr.batch):
        _, p_values = test_resamples(qr, idx)
        fitted = ~np.isnan(p_values[:, 0])
        failed += int(np.count_nonzero(~fitted))
        selected += selection_mask(method, p_values[fitted], q).sum(axis=0)
    return selected, failed


def run_bootstrap(config: JobConfig) -> dict:
    """Selection ratios over B joint resamples of (curves, response) rows."""
    design, y, predictor_ids = _selection_pipeline(config)
    q = config.resolve_q(design.n, design.num_predictors)
    selected, failed = bootstrap_counts(
        design, y, config.method, q, config.bootstrap_b, config.seed
    )
    ratios = selected / max(config.bootstrap_b - failed, 1)
    print(
        f"bootstrap: B={config.bootstrap_b}  failed={failed}  "
        f"method={config.method}  q={q:.6g}"
    )
    width = _id_width(predictor_ids)
    print(f"{'predictor':<{width}}  ratio")
    for pid, ratio in zip(predictor_ids, ratios):
        print(f"{pid:<{width}}  {ratio:.3f}")
    report = {
        "b": config.bootstrap_b,
        "failed": failed,
        "method": config.method,
        "q": q,
        "ratios": dict(zip(predictor_ids, ratios)),
    }
    _write_records(config.out, [report])
    return report


def run_simulate(config: JobConfig):
    """Monte Carlo experiment with the synthetic-data generators."""
    scenario = SimScenario(c=config.c, n=config.n, seed=config.seed)
    q = config.resolve_q(config.n, NUM_PREDICTORS)
    (report,) = run_monte_carlo(scenario, [(config.method, q)], config.reps)
    print(
        f"simulate: c={report.c}  n={report.n}  method={report.method}  "
        f"q={report.q:.6g}  reps={report.replications}  failed={report.failed}"
    )
    print(f"correct selections: {report.correct_count}/{report.replications}")
    print(f"amse: {report.amse:.6g}")
    freqs = "  ".join(f"{f:.2f}" for f in report.selection_frequencies)
    print(f"selection frequencies: {freqs}")
    _write_records(config.out, [asdict(report)])
    return report


class _Parser(argparse.ArgumentParser):
    # a usage error prints the usage line and raises, so that main exits with
    # 1 (not argparse's 2) and a config line can add its file and line number
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _make_parser() -> _Parser:
    parser = _Parser(
        prog="funcsel",
        allow_abbrev=False,
        description="Variable selection for scalar-on-function regression",
    )
    for name, option in _OPTIONS.items():
        kind = str if option.default is None else type(option.default)
        parser.add_argument(
            "--" + name.replace("_", "-"), dest=name, type=kind, **option.metadata
        )
    parser.add_argument("--config", help="flat 'key = value' file of options")
    return parser


def _read_config_file(path: str, parser: _Parser) -> tuple[argparse.Namespace, dict]:
    """Options and per-predictor overrides from a flat ``key = value`` file.

    A value is parsed as its flag would be (``reps = 5`` as ``--reps=5``), so
    it meets the same conversion and choices.
    """
    options = argparse.Namespace()
    overrides: dict[str, dict] = {f"{name}_overrides": {} for name in _OVERRIDES}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path} line {lineno}"
        key, equals, value = line.partition("=")
        if not equals:
            raise ValueError(f"{where}: expected 'key = value', got {line!r}")
        key, value = key.strip(), value.strip()
        # the option name may use '-' or '_'; a predictor id after the first
        # '.' is kept as written
        name, dot, predictor = key.partition(".")
        name = name.replace("-", "_")
        if name not in (_OVERRIDES if dot else _OPTIONS):
            raise ValueError(f"{where}: unknown key {key!r}")
        flag = f"--{name.replace('_', '-')}={value}"
        try:
            if not dot:
                parser.parse_args([flag], namespace=options)
            elif name == "domain":
                lo, _, hi = value.partition(":")
                overrides["domain_overrides"][predictor] = (float(lo), float(hi))
            else:
                parsed = getattr(parser.parse_args([flag]), name)
                overrides[f"{name}_overrides"][predictor] = parsed
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return options, overrides


def _build_config(argv: list[str] | None) -> JobConfig:
    """Each option from its flag, else the config file, else the default."""
    parser = _make_parser()
    path = parser.parse_args(argv).config
    options, overrides = (
        _read_config_file(path, parser) if path else (argparse.Namespace(), {})
    )
    args = parser.parse_args(argv, namespace=options)  # flags win over the file
    env_seed = os.environ.get("FUNCSEL_SEED")
    if args.seed is None and env_seed is not None:
        try:
            args.seed = int(env_seed)
        except ValueError:
            raise ValueError(f"FUNCSEL_SEED is not an integer: {env_seed!r}") from None
    given = {name: getattr(args, name) for name in _OPTIONS}
    return JobConfig(**{k: v for k, v in given.items() if v is not None}, **overrides)


def main(argv: list[str] | None = None) -> int:
    try:
        config = _build_config(argv)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    run = {"select": run_select, "bootstrap": run_bootstrap, "simulate": run_simulate}
    # a warning prints as its message alone: its code location moves with every edit
    shown = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        run[config.mode](config)
    except (OSError, DataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    # LinAlgError subclasses ValueError, so it must be caught before it
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        warnings.formatwarning = shown
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
