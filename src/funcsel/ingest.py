"""The long-format curves reader: ``sample_id,predictor_id,t,value`` rows
and a ``sample_id,y`` responses file, read into each predictor's blocks.

The curves file is read as bytes, ``CHUNK_BYTES`` at a time, and each read
is cut after its last newline; the partial line past it opens the next
chunk. A chunk is checked as UTF-8 once, split into lines and fields at the
byte positions of its newlines and commas, and its ids are decoded once per
run of rows with the same id bytes. numpy reads its ``t`` and ``value``
fields in one pass where that agrees with ``float()``. A file holding a
quote or a bare carriage return is read with the csv module instead,
``CHUNK_LINES`` rows at a time, with the same results. Either way reading
stops at the first faulty row, and the points are then sorted by curve and
``t`` and cut into each predictor's blocks.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from itertools import chain, islice

import numpy as np

from .errors import DataError, quoted_id
from .smoothing import CurveBlock

__all__ = ["ingest_long_csv"]

# bytes of the curves file read at a time, about 5,600 lines of 47 bytes.
# On a 90,000-row file, reads of 256 KiB to 1 MiB took the same CPU time,
# and the ingest's traced peak was 5.8 MB up to 512 KiB, 6.6 MB at 768 KiB.
CHUNK_BYTES = 256 * 1024
# rows of a file read with the csv module at a time; a quoted field may
# hold a newline, so its chunks are counted in rows, not cut at bytes
CHUNK_LINES = 16384
_CURVES_HEADER = ["sample_id", "predictor_id", "t", "value"]


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
    with _utf8_errors(path), open(path, newline=newline, encoding="utf-8-sig") as handle:
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
    numbers. At an unread field numpy raises ValueError.
    """
    if not any(space in numbers for space in b" \t\r\v\f"):
        try:
            parsed = np.fromstring(numbers, sep=",")
        except ValueError:
            parsed = None
        if parsed is not None and parsed.size == 2 * rows and np.isfinite(parsed).all():
            return parsed[0::2], parsed[1::2]
    cells = numbers.decode().split(",")
    return cells[0:-1:2], cells[1::2]


def _next_chunk(handle, rest: list[bytes]) -> bytes:
    """The next chunk of binary ``handle``, or b"" at its end: the bytes in
    ``rest``, then reads of CHUNK_BYTES bytes up to the first holding a
    newline, cut after its last newline. ``rest`` carries the bytes past the
    cut to the next call, one piece per read. A function, not a generator,
    so that no frame holds the read while the caller converts the chunk."""
    while block := handle.read(CHUNK_BYTES):
        cut = block.rfind(b"\n") + 1
        if cut:
            chunk = b"".join([*rest, memoryview(block)[:cut]])
            rest[:] = [block[cut:]]
            return chunk
        rest.append(block)
    chunk = b"".join(rest)
    rest.clear()
    return chunk


def _plain_chunks(
    handle, path: str, samples: dict[str, int], predictors: dict[str, int]
):
    """The curves file past its header, split at newlines and commas, as
    ``(blanks, t, value, sample, predictor, short)`` per chunk of
    :func:`_next_chunk`: the line numbers of the blank lines; for the rows
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
    line, rest = 2, []
    while data := _next_chunk(handle, rest):
        data = plain(data)
        if not data.endswith(b"\n"):
            data += b"\n"
        raw = np.frombuffer(data, np.uint8)
        # newlines and commas are single bytes in UTF-8, never part of
        # another character, so their byte positions delimit lines and fields
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
        ids, lengths = _runs(data, starts, second + 1)
        del commas, before, starts
        ids = ids.decode().split(",")
        sample = np.repeat(_code(samples, ids[0:-1:2]), lengths)
        predictor = np.repeat(_code(predictors, ids[1::2]), lengths)
        del ids
        numbers = _segments(raw, second + 1, ends)  # "t,value," per row
        # freed before the numbers are read
        del data, raw, ends, second
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
    it is reported instead. A file listing each curve in increasing ``t``
    is ordered by one radix sort on the curve, any other by one lexsort."""
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
    # the curves sort as the smallest unsigned type that holds them, which
    # numpy sorts by radix up to 65,536 curves. That stable sort is the
    # order when each curve lists its points in strictly increasing t; else
    # one lexsort by (curve, t), stable, so a repeated point follows its first row
    key = curve.astype(np.min_scalar_type(len(sample_ids) * len(predictor_ids)))
    order = np.argsort(key, kind="stable")
    by_curve, by_t = curve[order], t[order]
    if ((by_curve[1:] == by_curve[:-1]) & (by_t[1:] <= by_t[:-1])).any():
        order = np.lexsort((t, key))
        by_curve, by_t = curve[order], t[order]
        repeat = (by_curve[1:] == by_curve[:-1]) & (by_t[1:] == by_t[:-1])
        if repeat.any():
            row = int(order[1:][repeat].min())
            predictor, sample = divmod(int(curve[row]), len(sample_ids))
            raise DataError(
                f"{path} line {_line_of(row, blanks)}: duplicate point for sample "
                f"{quoted_id(sample_ids[sample])}, predictor "
                f"{quoted_id(predictor_ids[predictor])}, t={float(t[row])}"
            )
    if fault is not None:
        raise fault
    return sample_ids, predictor_ids, by_curve, by_t, value[order]


def ingest_long_csv(
    curves_path: str, responses_path: str
) -> tuple[list[list[CurveBlock]], np.ndarray, list[str], list[str]]:
    """Read curves and responses; returns (curves, y, sample_ids, predictor_ids).

    Samples and predictors are ordered by their (string) ids. Every sample
    must appear in both files, with rows for every predictor. ``curves[m]``
    lists predictor m's blocks (see :func:`_curve_blocks`). A fault raises
    :class:`DataError` naming the file and, for a faulty row, its line,
    counting the header and blank lines; of several faulty rows, the first
    in the file is reported.
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
                    f"{responses_path} line {lineno}: duplicate sample_id {quoted_id(name)}"
                )
            responses[name] = _parse_float(row[1], responses_path, lineno, "y")

    missing = [s for s in sample_ids if s not in responses]
    if missing:
        raise DataError(
            f"{responses_path}: missing response for sample_id {quoted_id(missing[0])}"
        )
    known = set(sample_ids)
    extra = [s for s in responses if s not in known]
    if extra:
        raise DataError(
            f"{responses_path}: sample_id {quoted_id(extra[0])} has no curves in {curves_path}"
        )
    curves = _curve_blocks(curves_path, sample_ids, predictor_ids, curve, t, value)
    y = np.array([responses[s] for s in sample_ids])
    return curves, y, sample_ids, predictor_ids


def _curve_blocks(
    path: str, sample_ids: list[str], predictor_ids: list[str],
    curve: np.ndarray, t: np.ndarray, value: np.ndarray,
) -> list[list[CurveBlock]]:
    """Each predictor's blocks, from the points sorted by :func:`_read_points`.
    Each run of consecutive samples with the same number of points forms one
    :class:`CurveBlock`, whose grid is shared when every curve of the run has
    the same grid and per row otherwise. A (sample, predictor) pair without
    points raises :class:`DataError`."""
    n = len(sample_ids)
    counts = np.bincount(curve, minlength=len(predictor_ids) * n)
    if not counts.all():
        m, i = divmod(int(np.argmin(counts)), n)
        raise DataError(
            f"{path}: sample {quoted_id(sample_ids[i])} has no rows for predictor "
            f"{quoted_id(predictor_ids[m])}"
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
    return curves
