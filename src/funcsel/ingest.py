"""The long-format curves reader: ``sample_id,predictor_id,t,value`` rows
and a ``sample_id,y`` responses file, read into each predictor's blocks.

The curves file is read as bytes, ``CHUNK_BYTES`` at a time, and each read
is cut after its last newline; the partial line past it opens the next
chunk. A chunk is checked as UTF-8 once, split into lines and fields at the
byte positions of its newlines and commas, and its ids are decoded once per
run of rows with the same id bytes. Its ``t`` and ``value`` fields are
converted from the chunk's bytes, one pass per column, by a vectorized
decimal kernel that is exact where it reads a field (:func:`_fast_floats`);
``float()`` reads the fields it declines. A file holding a quote or a bare
carriage return is read with the csv module instead, ``CHUNK_LINES`` rows
at a time; its ``t`` and ``value`` texts are laid end to end in one buffer
and converted the same way. Either chunker hands back float columns cut at
the chunk's first faulty row, a short row or a bad number, and that row's
reason; reading stops there, and the points are then sorted by curve and
``t`` and cut into each predictor's blocks.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from itertools import islice

import numpy as np

from .errors import DataError, quoted_id, quoted_text
from .smoothing import CurveBlock

__all__ = ["ingest_long_csv"]

# bytes of the curves file read at a time, about 11,000 lines of 47 bytes.
# On the 90,000-row bench files, reads of 512 KiB took 33.6 ms against
# 34.7 ms at 256 KiB (ragged; 32.9 against 34.2 regular; medians of 38,
# alternating, on a 2-CPU x86-64 container), with the same traced peak of
# 5.25 MB; at 1 MiB the peak rose to 6.69 MB
CHUNK_BYTES = 512 * 1024
# rows of a file read with the csv module at a time; a quoted field may
# hold a newline, so its chunks are counted in rows, not cut at bytes
CHUNK_LINES = 16384
# zero bytes before the fields of a chunk, as the decimal kernel reads up
# to 24 bytes before a field
_PAD = 24
_CURVES_HEADER = ["sample_id", "predictor_id", "t", "value"]


def _number_fault(field_name: str, text: str) -> str:
    """Why the field ``text``, which is not a finite number, is faulty."""
    try:
        float(text)
        kind = "finite"
    except ValueError:
        kind = "numeric"
    return f"field '{field_name}' is not {kind}: {quoted_text(text)}"


def _parse_float(text: str, path: str, line: int, field_name: str) -> float:
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise DataError(f"{path} line {line}: {_number_fault(field_name, text)}")


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
    raw: np.ndarray, words: np.ndarray, begin: np.ndarray, stop: np.ndarray
) -> tuple[bytes, np.ndarray]:
    """Runs of consecutive rows whose fields ``raw[begin[r]:stop[r]]`` are
    equal in bytes: the fields of the runs' first rows, end to end, and the
    runs' lengths. ``words[i]`` is the little-endian word of ``raw[i:i + 8]``."""
    size = stop - begin
    same = np.zeros(begin.size, bool)
    same[1:] = size[1:] == size[:-1]
    # compare fields of equal length with the one before, 8 bytes at a time,
    # the bytes past their end shifted out, while they still agree: each
    # pass compares only the rows still equal and longer than ``start``
    rows = np.flatnonzero(same & (size > 0))
    start = 0
    while rows.size:
        past = 8 * np.maximum(start + 8 - size[rows], 0).astype(np.uint64)
        differ = words[begin[rows] + start] ^ words[begin[rows - 1] + start]
        equal = differ << past == 0
        same[rows[~equal]] = False
        start += 8
        rows = rows[equal & (size[rows] > start)]
    firsts = np.flatnonzero(~same)
    size, begin = size[firsts], begin[firsts]
    at = np.arange(size.sum()) + np.repeat(begin - (np.cumsum(size) - size), size)
    lengths = np.diff(firsts, append=same.size)
    return raw[at].tobytes(), lengths


def _has_extended_floats() -> bool:
    """Whether ``np.longdouble`` holds a 64-bit significand, rounds its
    arithmetic to all 64 bits and stores the significand in its first 8 of
    16 bytes, as the x87 format does."""
    one = np.longdouble(1)
    if np.finfo(np.longdouble).nmant != 63 or one + np.longdouble(2) ** -63 == one:
        return False
    probe = np.array([1.5], np.longdouble)
    return probe.itemsize == 16 and int(probe.view(np.uint64)[0]) == 3 << 62


# Whether the decimal kernel reads in extended floats. With a 64-bit
# significand, an integer m < 10**19 and 10**e for e <= 27 are exact, so
# m * 10**e and m / 10**e in np.longdouble are rounded once, and rounding
# that to a double gives float()'s bits unless it lands on a midpoint between
# two doubles (Clinger, "How to Read Floating Point Numbers Accurately",
# 1990). Otherwise the kernel keeps to Clinger's fast path, m <= 2**53 and
# e <= 22, where the one rounding is the double's.
_EXTENDED = _has_extended_floats()
# 10**0, 10**1, ... and their negatives, exact in each kind of float
_POWERS = {
    kind: np.multiply.outer((1, -1), np.cumprod([1] + [10] * (size - 1), dtype=kind)).ravel()
    for kind, size in ((np.longdouble, 28), (np.float64, 23))
}
# _MASKS[j, i]: of 3 words of 24 bytes, the bytes of word j before the i-th
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)[
    np.clip(np.arange(25) - 8 * np.arange(3)[:, None], 0, 8)
]


def _keep_before(words: np.ndarray, count: np.ndarray) -> None:
    """Zero each column of 3 words of 24 bytes from its ``count``-th byte on."""
    for word, masks in zip(words, _MASKS):
        word &= masks[count]


def _mantissas(raw: np.ndarray, blocks: np.ndarray, first: np.ndarray, end: np.ndarray):
    """The digits ``raw[first[i]:end[i]]``, with at most one dot, as
    ``(m, scale, ok)``: the integer of the digits, the negated count of
    digits past the dot, and whether the text is at most 24 bytes of ASCII
    digits and at most one dot, holding a digit, with m below 10**19.
    ``blocks[i]`` holds the 24 bytes from ``raw[i]``, and the 24 bytes up to
    each end are read."""
    # the 24 bytes up to each end, as 3 rows of words
    window = blocks[end - 24].view("<u8").reshape(-1, 3).T.copy()
    skip = first - end + 24  # the window's bytes before the field
    ok = skip >= 0
    skip = np.maximum(skip, 0)
    # a byte 0x80 where the window holds no ASCII digit, whose top bit then
    # is set or which is below 0x30 or above 0x39
    low = window & 0x7F7F7F7F7F7F7F7F
    other = low + 0x4646464646464646
    low += 0x5050505050505050
    other |= np.invert(low, out=low)
    other |= window
    other &= 0x8080808080808080
    # gathered into the bits of one mask, byte i of the window at bit i,
    # then shifted past the bytes before the field
    other >>= 7
    other *= 0x0102040810204080
    other >>= 56
    pack = other[1] << 8
    pack |= other[0]
    other[2] <<= 16
    pack |= other[2]
    pack >>= skip.astype(np.uint64)
    del low, other
    # the first such byte: at most one, a dot
    below = np.negative(pack)
    below &= pack
    below -= 1
    dots = np.bitwise_count(below).astype(np.intp)
    dots += skip
    dotted = np.bitwise_count(pack) == 1
    dotted &= raw[end - 24 + np.minimum(dots, 24)] == ord(".")
    ok &= (pack == 0) | dotted
    del below, pack
    # the digits with the dot taken out, the bytes up to it one byte later,
    # and the bytes before the first digit '0'
    shifted = window << 8
    shifted[1:] |= window[:2] >> 56
    shifted ^= window
    _keep_before(shifted, np.where(dotted, dots + 1, 0))
    window ^= shifted
    fill = skip + dotted
    ok &= fill < 24
    shifted = np.bitwise_xor(window, 0x3030303030303030, out=shifted)
    _keep_before(shifted, np.minimum(fill, 24))
    window ^= shifted
    del shifted
    # the integer of each word's 8 digits, by three multiply and shift steps
    window &= 0x0F0F0F0F0F0F0F0F
    window *= 2561
    window >>= 8
    window &= 0x00FF00FF00FF00FF
    window *= 6553601
    window >>= 16
    window &= 0x0000FFFF0000FFFF
    window *= 42949672960001
    window >>= 32
    ok &= window[0] < 1000  # so m < 10**19
    m = window[0] * 10**16
    m += window[1] * 10**8
    m += window[2]
    scale = np.where(dotted, dots - 23, 0)  # the digits past the dot, negated
    return m, scale, ok


def _exponents(raw: np.ndarray, begin: np.ndarray, stop: np.ndarray):
    """Of each field ``raw[begin[i]:stop[i]]``: the position of the last "e"
    or "E" among its last 5 bytes, or 0; the exponent after it; and whether
    the field has such an "e" past its first byte, followed by a sign or
    none and then by digits only."""
    mark = np.zeros(stop.size, np.intp)
    for back in range(5, 0, -1):
        at = stop - back
        np.copyto(mark, at, where=(raw[at] | 0x20) == ord("e"))
    sign = raw[mark + 1]
    minus = sign == ord("-")
    first = mark + 1 + (minus | (sign == ord("+")))  # the first digit
    ok = (mark > begin) & (first < stop)
    value = np.zeros(stop.size, np.intp)
    for back in range(4, 0, -1):
        at = stop - back
        inside = at >= first
        digit = raw[at] - ord("0")
        ok &= (digit < 10) | ~inside
        value *= 10
        value += np.where(inside, digit, 0)
    return mark, np.where(minus, -value, value), ok


def _fast_floats(raw: np.ndarray, blocks: np.ndarray, begin: np.ndarray, stop: np.ndarray):
    """The fields ``raw[begin[i]:stop[i]]`` as float64 values, and a mask of
    the fields declined, whose values are void.

    A field is read if it is an optional "-", then ASCII digits with at
    most one dot (at most 24 bytes, holding a digit), then an optional
    exponent of at most 5 bytes: "e" or "E", a sign or none, and digits;
    if its digits, without the dot, make an integer m and its value
    m * 10**scale keeps within the bound of ``_EXTENDED``; and, with
    extended floats, if m * 10**scale does not round to a midpoint between
    two doubles. Every other field is declined: one with a "+",
    whitespace, "_", a non-ASCII digit, "nan" or "inf", 20 significant
    digits and so on. ``blocks[i]`` holds the 24 bytes from ``raw[i]``, and
    the 24 bytes before each field are read."""
    negative = raw[begin] == ord("-")
    first = begin + negative
    m, scale, ok = _mantissas(raw, blocks, first, stop)
    retry = np.flatnonzero(~ok)
    if retry.size:
        mark, power, found = _exponents(raw, begin[retry], stop[retry])
        retry, mark, power = retry[found], mark[found], power[found]
        m[retry], scale[retry], ok[retry] = _mantissas(raw, blocks, first[retry], mark)
        scale[retry] += power
    kind = np.longdouble if _EXTENDED else np.float64
    powers = _POWERS[kind]
    size = powers.size // 2
    ok &= np.abs(scale) < size
    if not _EXTENDED:
        ok &= m <= 2**53
    # m times or over 10**|scale|, signed as the field is
    exact = m.astype(kind)
    tens = powers[np.minimum(np.abs(scale), size - 1) + size * negative]
    up = np.flatnonzero(scale > 0)
    product = exact[up] * tens[up]
    exact /= tens
    exact[up] = product
    del tens, product
    if _EXTENDED:  # not on a midpoint: the low 11 of 64 bits are not 0x400
        ok &= exact.view(np.uint64)[::2] & 0x7FF != 0x400
    return exact.astype(np.float64), ~ok


def _floats(data: bytes, begin: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, int]:
    """The fields ``data[begin[i]:stop[i]]`` before the first that is not a
    finite number, as a float array, and that field's index, or the field
    count: :func:`_fast_floats` reads the fields it can, and ``float()``
    the others. ``data`` holds ``_PAD`` bytes before the first field and
    one past the last."""
    raw = np.frombuffer(data, np.uint8)
    blocks = np.ndarray(raw.size - 23, "V24", data, strides=(1,))  # 24 bytes from each offset
    values, declined = _fast_floats(raw, blocks, begin, stop)
    for i in np.flatnonzero(declined).tolist():
        try:
            values[i] = float(data[begin[i]:stop[i]].decode())
        except ValueError:
            return values[:i], i
        if not math.isfinite(values[i]):
            return values[:i], i
    return values, values.size


def _parse_columns(data: bytes, first: np.ndarray, third: np.ndarray, ends: np.ndarray):
    """``(t, value, fault)`` of the rows of a chunk whose ``t`` field runs
    from ``first`` to ``third`` and whose ``value`` field from ``third + 1``
    to ``ends``: float columns of the rows before the first whose ``t`` or
    ``value`` is not a finite number, and that row's ``(index, reason)``,
    or None. Each column is read in one pass (see :func:`_floats`), the
    ``value`` column only up to the first bad ``t``, so that on one row
    the ``t`` is reported."""
    t, rows = _floats(data, first, third)
    value, bad = _floats(data, third[:rows] + 1, ends[:rows])
    if bad == ends.size:
        return t, value, None
    name, begin, stop = ("value", third + 1, ends) if bad < rows else ("t", first, third)
    return t[:bad], value, (bad, _number_fault(name, data[begin[bad]:stop[bad]].decode()))


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


def _short_row(counts: np.ndarray) -> tuple[int, tuple[int, str] | None]:
    """The count of rows before the first without 4 fields, of the field
    ``counts`` of a chunk's data rows, and that row's ``(index, reason)``,
    or None."""
    bad = np.flatnonzero(counts != 4)
    if not bad.size:
        return counts.size, None
    row = int(bad[0])
    return row, (row, f"expected 4 fields, got {counts[row]}")


def _plain_chunks(
    handle, path: str, samples: dict[str, int], predictors: dict[str, int]
):
    """The curves file past its header, split at newlines and commas, as
    ``(blanks, t, value, sample, predictor, fault)`` per chunk of
    :func:`_next_chunk`: the line numbers of the blank lines; the float
    ``t`` and ``value`` columns of the data rows before the chunk's first
    faulty row, converted from the chunk's bytes at the field bounds that
    its commas and newlines give (see :func:`_parse_columns`); the
    ``np.uint32`` codes of the ids in ``samples`` and ``predictors``, of
    those rows at least; and that row's index among the chunk's data rows
    and the reason it is faulty, or None. A row is faulty if it has not 4
    fields or if its ``t`` or ``value`` is not a finite number; of a bad
    number and a short row, the first is taken. ``handle`` is binary.
    Raises :class:`_NotPlain` on a quote or on a carriage return not
    followed by a newline, and UnicodeDecodeError on a chunk that is not
    UTF-8."""

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
        # the chunk, ending in a newline, between _PAD zero bytes and 8, so
        # that the 24 bytes before any field and the 8 from any of its bytes
        # can be read
        ending = b"" if data.endswith(b"\n") else b"\n"
        data = b"".join((bytes(_PAD), data, ending, bytes(8)))
        raw = np.frombuffer(data, np.uint8)
        # the 8 bytes from each offset of ``data`` as one little-endian word
        words = np.ndarray(raw.size - 7, "<u8", data, strides=(1,))
        # newlines and commas are single bytes in UTF-8, never part of
        # another character, so their byte positions delimit lines and fields
        ends = np.flatnonzero(raw == ord("\n"))
        commas = np.flatnonzero(raw == ord(","))
        before = np.searchsorted(commas, ends)  # the commas before each line end
        starts = np.concatenate(([_PAD], ends[:-1] + 1))
        filled = starts < ends
        blanks = (line + np.flatnonzero(~filled)).tolist()
        line += ends.size
        good, short = _short_row(np.diff(before, prepend=0)[filled] + 1)
        rows = np.flatnonzero(filled)[:good]  # the data rows before a short one
        starts, ends, before = starts[rows], ends[rows], before[rows]
        # of the 3 commas of a row of 4 fields, the second ends its ids and
        # the third its t
        second, third = commas[before - 2], commas[before - 1]
        # the ids are coded once per run of rows with the same id bytes, from
        # the "sample,predictor," of each run's first row
        ids, lengths = _runs(raw, words, starts, second + 1)
        del commas, before, starts, rows
        ids = ids.decode().split(",")
        sample = np.repeat(_code(samples, ids[0:-1:2]), lengths)
        predictor = np.repeat(_code(predictors, ids[1::2]), lengths)
        del ids
        t, value, fault = _parse_columns(data, second + 1, third, ends)
        del data, raw, words, ends, second, third
        # copied once the chunk is freed, so that the columns, which are
        # kept until the file is read, take its place in memory rather than
        # lie among the pages it leaves free: on the ragged bench file the
        # copy held the ingest's peak RSS 1.4 MB lower
        yield blanks, t.copy(), value.copy(), sample, predictor, fault or short


def _csv_chunks(
    handle, path: str, samples: dict[str, int], predictors: dict[str, int]
):
    """:func:`_plain_chunks` read with the csv module, so quoted fields are
    unquoted; a line number counts the csv rows before it. The ``t`` and
    ``value`` texts of the rows are joined with commas and encoded once, to
    one buffer where each is followed by a comma, and converted as the
    plain chunks are."""
    reader = _csv_reader(handle, path, _CURVES_HEADER)
    line = 2
    while rows := list(islice(reader, CHUNK_LINES)):
        blanks = [line + i for i, row in enumerate(rows) if not row]
        line += len(rows)
        rows = [row for row in rows if row]
        good, short = _short_row(np.fromiter(map(len, rows), np.intp, len(rows)))
        rows = rows[:good]
        texts = [text for row in rows for text in row[2:]]
        data = ",".join(texts)
        # a field's byte count is its length when the chunk's text is ASCII
        sizes = np.fromiter(
            map(len, texts) if data.isascii() else (len(text.encode()) for text in texts),
            np.intp, len(texts),
        )
        # each field's end: the comma after it
        stops = np.cumsum(sizes + 1) + (_PAD - 1)
        data = b"".join((bytes(_PAD), data.encode(), b","))
        del texts
        t, value, fault = _parse_columns(
            data, stops[0::2] - sizes[0::2], stops[0::2], stops[1::2]
        )
        yield (
            blanks, t, value, _code(samples, [row[0] for row in rows]),
            _code(predictors, [row[1] for row in rows]), fault or short,
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
    return np.fromiter(map(codes.__getitem__, ids), np.uint32, len(ids))


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
    short at its first faulty row (see :func:`_plain_chunks`). Reading
    stops at the first row with a wrong field count or a bad number; a
    repeated point before it is reported instead. A file listing each
    curve in increasing ``t`` is ordered by one radix sort on the curve,
    any other by one lexsort."""
    samples: dict[str, int] = {}
    predictors: dict[str, int] = {}
    parts = []  # (sample codes, predictor codes, t, value) per chunk
    blanks: list[int] = []
    rows = 0
    fault = None  # the error of the first faulty row
    for chunk_blanks, t, value, sample, predictor, faulty in chunks(
        handle, path, samples, predictors
    ):
        blanks += chunk_blanks
        if faulty is not None:
            row, reason = faulty
            fault = DataError(f"{path} line {_line_of(rows + row, blanks)}: {reason}")
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
