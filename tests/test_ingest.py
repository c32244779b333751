"""The chunked CSV reader against the per-row reference reader.

``ingest_long_csv`` reads the curves file in blocks, cuts them into chunks of
lines and converts whole columns at once; ``oracles.ingest_reference`` reads
one csv row at a time. On generated files the two must give the same ids and
responses and, per sample and predictor, the same grid and values bit for
bit. On a file with one fault they must raise the same message.
``CHUNK_LINES`` and ``LINE_BYTES`` are drawn small, so chunk boundaries and
read edges fall inside files of a few dozen lines.
"""

import io
import tempfile
import tracemalloc
import warnings
from collections import deque
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from funcsel import DataError, cli

from oracles import ingest_reference

CURVES_HEADER = "sample_id,predictor_id,t,value"
RESPONSES_HEADER = "sample_id,y"

layouts = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "samples": st.integers(1, 12),
        "predictors": st.integers(1, 3),
        # "mixed": 4 to 6 points per curve, half of the grids jittered
        "grids": st.sampled_from(["shared", "jittered", "mixed"]),
        "shuffle": st.booleans(),
        # rows ordered by point, so that the ids change on every line; a
        # layout without this key keeps each curve's rows together
        "interleave": st.booleans(),
        "blank_lines": st.integers(0, 6),
        "crlf": st.booleans(),
        # ids in ASCII or not, sharing prefixes (..., "s100", "s10", "s1",
        # with "s1 " on some rows), or of 1,000+ characters; padded with
        # nothing, spaces or no-break spaces
        "ids": st.sampled_from(["ascii", "non_ascii", "prefix", "long"]),
        "padded": st.sampled_from(["", " ", "\u00a0"]),
        "quoted": st.booleans(),
        # the t, value and y fields padded with spaces
        "spaced": st.booleans(),
        "chunk": st.integers(1, 40),
        # reads of chunk * line_bytes bytes: 1 to 2,560
        "line_bytes": st.integers(1, 64),
    }
)
FAULTS = (
    "field_count",
    "t_text",
    "value_text",
    "t_nan",
    "value_inf",
    "duplicate",
    "missing_pair",
    "missing_response",
    "orphan_response",
    "duplicate_response",
    "response_fields",
    "y_text",
    "y_inf",
)
property_settings = settings(derandomize=True, deadline=None, max_examples=50)


def _name(layout, prefix: str, j: int) -> str:
    """The ``j``-th sample or predictor id of the layout's kind."""
    if layout["ids"] == "non_ascii":
        prefix = {"s": "é—", "p": "Ж"}[prefix]
    elif layout["ids"] == "prefix":
        # shorter as j grows, so an id can follow a longer one it begins
        return f"{prefix}1" + "0" * (11 - j)
    elif layout["ids"] == "long":
        prefix *= 1000
    return f"{prefix}{j}"


def _tables(layout, rng):
    """Curve rows (sample, predictor, t, value) and responses (sample, y) as text."""
    rows = []
    for i in range(layout["samples"]):
        for m in range(layout["predictors"]):
            points = int(rng.integers(4, 7)) if layout["grids"] == "mixed" else 5
            grid = np.linspace(0.0, 1.0, points)
            jitter = {"shared": 0.0, "jittered": 1.0, "mixed": 0.5}[layout["grids"]]
            if rng.random() < jitter:
                grid[1:-1] += rng.uniform(-0.05, 0.05, points - 2)
            for k, (t, value) in enumerate(zip(grid, rng.normal(size=points))):
                sample = _name(layout, "s", i)
                if layout["ids"] == "prefix" and rng.random() < 0.5:
                    sample += " "  # "s1 " is "s1", and as long as "s10"
                rows.append(
                    [sample, _name(layout, "p", m), repr(float(t)), repr(float(value)), k]
                )
    if layout.get("interleave"):
        rows.sort(key=lambda row: row[4])  # stable: by point, then sample and predictor
    rows = [row[:4] for row in rows]
    responses = [
        [_name(layout, "s", i), repr(float(rng.normal()))] for i in range(layout["samples"])
    ]
    if layout["shuffle"]:
        rows = [rows[j] for j in rng.permutation(len(rows))]
        responses = [responses[j] for j in rng.permutation(len(responses))]
    return rows, responses


def _write(path: Path, header: str, rows, layout, rng) -> None:
    """Write ``rows`` under ``header`` as the layout asks: ids padded or
    quoted (a quoted file is read through the csv module), numbers padded,
    blank lines at random places, and LF or CRLF line ends."""

    ids = 2 if header == CURVES_HEADER else 1  # the leading id columns

    def cell(text: str, column: int) -> str:
        is_id = column < ids
        if is_id:
            text = f"{layout['padded']}{text}{layout['padded']}"
        elif layout.get("spaced"):
            text = f" {text} "
        if is_id and layout["quoted"]:
            text = f'"{text}"'
        return text

    lines = [",".join(cell(text, j) for j, text in enumerate(row)) for row in rows]
    for _ in range(layout["blank_lines"]):
        lines.insert(int(rng.integers(0, len(lines) + 1)), "")
    end = "\r\n" if layout["crlf"] else "\n"
    path.write_bytes("".join(line + end for line in [header, *lines]).encode())


def _inject(fault: str, rows, responses, rng, text: str | None = None) -> None:
    """Put one fault of kind ``fault`` into the tables, at a random row; a
    ``t_text`` or ``value_text`` fault writes ``text``, if given."""
    j = int(rng.integers(0, len(rows)))
    k = int(rng.integers(0, len(responses)))
    if fault == "field_count":
        rows[j] = rows[j][: int(rng.choice([1, 3]))] if rng.random() < 0.7 else rows[j] + ["1"]
    elif fault in ("t_text", "value_text"):
        if text is None:
            text = str(rng.choice(["abc", "", "0x1p-2", "1..5", "  ", "\t"]))
        rows[j][2 if fault == "t_text" else 3] = text
    elif fault in ("t_nan", "value_inf"):
        text = rng.choice(["nan", "-inf", "Infinity", "1e999"])
        rows[j][2 if fault == "t_nan" else 3] = str(text)
    elif fault == "duplicate":
        copy = [*rows[j][:3], "0.5"]
        rows.insert(int(rng.integers(j + 1, len(rows) + 1)), copy)
    elif fault == "missing_pair":
        pair = rows[j][:2]
        rows[:] = [row for row in rows if row[:2] != pair]
    elif fault == "missing_response":
        del responses[k]
    elif fault == "orphan_response":
        responses.insert(k, ["zz", "1.0"])
    elif fault == "duplicate_response":
        responses.insert(int(rng.integers(k + 1, len(responses) + 1)), [responses[k][0], "2.0"])
    elif fault == "response_fields":
        responses[k] = responses[k] + ["3"]
    else:
        responses[k][1] = "abc" if fault == "y_text" else "inf"


def _by_curve(curves) -> dict:
    """(grid bytes, values bytes) of each (predictor, sample) from a block list."""
    out = {}
    for m, blocks in enumerate(curves):
        rows = [
            (np.broadcast_to(block.grid, block.values.shape)[r], block.values[r])
            for block in blocks
            for r in range(block.num_curves)
        ]
        for i, (grid, values) in enumerate(rows):
            out[m, i] = (grid.tobytes(), values.tobytes())
    return out


def _read_both(directory: Path, chunk: int, line_bytes: int = cli.LINE_BYTES):
    """Each reader's result, or its DataError message."""
    paths = (str(directory / "curves.csv"), str(directory / "responses.csv"))
    results = []
    for reader in (cli.ingest_long_csv, ingest_reference):
        try:
            with mock.patch.object(cli, "CHUNK_LINES", chunk), mock.patch.object(
                cli, "LINE_BYTES", line_bytes
            ):
                results.append(reader(*paths))
        except DataError as exc:
            results.append(str(exc))
    return results


def _run(layout, fault=None, text=None):
    rng = np.random.default_rng(layout["seed"])
    rows, responses = _tables(layout, rng)
    if fault is not None:
        _inject(fault, rows, responses, rng, text)
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        _write(directory / "curves.csv", CURVES_HEADER, rows, layout, rng)
        _write(directory / "responses.csv", RESPONSES_HEADER, responses, layout, rng)
        return _read_both(directory, layout["chunk"], layout.get("line_bytes", cli.LINE_BYTES))


def _assert_same(got, expected) -> None:
    """The two readers gave the same message, or the same result."""
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
        return
    assert got[2:] == expected[2:]
    assert got[1].tobytes() == expected[1].tobytes()
    assert _by_curve(got[0]) == _by_curve(expected[0])


# chunks of one line, so each blank line is a chunk without data rows
ONE_LINE_CHUNKS = [
    {"seed": seed, "samples": 3, "predictors": 2, "grids": grids, "shuffle": shuffle,
     "blank_lines": 4, "crlf": crlf, "ids": ids, "padded": padded, "quoted": False,
     "chunk": 1}
    for seed, grids, shuffle, crlf, ids, padded in [
        (5, "shared", False, False, "ascii", ""),
        (6, "mixed", True, True, "non_ascii", "\u00a0"),
    ]
]

# ids sharing prefixes, long ids, and ids that change on every line, with
# chunk boundaries inside runs of equal ids
ID_LAYOUTS = [
    {"seed": seed, "samples": samples, "predictors": 3, "grids": "mixed",
     "shuffle": False, "interleave": interleave, "blank_lines": 2, "crlf": False,
     "ids": ids, "padded": padded, "quoted": False, "chunk": chunk}
    for seed, samples, interleave, ids, padded, chunk in [
        (7, 12, False, "prefix", "", 7),
        (8, 5, True, "prefix", "\u00a0", 11),
        (9, 4, False, "long", " ", 5),
        (10, 6, True, "ascii", "", 40),
    ]
]


@property_settings
@given(layouts)
@example(ONE_LINE_CHUNKS[0])
@example(ONE_LINE_CHUNKS[1])
@example(ID_LAYOUTS[0])
@example(ID_LAYOUTS[1])
@example(ID_LAYOUTS[2])
@example(ID_LAYOUTS[3])
def test_chunked_reader_matches_reference(layout):
    got, expected = _run(layout)
    assert not isinstance(expected, str), expected
    _assert_same(got, expected)


@property_settings
@given(layouts, st.sampled_from(FAULTS))
@example(ONE_LINE_CHUNKS[0], "duplicate")
@example(ONE_LINE_CHUNKS[1], "value_text")
@example(ID_LAYOUTS[0], "duplicate")
@example(ID_LAYOUTS[2], "t_text")
def test_single_fault_gives_reference_message(layout, fault):
    # with one sample, deleting a (sample, predictor) pair deletes the
    # predictor's only curve: the predictor is then absent, which is no fault
    assume(fault != "missing_pair" or layout["samples"] > 1)
    got, expected = _run(layout, fault)
    assert isinstance(expected, str), "the injected fault was not reported"
    assert got == expected


# texts that numpy's one-pass read and float() could take differently:
# float() reads "1_000" and "١" (an Arabic-Indic one), numpy reads a field of
# whitespace as -1.0 and "nan(1)" as nan, and the rest test the edges of both
NUMBER_TEXTS = ["1_000", "١", "nan(1)", "1.5e", "0x10", "1e400", ".5", "5.", "  ", "\t"]
TEXT_LAYOUT = {"seed": 11, "samples": 4, "predictors": 2, "grids": "mixed",
               "shuffle": False, "blank_lines": 1, "crlf": False, "ids": "ascii",
               "padded": "", "quoted": False, "chunk": 6}


@property_settings
@given(layouts, st.sampled_from(["t", "value"]), st.sampled_from(NUMBER_TEXTS))
@example(TEXT_LAYOUT, "value", "1_000")
@example(TEXT_LAYOUT, "t", "١")
@example(TEXT_LAYOUT, "value", "nan(1)")
@example(TEXT_LAYOUT, "value", "1.5e")
@example(TEXT_LAYOUT, "t", "0x10")
@example(TEXT_LAYOUT, "value", "1e400")
@example(TEXT_LAYOUT, "t", ".5")
@example(TEXT_LAYOUT, "value", "5.")
@example(TEXT_LAYOUT, "value", "  ")
@example(TEXT_LAYOUT, "t", "\t")
def test_number_text_gives_reference_result(layout, column, text):
    _assert_same(*_run(layout, f"{column}_text", text))


def test_numbers_are_read_in_one_pass_only_when_exact():
    t, value = cli._parse_columns(b"0.5,-1e-3,.25,5.,", 2)
    assert (t.tolist(), value.tolist()) == ([0.5, 0.25], [-1e-3, 5.0])
    # too few numbers for the rows, spaces, an underscore and a nan: the
    # texts, for float() to read
    for numbers, rows, texts in [
        (b"1,2,", 2, (["1"], ["2"])),
        (b"1, 2,", 1, (["1"], [" 2"])),
        (b"1,1_0,", 1, (["1"], ["1_0"])),
        (b"1,nan(1),", 1, (["1"], ["nan(1)"])),
    ]:
        assert cli._parse_columns(numbers, rows) == texts


@pytest.mark.parametrize("action", ["ignore", "error"])
def test_partial_read_of_older_numpy_gives_texts(action):
    # older numpy warns at an unread field and returns the numbers before it
    def fromstring(numbers, sep):
        warnings.warn("string could not be read to its end", DeprecationWarning, stacklevel=2)
        return np.array([1.0])

    with warnings.catch_warnings():
        warnings.simplefilter(action, DeprecationWarning)
        with mock.patch.object(cli.np, "fromstring", fromstring):
            assert cli._parse_columns(b"1,2_0,", 1) == (["1"], ["2_0"])


def test_lines_are_cut_after_every_chunk():
    # lines of 0 to 300 bytes, some ending in CR LF, read 1 to 40 bytes at a
    # time: lines straddle reads, some are longer than a read, and CR LF
    # pairs fall on read edges. Each chunk but the last holds CHUNK_LINES
    # whole lines, and the chunks give back the file
    rng = np.random.default_rng(12)
    lines = [b"x" * int(rng.integers(0, 300)) + rng.choice([b"\n", b"\r\n"])
             for _ in range(60)]
    data = b"".join(lines) + b"no final newline"
    for chunk, line_bytes in [(1, 1), (1, 40), (2, 3), (3, 1), (5, 7), (7, 2), (60, 1)]:
        with mock.patch.object(cli, "CHUNK_LINES", chunk), mock.patch.object(
            cli, "LINE_BYTES", line_bytes
        ):
            pieces = list(cli._lines(io.BytesIO(data)))
        assert b"".join(piece for piece, _ in pieces) == data
        assert [piece.count(b"\n") for piece, _ in pieces] == [chunk] * (60 // chunk) + [
            60 % chunk
        ]
        for piece, ends in pieces:
            assert ends.tolist() == [i for i, byte in enumerate(piece) if byte == 10]


@pytest.mark.parametrize("line_bytes", [1, 2, 5])
@pytest.mark.parametrize("ids", ["ascii", "long"])
def test_small_reads_match_reference(tmp_path, ids, line_bytes):
    # a CRLF file with a byte order mark, in chunks of 3 lines read 3 to 15
    # bytes at a time: every line straddles a read edge, a line of long ids
    # spans hundreds of reads, and some CR LF pair falls on a read edge
    layout = {"seed": 13, "samples": 4, "predictors": 2, "grids": "mixed",
              "shuffle": False, "blank_lines": 2, "crlf": True, "ids": ids,
              "padded": "", "quoted": False, "chunk": 3}
    rng = np.random.default_rng(13)
    rows, responses = _tables(layout, rng)
    _write(tmp_path / "curves.csv", CURVES_HEADER, rows, layout, rng)
    _write(tmp_path / "responses.csv", RESPONSES_HEADER, responses, layout, rng)
    paths = (str(tmp_path / "curves.csv"), str(tmp_path / "responses.csv"))
    expected = ingest_reference(*paths)  # which does not skip a byte order mark
    path = tmp_path / "curves.csv"
    body = path.read_bytes().split(b"\n", 1)[1]  # the reads start past the header
    read = layout["chunk"] * line_bytes
    assert any((at + 1) % read == 0 for at in range(len(body)) if body[at:at + 2] == b"\r\n")
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    with mock.patch.object(cli, "CHUNK_LINES", layout["chunk"]), mock.patch.object(
        cli, "LINE_BYTES", line_bytes
    ), mock.patch.object(cli, "_csv_chunks", wraps=cli._csv_chunks) as csv_chunks:
        got = cli.ingest_long_csv(*paths)
    assert not csv_chunks.called
    _assert_same(got, expected)


@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize(
    "fault, message",
    [
        ("duplicate", "line 12: duplicate point for sample 's0', predictor 'p0', t=0.25"),
        ("value", "line 6: field 'value' is not numeric: 'oops'"),
    ],
    ids=["duplicate", "value"],
)
def test_fault_after_blank_lines_in_other_chunks(tmp_path, quoted, fault, message):
    # chunks of 4 lines: 2-5, 6-9, 10-13 and 14; lines 3 and 7 are blank.
    # The point of line 4 is repeated on line 12, or line 6 holds a bad value.
    layout = {"padded": "", "quoted": quoted, "blank_lines": 0, "crlf": False}
    rows = [[f"s{i}", "p0", repr(t), repr(float(i))]
            for i in range(2) for t in np.linspace(0.0, 1.0, 5).tolist()]
    rows.insert(1, [])
    rows.insert(5, [])
    if fault == "duplicate":
        rows.insert(10, rows[2][:3] + ["7.5"])
    else:
        rows[4][3] = "oops"
    _write(tmp_path / "curves.csv", CURVES_HEADER, rows, layout, None)
    _write(tmp_path / "responses.csv", RESPONSES_HEADER, [["s0", "1"], ["s1", "2"]],
           layout, None)
    got, expected = _read_both(tmp_path, chunk=4)
    assert got == expected
    assert f"curves.csv {message}" in got


@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize(
    "bad, other, at, message",
    [
        (9, "duplicate", 3, "line 5: duplicate point for sample 's0', predictor 'p0', t=0.0"),
        (1, "duplicate", 9, "line 3: field 'value' is not numeric: 'oops'"),
        (2, "duplicate", 1, "line 3: duplicate point for sample 's0', predictor 'p0', t=0.0"),
        (2, "field_count", 1, "line 3: expected 4 fields, got 3"),
        (1, "field_count", 3, "line 3: field 'value' is not numeric: 'oops'"),
        (8, "field_count", 2, "line 4: expected 4 fields, got 3"),
        (2, "field_count", 6, "line 4: field 'value' is not numeric: 'oops'"),
        (2, "t", 2, "line 4: field 't' is not numeric: 'x'"),
        (3, "t", 1, "line 3: field 't' is not numeric: 'x'"),
        (1, "t", 3, "line 3: field 'value' is not numeric: 'oops'"),
    ],
    ids=["duplicate_then_value", "value_then_duplicate", "both_in_one_chunk",
         "count_then_value_in_one_chunk", "value_then_count_in_one_chunk",
         "count_then_value", "value_then_count", "t_and_value_in_one_row",
         "t_then_value", "value_then_t"],
)
def test_first_of_two_faults_is_reported(tmp_path, quoted, bad, other, at, message):
    # chunks of 4 lines: 2-5, 6-9, 10-12. Row ``bad`` gets a bad value, then
    # a repeat of the first point, or a row of 3 fields, is inserted at row
    # ``at``, or row ``at`` gets a bad t; the earlier line wins, and on one
    # line the t.
    layout = {"padded": "", "quoted": quoted, "blank_lines": 0, "crlf": False}
    rows = [[f"s{i}", "p0", repr(t), repr(float(i))]
            for i in range(2) for t in np.linspace(0.0, 1.0, 5).tolist()]
    rows[bad][3] = "oops"
    if other == "t":
        rows[at][2] = "x"
    else:
        rows.insert(at, rows[0][:3] + (["7.5"] if other == "duplicate" else []))
    _write(tmp_path / "curves.csv", CURVES_HEADER, rows, layout, None)
    _write(tmp_path / "responses.csv", RESPONSES_HEADER, [["s0", "1"], ["s1", "2"]],
           layout, None)
    got, expected = _read_both(tmp_path, chunk=4)
    assert got == expected
    assert f"curves.csv {message}" in got


@pytest.mark.parametrize("target", ["curves", "responses"])
def test_utf8_byte_order_mark_is_skipped(tmp_path, target):
    layout = {"seed": 3, "samples": 4, "predictors": 2, "grids": "mixed",
              "shuffle": True, "blank_lines": 1, "crlf": False, "ids": "ascii", "padded": "",
              "quoted": False, "chunk": 5}
    rng = np.random.default_rng(3)
    rows, responses = _tables(layout, rng)
    _write(tmp_path / "curves.csv", CURVES_HEADER, rows, layout, rng)
    _write(tmp_path / "responses.csv", RESPONSES_HEADER, responses, layout, rng)
    plain = cli.ingest_long_csv(str(tmp_path / "curves.csv"), str(tmp_path / "responses.csv"))
    path = tmp_path / f"{target}.csv"
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    marked = cli.ingest_long_csv(str(tmp_path / "curves.csv"), str(tmp_path / "responses.csv"))
    assert marked[1].tobytes() == plain[1].tobytes()
    assert marked[2:] == plain[2:]
    assert _by_curve(marked[0]) == _by_curve(plain[0])


@pytest.mark.parametrize(
    "end, final", [("\r", "\r"), ("\n", "")], ids=["bare_cr", "no_final_newline"]
)
def test_unusual_line_ends(tmp_path, end, final):
    # bare carriage returns send the curves file to the csv module; a plain
    # file without its final newline is read as if it had one. Either way
    # the result is that of the same file with LF line ends
    layout = {"seed": 4, "samples": 5, "predictors": 2, "grids": "mixed",
              "shuffle": True, "blank_lines": 2, "crlf": False, "ids": "ascii", "padded": "",
              "quoted": False, "chunk": 7}
    rng = np.random.default_rng(4)
    rows, responses = _tables(layout, rng)
    _write(tmp_path / "curves.csv", CURVES_HEADER, rows, layout, rng)
    _write(tmp_path / "responses.csv", RESPONSES_HEADER, responses, layout, rng)
    lf, _ = _read_both(tmp_path, layout["chunk"])
    path = tmp_path / "curves.csv"
    path.write_bytes(path.read_bytes().removesuffix(b"\n").replace(b"\n", end.encode())
                     + final.encode())
    with mock.patch.object(cli, "_csv_chunks", wraps=cli._csv_chunks) as csv_chunks:
        got, expected = _read_both(tmp_path, layout["chunk"])
    assert csv_chunks.called == (end == "\r")
    for result in (got, expected):
        assert result[2:] == lf[2:]
        assert result[1].tobytes() == lf[1].tobytes()
        assert _by_curve(result[0]) == _by_curve(lf[0])


@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize("fault", [None, "value"])
def test_chunks_of_blank_lines_only(tmp_path, quoted, fault):
    # chunks of 5 lines: data on lines 2-6, blank lines 7-11, data on lines
    # 12-16 and blank lines 17-18, so two chunks hold no data rows
    layout = {"padded": "", "quoted": quoted, "blank_lines": 0, "crlf": False}
    rows = [[f"s{i}", "p0", repr(t), repr(float(i))]
            for i in range(2) for t in np.linspace(0.0, 1.0, 5).tolist()]
    if fault == "value":
        rows[-1][3] = "oops"
    rows[5:5] = [[]] * 5
    rows += [[]] * 2
    _write(tmp_path / "curves.csv", CURVES_HEADER, rows, layout, None)
    _write(tmp_path / "responses.csv", RESPONSES_HEADER, [["s0", "1"], ["s1", "2"]],
           layout, None)
    got, expected = _read_both(tmp_path, chunk=5)
    if fault is None:
        assert got[2:] == expected[2:] == (["s0", "s1"], ["p0"])
        assert got[1].tobytes() == expected[1].tobytes()
        assert _by_curve(got[0]) == _by_curve(expected[0])
    else:
        assert got == expected
        assert "curves.csv line 16: field 'value' is not numeric: 'oops'" in got


@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize("repeat", [None, "same_curve", "other_curve"])
def test_one_curve_out_of_t_order(tmp_path, quoted, repeat):
    # curve (s1, p0) lists its points in reverse t order, so the sort by t
    # within a curve changes their order; a repeated point, if any, comes at
    # the end of the file, far from its first row
    layout = {"padded": "", "quoted": quoted, "blank_lines": 0, "crlf": False}
    grid = np.linspace(0.0, 1.0, 5).tolist()
    rows = [[f"s{i}", f"p{m}", repr(t), repr(float(10 * i + m + t))]
            for i in range(2) for m in range(2) for t in grid]
    rows[10:15] = rows[10:15][::-1]
    if repeat is not None:
        first = rows[12] if repeat == "same_curve" else rows[1]
        rows.append(first[:3] + ["7.5"])
    _write(tmp_path / "curves.csv", CURVES_HEADER, rows, layout, None)
    _write(tmp_path / "responses.csv", RESPONSES_HEADER, [["s0", "1"], ["s1", "2"]],
           layout, None)
    got, expected = _read_both(tmp_path, chunk=6)
    if repeat is None:
        assert got[2:] == expected[2:]
        assert got[1].tobytes() == expected[1].tobytes()
        assert _by_curve(got[0]) == _by_curve(expected[0])
        assert _by_curve(got[0])[0, 1][0] == np.array(grid).tobytes()
    else:
        assert got == expected
        sample, t = ("s1", 0.5) if repeat == "same_curve" else ("s0", 0.25)
        message = f"line 22: duplicate point for sample '{sample}', predictor 'p0', t={t}"
        assert f"curves.csv {message}" in got


def test_plain_reader_holds_about_one_chunk(tmp_path):
    # 20,000 rows in the layout of the benchmark's files (0.9 MB), read in
    # chunks of 1,000 lines, each dropped once read. The traced peak measured
    # 320 KB (CPython 3.11, numpy 2.4); the bound leaves a 25% margin. A
    # string per row for the ids (444 KB) or the file read whole (1.27 MB)
    # exceeds it.
    rng = np.random.default_rng(0)
    grid = np.linspace(0.0, 1.0, 50).tolist()
    path = tmp_path / "curves.csv"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(CURVES_HEADER + "\n")
        for i in range(100):
            for m in range(4):
                for t, value in zip(grid, rng.normal(size=50).tolist()):
                    handle.write(f"s{i:04d},X{m + 1},{t!r},{value!r}\n")
    with mock.patch.object(cli, "CHUNK_LINES", 1000), open(path, "rb") as handle:
        chunks = cli._plain_chunks(handle, str(path), {}, {})
        tracemalloc.start()
        try:
            deque(chunks, maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1.25 * 320_000
