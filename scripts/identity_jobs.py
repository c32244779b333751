"""Byte identity of the ``funcsel`` command line between two source trees.

Runs 87 jobs with ``python -m funcsel.cli`` under a parent tree and under a
changed tree, with ``OPENBLAS_NUM_THREADS=1``, and compares the stdout, the
stderr, the exit code and the bytes of the ``--out`` report of each job:

- ``select`` x {bc, fdr} x {regular, ragged} x input seeds {0, 3, 7};
- ``bootstrap --bootstrap-b 2000`` x ``--seed`` {0, 7} x {bc, fdr} on the
  regular files of input seeds {0, 3, 7};
- ``simulate --reps 30`` x c {0, 0.4} x n {100, 300} x ``--seed``
  {0, 2**64 - 1} x {bc, fdr};
- ``simulate --reps 10 --c 1.5`` x n {50, 1000} x {bc, fdr}: the smallest
  n and a large one, for the arrays the replications are generated into;
- ``select`` on the input seed 3 files, regular and ragged, with bases
  other than the default: ``--degree 2 --basis-size 9``, ``--degree 0
  --basis-size 4``, and a ``--config`` of per-predictor overrides
  (``basis_size.X1 = 12``, ``degree.X2 = 1``, ``domain.X3 = -1.5:1.5``);
- ``bootstrap --basis-size 8 --bootstrap-b 200`` on the regular input seed
  3 files;
- ``bootstrap --bootstrap-b 200`` on the same files and ``simulate --reps
  5 --c 0.4``, each with ``seed = 7`` from a ``--config`` file;
- ``select --basis-size 100000`` on the same files, whose parameter count
  exceeds n (exit 3);
- ``select`` on 31 altered copies of the input seed 3 curves file, for the
  reader's faults, layouts and number forms: 17 of the regular file (see
  :func:`_regular_variants`) and 14 of the ragged one (see
  :func:`_ragged_variants`), 3 of each with the ``value`` column in other
  forms (see :func:`_number_variants`), and 5 of the ragged ones quoted;
- ``select`` on the regular input seed 3 curves with a responses file whose
  ``y`` on one line is ``abc`` or ``inf``.

Three of these jobs, one per mode (``THREAD_PAIR_JOBS``), also run under
the changed tree with ``OPENBLAS_NUM_THREADS=2`` and are compared in the
same four parts with the changed tree's run at one thread. A ``simulate``
or ``bootstrap`` job runs its replications or resample batches on two
workers at one thread where it may use two CPUs, and on one worker at two
threads, so its pair also checks that the second worker moves no bit. The
``simulate`` and ``bootstrap`` ones also run under the changed tree in a
child restricted to one CPU (``os.sched_setaffinity``, where ``os`` has
it), so on one worker, and are compared with the run at one thread.

The input CSVs come from ``bench/inputs.py`` and are written, with the
altered copies, to a temporary directory. Both trees run a job with the same
argument list in the same working directory, so paths in messages match.
Prints one line per job; for a job whose stderr differs, the first differing
stderr line of each tree; and for a job whose ``--out`` differs, the largest
relative difference among the report's numbers under each key
(``statistic``, ``p_value``, ``q``, ...) and whether every other field (ids,
dofs, selections) is equal, which tells roundoff from a changed result.
Exits 1 when any job or thread pair differs.

Usage::

    python scripts/identity_jobs.py --parent-src DIR [--change-src src]
"""

from __future__ import annotations

import argparse
import decimal
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "bench"))

import inputs  # noqa: E402  (bench/inputs.py)

INPUT_SEEDS = (0, 3, 7)
METHODS = ("bc", "fdr")
# the input seed of the altered curves files
VARIANT_SEED = 3
# jobs also run under the changed tree at two BLAS threads, one per mode
THREAD_PAIR_JOBS = (
    "select fdr ragged input3",
    "bootstrap fdr regular input3 seed7",
    "simulate fdr c=0.4 n=300 seed=0",
)
PARTS = ("stdout", "stderr", "exit code", "--out")


def _field(line: bytes, index: int, value: bytes) -> bytes:
    """``line`` with its field ``index`` set to ``value``."""
    fields = line.split(b",")
    fields[index] = value
    return b",".join(fields)


def _cut(line: bytes) -> bytes:
    """``line`` without its last field."""
    return line.rpartition(b",")[0]


def _midpoint_19(x: float) -> str:
    """The midpoint between ``x`` and the next double up, cut to 19
    significant digits: a decimal that rounds to a double midpoint in 64
    bits of significand but not in more."""
    exact = decimal.Context(prec=2000)
    up = math.nextafter(x, math.inf)
    midpoint = exact.divide(exact.add(decimal.Decimal(x), decimal.Decimal(up)), 2)
    return format(decimal.Context(prec=19, rounding=decimal.ROUND_DOWN).plus(midpoint), ".18e")


def _quoted(data: bytes) -> bytes:
    """A curves file with the sample id of each line past its header quoted,
    which sends it to the reader's csv path."""
    header, *rows = data.split(b"\n")[:-1]
    return b"".join(
        line + b"\n" for line in [header, *(b'"' + row.replace(b",", b'",', 1) for row in rows)]
    )


def _number_variants(data: bytes) -> dict[str, bytes]:
    """Copies of a curves file with its ``value`` column written in other
    number forms, by name."""
    header, *rows = data.split(b"\n")[:-1]

    def values(form) -> bytes:
        """The file with the value text of row ``i`` set to ``form(i, text)``."""
        lines = [header]
        for i, row in enumerate(rows):
            head, _, text = row.rpartition(b",")
            lines.append(head + b"," + form(i, text.decode()).encode())
        return b"".join(line + b"\n" for line in lines)

    # rows spread over the file's chunks, each given one form
    odd = {
        1000: lambda text: "+1.5",
        7000: lambda text: "-0",
        20_000: lambda text: ".5",
        33_000: lambda text: "5.",
        46_000: lambda text: "%.19e" % float(text),  # a 20-digit mantissa
        59_000: lambda text: _midpoint_19(float(text)),
        72_000: lambda text: _midpoint_19(-float(text)),
    }
    return {
        "values in %.6e": values(lambda i, text: "%.6e" % float(text)),
        "values in %.15g": values(lambda i, text: "%.15g" % float(text)),
        "values in other forms": values(lambda i, text: odd[i](text) if i in odd else text),
    }


def _regular_variants(data: bytes, chunk_bytes: int) -> dict[str, bytes]:
    """Altered copies of a regular curves file, by name: each holds one
    fault, or two, at a line given by its index in the file or by its byte
    position around the edges of the reader's chunks, whose reads past the
    header line are ``chunk_bytes`` long; and the copies of
    :func:`_number_variants`."""
    lines = data.split(b"\n")[:-1]  # the file ends with a newline
    mid, a = len(lines) // 2, 30_000

    def past(offset: int) -> int:
        """Index of the first line that does not end within data[:offset]."""
        return data.count(b"\n", 0, data.rfind(b"\n", 0, offset) + 1)

    def edit(changes: dict[int, bytes]) -> bytes:
        return b"".join(changes.get(i, line) + b"\n" for i, line in enumerate(lines))

    def bad(i: int, index: int = 3) -> bytes:
        return _field(lines[i], index, b"x")

    second_chunk = past(len(lines[0]) + 1 + chunk_bytes)
    edge = past(768 * 1024)
    return {
        "whitespace value": edit({1000: _field(lines[1000], 3, b" ")}),
        "1.5e mid-file": edit({mid: _field(lines[mid], 3, b"1.5e")}),
        "non-UTF-8 byte": edit({mid: _field(lines[mid], 0, b"s\xff")}),
        "nan t": edit({mid: _field(lines[mid], 2, b"nan")}),
        "duplicate point": edit({40_000: lines[40_000] + b"\n" + lines[5000]}),
        "field count 3 lines before a bad value": edit({a: _cut(lines[a]), a + 3: bad(a + 3)}),
        "field count 3 lines after a bad value": edit({a: bad(a), a + 3: _cut(lines[a + 3])}),
        "field count 24,000 lines before a bad value": edit(
            {a: _cut(lines[a]), a + 24_000: bad(a + 24_000)}
        ),
        "field count 24,000 lines after a bad value": edit(
            {a: bad(a), a + 24_000: _cut(lines[a + 24_000])}
        ),
        "bad value opening the second chunk": edit({second_chunk: bad(second_chunk)}),
        "bad t past 768 KiB": edit({edge: bad(edge, 2)}),
        "blank lines around 768 KiB, then a bad value": edit(
            {edge: b"\n" + lines[edge] + b"\n\n", edge + 1: bad(edge + 1)}
        ),
        "1 MB id": edit({mid: _field(lines[mid], 0, b"s" * 1_000_000)}),
        "1 MB bad t": edit({mid: _field(lines[mid], 2, b"x" * 1_000_000)}),
        **_number_variants(data),
    }


def _ragged_variants(data: bytes) -> dict[str, bytes]:
    """Altered layouts of a ragged curves file, by name, one duplicate point,
    the copies of :func:`_number_variants`, and quoted copies (see
    :func:`_quoted`), faulty or not."""
    header, *rows = data.split(b"\n")[:-1]
    shuffled = rows.copy()
    random.Random(VARIANT_SEED).shuffle(shuffled)
    mid, a = len(rows) // 2, 30_000

    def join(body: list[bytes], end: bytes = b"\n") -> bytes:
        return b"".join(line + end for line in [header, *body])

    def quoted_edit(changes: dict[int, bytes]) -> bytes:
        """The file quoted, with row ``i`` set to ``changes[i]``."""
        return _quoted(join([changes.get(i, row) for i, row in enumerate(rows)]))

    numbers = _number_variants(data)
    return {
        **numbers,
        "shuffled": join(shuffled),
        "reversed": join(rows[::-1]),
        "duplicate point": join([*rows[:40_000], rows[5000], *rows[40_000:]]),
        "quoted": _quoted(data),
        "CRLF": join(rows, b"\r\n"),
        "no final newline": data[:-1],
        "blank line after every row": join([row + b"\n" for row in rows]),
        "quoted, values in other forms": _quoted(numbers["values in other forms"]),
        "quoted, bad value mid-file": quoted_edit({mid: _field(rows[mid], 3, b"x")}),
        "quoted, nan t": quoted_edit({mid: _field(rows[mid], 2, b"nan")}),
        "quoted, field count 3 lines after a bad value": quoted_edit(
            {a: _field(rows[a], 3, b"x"), a + 3: _cut(rows[a + 3])}
        ),
    }


def _jobs(
    files: dict[tuple[int, bool], dict], work: Path, chunk_bytes: int
) -> list[tuple[str, list[str]]]:
    """(name, argv) of each job; the altered curves files are written to
    ``work``, those of :func:`_regular_variants` for reads of
    ``chunk_bytes``."""
    jobs = []
    for seed, ragged, method in itertools.product(INPUT_SEEDS, (False, True), METHODS):
        paths = files[seed, ragged]
        layout = "ragged" if ragged else "regular"
        jobs.append((
            f"select {method} {layout} input{seed}",
            ["--mode", "select", "--curves", paths["curves"],
             "--responses", paths["responses"], "--method", method],
        ))
    for seed, job_seed, method in itertools.product(INPUT_SEEDS, (0, 7), METHODS):
        paths = files[seed, False]
        jobs.append((
            f"bootstrap {method} regular input{seed} seed{job_seed}",
            ["--mode", "bootstrap", "--curves", paths["curves"],
             "--responses", paths["responses"], "--method", method,
             "--bootstrap-b", "2000", "--seed", str(job_seed)],
        ))
    for c, n, seed, method in itertools.product(("0", "0.4"), (100, 300), (0, 2**64 - 1), METHODS):
        jobs.append((
            f"simulate {method} c={c} n={n} seed={seed}",
            ["--mode", "simulate", "--reps", "30", "--c", c, "--n", str(n),
             "--seed", str(seed), "--method", method],
        ))
    for n, method in itertools.product((50, 1000), METHODS):
        jobs.append((
            f"simulate {method} c=1.5 n={n} --reps 10",
            ["--mode", "simulate", "--reps", "10", "--c", "1.5", "--n", str(n), "--method", method],
        ))
    config = work / "bases.cfg"
    config.write_text("basis_size.X1 = 12\ndegree.X2 = 1\ndomain.X3 = -1.5:1.5\n")
    bases = {
        "--degree 2 --basis-size 9": ["--degree", "2", "--basis-size", "9"],
        "--degree 0 --basis-size 4": ["--degree", "0", "--basis-size", "4"],
        "per-predictor config": ["--config", str(config)],
    }
    for (name, flags), ragged in itertools.product(bases.items(), (False, True)):
        paths = files[VARIANT_SEED, ragged]
        layout = "ragged" if ragged else "regular"
        jobs.append((
            f"select {layout} input{VARIANT_SEED}, {name}",
            ["--mode", "select", "--curves", paths["curves"],
             "--responses", paths["responses"], *flags],
        ))
    paths = files[VARIANT_SEED, False]
    jobs.append((
        f"bootstrap regular input{VARIANT_SEED}, --basis-size 8",
        ["--mode", "bootstrap", "--curves", paths["curves"], "--responses",
         paths["responses"], "--basis-size", "8", "--bootstrap-b", "200"],
    ))
    seeded = work / "seed.cfg"
    seeded.write_text("seed = 7\n")
    jobs.append((
        f"bootstrap regular input{VARIANT_SEED}, seed 7 from --config",
        ["--mode", "bootstrap", "--curves", paths["curves"], "--responses",
         paths["responses"], "--bootstrap-b", "200", "--config", str(seeded)],
    ))
    jobs.append((
        "simulate c=0.4 n=300, seed 7 from --config",
        ["--mode", "simulate", "--reps", "5", "--c", "0.4", "--config", str(seeded)],
    ))
    jobs.append((
        f"select regular input{VARIANT_SEED}, --basis-size 100000",
        ["--mode", "select", "--curves", paths["curves"], "--responses",
         paths["responses"], "--basis-size", "100000"],
    ))
    for ragged in (False, True):
        paths = files[VARIANT_SEED, ragged]
        layout = "ragged" if ragged else "regular"
        data = Path(paths["curves"]).read_bytes()
        variants = _ragged_variants(data) if ragged else _regular_variants(data, chunk_bytes)
        for i, (name, altered) in enumerate(variants.items()):
            curves = work / f"variant_{layout}_{i}.csv"
            curves.write_bytes(altered)
            jobs.append((
                f"select {layout} input{VARIANT_SEED}, {name}",
                ["--mode", "select", "--curves", str(curves), "--responses", paths["responses"]],
            ))
    paths = files[VARIANT_SEED, False]
    lines = Path(paths["responses"]).read_bytes().split(b"\n")
    for y in (b"abc", b"inf"):
        responses = work / f"responses_y_{y.decode()}.csv"
        responses.write_bytes(b"\n".join([*lines[:100], _field(lines[100], 1, y), *lines[101:]]))
        jobs.append((
            f"select regular input{VARIANT_SEED}, responses y = {y.decode()} on line 101",
            ["--mode", "select", "--curves", paths["curves"], "--responses", str(responses)],
        ))
    return jobs


def _chunk_bytes(src: Path) -> int:
    """``funcsel.ingest.CHUNK_BYTES`` under ``src``: the reader's reads past
    the header line."""
    done = subprocess.run(
        [sys.executable, "-c", "from funcsel.ingest import CHUNK_BYTES; print(CHUNK_BYTES)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, check=True,
    )
    return int(done.stdout)


def _run(
    src: Path, argv: list[str], out: Path, cwd: Path, threads: str = "1", one_cpu: bool = False
) -> tuple[bytes, ...]:
    """stdout, stderr, exit code and ``--out`` bytes of one job under ``src``
    at ``threads`` BLAS threads, on one CPU of this process's if ``one_cpu``."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
    preexec_fn = None
    if one_cpu:
        cpu = min(os.sched_getaffinity(0))

        def preexec_fn() -> None:  # runs in the child, before it starts Python
            os.sched_setaffinity(0, {cpu})

    done = subprocess.run(
        [sys.executable, "-m", "funcsel.cli", *argv, "--out", str(out)],
        cwd=cwd, env=env, capture_output=True, preexec_fn=preexec_fn,
    )
    report = out.read_bytes() if out.exists() else b"<no file>"
    out.unlink(missing_ok=True)
    return done.stdout, done.stderr, str(done.returncode).encode(), report


def _first_difference(a: bytes, b: bytes) -> tuple[str, str]:
    """The first line at which ``a`` and ``b`` differ, from each side, as
    text cut to 200 characters; ``<end>`` past the last line of a side."""
    for line_a, line_b in itertools.zip_longest(a.splitlines(), b.splitlines()):
        if line_a != line_b:
            return tuple(
                "<end>" if line is None else repr(line.decode(errors="replace")[:200])
                for line in (line_a, line_b)
            )
    return "<end>", "<end>"  # the lines agree; only their endings differ


def _compare(a, b, path: str, gaps: dict[str, float], others: list[str]) -> None:
    """Walk two parsed reports together: keep in ``gaps`` the largest
    relative difference of a pair of floats under each top-level key of a
    record, and append to ``others`` the path of every other field that
    differs, ints and strings among them."""
    if isinstance(a, float) and isinstance(b, float):
        gap = 0.0
        if a != b and not (math.isnan(a) and math.isnan(b)):
            gap = abs(a - b) / max(abs(a), abs(b))
        key = path.split(".")[1] if "." in path else path
        gaps[key] = max(gaps.get(key, 0.0), gap)
    elif isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            _compare(a[key], b[key], f"{path}.{key}", gaps, others)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (item_a, item_b) in enumerate(zip(a, b)):
            _compare(item_a, item_b, f"{path}[{i}]", gaps, others)
    elif type(a) is not type(b) or a != b:
        others.append(path)


def _report_difference(a: bytes, b: bytes) -> str:
    """How two ``--out`` reports of JSON lines differ: the largest relative
    difference among their numbers under each key, and whether every other
    field is equal."""
    try:
        reports = [[json.loads(line) for line in report.splitlines()] for report in (a, b)]
    except ValueError:
        return "not both JSON reports"
    gaps, others = {}, []
    _compare(*reports, "", gaps, others)
    numbers = ", ".join(f"{key} {gap:.3g}" for key, gap in sorted(gaps.items()))
    fields = "every other field equal"
    if others:
        fields = "other fields differ: " + ", ".join(others[:5])
    return f"largest relative difference of {numbers or 'no numbers'}; {fields}"


def _print_comparison(name: str, sides: tuple[str, str], a: tuple, b: tuple) -> bool:
    """Print how the runs ``a`` and ``b`` of one job compare; True when they
    differ."""
    diff = [part for part, x, y in zip(PARTS, a, b) if x != y]
    status = "DIFFERS in " + ", ".join(diff) if diff else "same"
    print(f"{name}: exit {b[2].decode()}, {status}", flush=True)
    if "stderr" in diff:
        for side, line in zip(sides, _first_difference(a[1], b[1])):
            print(f"    {side} stderr: {line}", flush=True)
    if "--out" in diff:
        print(f"    --out: {_report_difference(a[3], b[3])}", flush=True)
    return bool(diff)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent-src", required=True, type=Path,
                        help="the parent tree's source directory, holding funcsel/")
    parser.add_argument("--change-src", default=REPO / "src", type=Path,
                        help="the changed tree's source directory (default: src)")
    args = parser.parse_args(argv)
    trees = (args.parent_src.resolve(), args.change_src.resolve())
    for src in trees:
        if not (src / "funcsel" / "cli.py").is_file():
            parser.error(f"{src} holds no funcsel/cli.py")

    differ = pairs = pairs_differ = 0
    with tempfile.TemporaryDirectory(prefix="identity_jobs_") as tmp:
        work = Path(tmp)
        files = {
            (seed, ragged): inputs.write_csvs(
                str(work / f"input{seed}_{'ragged' if ragged else 'regular'}"),
                inputs.make_dataset(seed, ragged),
            )
            for seed in INPUT_SEEDS
            for ragged in (False, True)
        }
        # the changed tree's reads, so that its second chunk opens on the
        # faulty line of "bad value opening the second chunk"
        jobs = _jobs(files, work, _chunk_bytes(trees[1]))
        missing = set(THREAD_PAIR_JOBS) - {name for name, _ in jobs}
        if missing:
            parser.error(f"no job named {sorted(missing)}")
        for name, job in jobs:
            parent, change = (_run(src, job, work / "report.jsonl", work) for src in trees)
            differ += _print_comparison(name, ("parent", "change"), parent, change)
            if name in THREAD_PAIR_JOBS:
                two = _run(trees[1], job, work / "report.jsonl", work, threads="2")
                pairs += 1
                pairs_differ += _print_comparison(
                    f"{name}, change at OPENBLAS_NUM_THREADS=2 against 1",
                    ("1 thread", "2 threads"), change, two,
                )
                if job[1] in ("simulate", "bootstrap") and hasattr(os, "sched_setaffinity"):
                    alone = _run(trees[1], job, work / "report.jsonl", work, one_cpu=True)
                    pairs += 1
                    pairs_differ += _print_comparison(
                        f"{name}, change on one CPU against all",
                        ("all CPUs", "one CPU"), change, alone,
                    )
    print(f"{len(jobs) - differ} of {len(jobs)} jobs identical")
    print(f"{pairs - pairs_differ} of {pairs} thread pairs identical")
    return 1 if differ or pairs_differ else 0


if __name__ == "__main__":
    sys.exit(main())
