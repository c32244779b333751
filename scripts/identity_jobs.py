"""Byte identity of the ``funcsel`` command line between two source trees.

Runs 40 jobs with ``python -m funcsel.cli`` under a parent tree and under a
changed tree, with ``OPENBLAS_NUM_THREADS=1``, and compares the stdout, the
stderr, the exit code and the bytes of the ``--out`` report of each job:

- ``select`` x {bc, fdr} x {regular, ragged} x input seeds {0, 3, 7};
- ``bootstrap --bootstrap-b 2000`` x ``--seed`` {0, 7} x {bc, fdr} on the
  regular files of input seeds {0, 3, 7};
- ``simulate --reps 30`` x c {0, 0.4} x n {100, 300} x ``--seed``
  {0, 2**64 - 1} x {bc, fdr}.

The input CSVs come from ``bench/inputs.py`` and are written to a temporary
directory. Both trees run a job with the same argument list in the same
working directory, so paths in messages match. Prints one line per job and
exits 1 when any job differs.

Usage::

    python scripts/identity_jobs.py --parent-src DIR [--change-src src]
"""

from __future__ import annotations

import argparse
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "bench"))

import inputs  # noqa: E402  (bench/inputs.py)

INPUT_SEEDS = (0, 3, 7)
METHODS = ("bc", "fdr")


def _jobs(files: dict[tuple[int, bool], dict]) -> list[tuple[str, list[str]]]:
    """(name, argv) of each job."""
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
    return jobs


def _run(src: Path, argv: list[str], out: Path, cwd: Path) -> tuple[bytes, ...]:
    """stdout, stderr, exit code and ``--out`` bytes of one job under ``src``."""
    env = {k: v for k, v in os.environ.items() if k != "FUNCSEL_SEED"}
    env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-m", "funcsel.cli", *argv, "--out", str(out)],
        cwd=cwd, env=env, capture_output=True,
    )
    report = out.read_bytes() if out.exists() else b"<no file>"
    out.unlink(missing_ok=True)
    return done.stdout, done.stderr, str(done.returncode).encode(), report


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

    parts = ("stdout", "stderr", "exit code", "--out")
    differ = 0
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
        jobs = _jobs(files)
        for name, job in jobs:
            parent, change = (_run(src, job, work / "report.jsonl", work) for src in trees)
            diff = [part for part, a, b in zip(parts, parent, change) if a != b]
            differ += bool(diff)
            status = "DIFFERS in " + ", ".join(diff) if diff else "same"
            print(f"{name}: exit {change[2].decode()}, {status}", flush=True)
    print(f"{len(jobs) - differ} of {len(jobs)} jobs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
