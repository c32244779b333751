"""Record the reference reports that ``simulate`` and ``bootstrap`` jobs are checked against.

Run from the repository root, on the commit whose output is the reference::

    python3 bench/record_references.py

It runs one job of each workload for every seed in ``0 .. run.POOL - 1``,
with the same arguments and inputs as the benchmark, and writes the parsed
``--out`` reports to ``bench/references.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import inputs  # noqa: E402
from run import BENCH_DIR, POOL, SOURCE, job_argv  # noqa: E402

sys.path.insert(0, str(SOURCE))
import funcsel.cli  # noqa: E402


def main() -> None:
    references: dict = {"simulate": {}, "bootstrap": {}}
    with tempfile.TemporaryDirectory(dir=BENCH_DIR.parent) as tmp:
        out = os.path.join(tmp, "report.jsonl")
        for seed in range(POOL):
            for workload in references:
                files = {}
                if workload == "bootstrap":
                    files = inputs.write_csvs(tmp, inputs.make_dataset(seed, ragged=False))
                with contextlib.redirect_stdout(io.StringIO()):
                    code = funcsel.cli.main(job_argv(workload, seed, files, out))
                if code != 0:
                    raise SystemExit(f"{workload} seed {seed}: exit code {code}")
                with open(out, encoding="utf-8") as handle:
                    references[workload][str(seed)] = json.loads(handle.read())
            print(f"seed {seed}: {references['bootstrap'][str(seed)]['ratios']}", file=sys.stderr)
    with open(BENCH_DIR / "references.json", "w", encoding="utf-8") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
