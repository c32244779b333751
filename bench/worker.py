"""One fresh benchmark process: cold job, then a closed loop of checked jobs.

Usage: ``python3 bench/worker.py SPEC.json RESULT.json``. The spec names the
CLI arguments of one job, the expected ``--out`` report and the phase:

- ``setup``: time from before ``import funcsel`` to the end of the first,
  cold job, then exit;
- ``measure``: the cold job, one warm-up job, then back-to-back timed jobs
  for ``seconds``, with :func:`calibrate.reference_kernel` timed before the
  first job and after every job;
- ``trace``: the cold and warm-up jobs, then untraced jobs alternating with
  jobs run under :class:`tracing.Tracer`, whose spans are written to
  ``trace_path``.

Every phase also times the reference kernel three times right after the cold job.

Every job's report is checked against the expectation; a job that raises,
exits nonzero or writes a wrong report counts all of its items as failed.
"""

import ctypes
import json
import math
import os
import statistics
import sys
import time
import traceback

from tracing import Tracer, job_profile

SETUP_START = time.perf_counter()

import funcsel.cli  # noqa: E402  (set-up time starts before this import)


def _close(actual, expected, rtol: float, key_rtol: dict) -> bool:
    """Equal, except floats within ``rtol`` (or ``key_rtol[key]`` under a dict key)."""
    if isinstance(expected, float):
        return (
            isinstance(actual, (int, float))
            and not isinstance(actual, bool)
            and math.isclose(actual, expected, rel_tol=rtol, abs_tol=0.0)
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(_close(a, e, rtol, key_rtol) for a, e in zip(actual, expected))
        )
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and actual.keys() == expected.keys()
            and all(
                _close(actual[k], expected[k], key_rtol.get(k, rtol), key_rtol)
                for k in expected
            )
        )
    return type(actual) is type(expected) and actual == expected


def check_report(text: str, expected: dict) -> str | None:
    """None when the ``--out`` text matches the expectation, else the reason.

    ``expected`` holds the ``records`` the report's JSON lines should equal,
    the relative tolerance ``rtol`` for floats and ``key_rtol`` overrides.
    """
    try:
        records = [json.loads(line) for line in text.splitlines()]
    except json.JSONDecodeError as exc:
        return f"report is not JSON lines: {exc}"
    want = expected["records"]
    if len(records) != len(want):
        return f"report has {len(records)} records, expected {len(want)}"
    for got, exp in zip(records, want):
        if not _close(got, exp, expected["rtol"], expected["key_rtol"]):
            return f"record {got} does not match expected {exp}"
    return None


def blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                found[os.path.basename(path)] = func()
                break
    return found


def peak_rss_mb() -> float:
    """This process's peak resident memory.

    ``VmHWM`` belongs to the process's own address space; ``ru_maxrss`` would
    also count the parent that spawned it.
    """
    with open("/proc/self/status", encoding="utf-8") as status:
        kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return kib / 1024.0


class Runner:
    """Runs the spec's job, checks each report and counts attempted and failed items."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.devnull = open(os.devnull, "w", encoding="utf-8")
        self.items_attempted = 0
        self.items_failed = 0
        self.jobs = 0
        self.errors: list[str] = []
        self.last_end = 0.0  # clock reading when the latest job returned

    def job(self) -> float:
        """Run and check one job; return its wall time in seconds."""
        out = self.spec["out"]
        if os.path.exists(out):
            os.remove(out)
        code, error = None, None
        stdout, sys.stdout = sys.stdout, self.devnull
        start = time.perf_counter()
        try:
            code = funcsel.cli.main(list(self.spec["argv"]))
        except Exception as exc:  # a crash is a failed job, not a crashed benchmark
            traceback.print_exc()
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            self.last_end = time.perf_counter()
            sys.stdout = stdout
        self._account(code, error, out)
        return self.last_end - start

    def _account(self, code, error, out) -> None:
        items = self.spec["items_per_job"]
        self.jobs += 1
        self.items_attempted += items
        reason, text = error or (f"exit code {code}" if code != 0 else None), None
        if reason is None:
            try:
                with open(out, encoding="utf-8") as handle:
                    text = handle.read()
                reason = check_report(text, self.spec["expected"])
            except OSError as exc:
                reason = f"no report: {exc}"
        if reason is None:
            # replications or resamples the job itself reports as failed
            self.items_failed += int(json.loads(text.splitlines()[-1]).get("failed", 0))
            return
        self.items_failed += items
        if reason not in self.errors:
            self.errors.append(reason)
        print(f"job {self.jobs} failed: {reason}", file=sys.stderr)

    def close(self):
        self.devnull.close()


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    runner = Runner(spec)
    cold = runner.job()
    setup = runner.last_end - SETUP_START
    # imported only now, so that set-up time covers loading numpy and scipy
    from calibrate import reference_kernel

    result = {
        "setup_s": setup,
        "setup_kernel_s": statistics.median(reference_kernel() for _ in range(3)),
        "cold_job_s": cold,
    }
    if spec["phase"] != "setup":
        runner.job()  # warm-up
        plain, kernel, traced, profiles, linalg = [], [], [], [], []
        tracer = Tracer() if spec["phase"] == "trace" else None
        if tracer is None:
            kernel.append(reference_kernel())
        loop_start = time.perf_counter()
        while time.perf_counter() - loop_start < spec["seconds"] or len(plain) < 3:
            plain.append(runner.job())
            if tracer is None:
                kernel.append(reference_kernel())
                continue
            tracer.job = len(traced)
            first = len(tracer.spans)
            tracer.install()
            try:
                seconds = runner.job()
            finally:
                tracer.uninstall()
            traced.append(seconds)
            profiles.append(job_profile(tracer.spans[first:], seconds))
            linalg.append(dict(tracer.linalg[tracer.job]))
        result.update(job_s=plain, kernel_s=kernel, items_per_job=spec["items_per_job"])
        if tracer is not None:
            tracer.write(spec["trace_path"])
            result.update(traced_job_s=traced, profiles=profiles, linalg=linalg,
                          spans=len(tracer.spans))
    runner.close()
    result.update(
        jobs=runner.jobs,
        items_attempted=runner.items_attempted,
        items_failed=runner.items_failed,
        errors=runner.errors,
        peak_rss_mb=peak_rss_mb(),
        blas_threads=blas_threads(),
    )
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
