"""funcsel benchmark: three user jobs, each in fresh single-threaded processes.

Usage, from the repository root::

    python3 bench/run.py --workload simulate --seed 1 --seconds 25 --trace 0

Workloads (one process, one thread, a closed loop of back-to-back jobs
through ``funcsel.cli.main``):

- ``simulate``: ``--mode simulate --c 0.4 --n 300 --method fdr --q 0.01``
  with ``REPS`` replications per job. Data generation and shared-grid
  smoothing dominate; no CSV is read and, once warm, no basis is evaluated.
- ``select_ragged``: ``--mode select --method fdr --q auto`` on a
  300-sample, 6-predictor CSV whose every curve has its own jittered grid,
  so every curve misses the pseudoinverse cache and basis evaluation and
  CSV ingest dominate.
- ``bootstrap``: ``--mode bootstrap --method bc --bootstrap-b 2000`` on a
  CSV of the same size on one shared regular grid; the fits and tests of
  the resamples dominate.

With ``--trace 0`` it reports the end-to-end metrics: median job time,
items per second, set-up time (fresh process, from before ``import
funcsel`` to the end of the first job, median of ``SETUP_PROCESSES``
processes) and the peak resident memory of the measuring process. The
three times are wall times rescaled to a fixed machine speed with the
reference kernel in ``calibrate.py``, timed between jobs: on a shared
machine the raw wall time of the same job drifts by up to 1.5 times from
one minute to the next. The raw wall times are printed beside them. With
``--trace 1`` it alternates plain and traced jobs and reports per-job calls
and self time of each traced layer, linear-algebra call counts and the
tracing overhead. Every job's ``--out`` report is checked: ``select_ragged``
against the independent oracle in ``oracle.py``, the others against
``references.json``, recorded with ``record_references.py`` from the program
as it was when this benchmark was added. Any failed check makes the command
exit 1.

``--workload all`` runs the three in turn and prefixes each metric with
its workload. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Everything else a
run leaves (environment record, per-job samples, logs and spans) is in
``.bench_out/<workload>-seed<seed>-trace<trace>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import KERNEL_REF_S

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

WORKLOADS = ("simulate", "select_ragged", "bootstrap")
REPS = 16  # simulate replications per job
BOOTSTRAP_B = 2000
# simulate and bootstrap are checked against reports recorded for seeds
# 0 .. POOL-1, so the workload seed picks one of those.
POOL = 64
SETUP_PROCESSES = 3
RUN_BUDGET_S = 170  # a run, workers included, must end within this
UNITS = {"simulate": "replications", "select_ragged": "curves", "bootstrap": "resamples"}


def job_argv(workload: str, seed: int, files: dict, out: str) -> list[str]:
    """CLI arguments of one job of ``workload``."""
    if workload == "simulate":
        return ["--mode", "simulate", "--c", "0.4", "--n", "300", "--method", "fdr",
                "--q", "0.01", "--reps", str(REPS), "--seed", str(seed), "--out", out]
    common = ["--curves", files["curves"], "--responses", files["responses"], "--out", out]
    if workload == "select_ragged":
        return ["--mode", "select", "--method", "fdr", "--q", "auto"] + common
    return ["--mode", "bootstrap", "--method", "bc", "--bootstrap-b", str(BOOTSTRAP_B),
            "--seed", str(seed)] + common


def prepare(workload: str, seed: int, work: Path) -> dict:
    """Inputs, job arguments and the expected report for one run."""
    import inputs

    files: dict = {}
    if workload == "select_ragged":
        import oracle

        dataset = inputs.make_dataset(seed, ragged=True)
        files = inputs.write_csvs(str(work / "inputs"), dataset)
        expected = {"records": oracle.select_report(*dataset), "rtol": 1e-12,
                    "key_rtol": {"statistic": 1e-8, "p_value": 1e-6}}
        job_seed = seed
    else:
        job_seed = seed % POOL
        with open(BENCH_DIR / "references.json", encoding="utf-8") as handle:
            reference = json.load(handle)[workload][str(job_seed)]
        if workload == "bootstrap":
            files = inputs.write_csvs(str(work / "inputs"), inputs.make_dataset(job_seed, False))
        expected = {"records": [reference], "rtol": 1e-9, "key_rtol": {}}
    items = {"simulate": REPS, "select_ragged": inputs.SAMPLES * len(inputs.DOMAINS),
             "bootstrap": BOOTSTRAP_B}[workload]
    curves = inputs.SAMPLES * len(inputs.DOMAINS) * (2 * REPS if workload == "simulate" else 1)
    return {
        "argv": job_argv(workload, job_seed, files, str(work / "report.jsonl")),
        "out": str(work / "report.jsonl"),
        "expected": expected,
        "items_per_job": items,
        "curves_per_job": curves,
        "job_seed": job_seed,
        "inputs": {k: v for k, v in files.items() if k.endswith(("_rows", "_bytes"))},
    }


def run_worker(spec: dict, phase: str, work: Path, index: int, seconds: float,
               deadline: float) -> dict | None:
    """Run one fresh worker process; its result, or None if it did not finish by ``deadline``."""
    spec = dict(spec, phase=phase, seconds=seconds, trace_path=str(work / "spans.jsonl.gz"))
    spec_path = work / f"spec-{index}.json"
    result_path = work / f"result-{index}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    with open(work / f"worker-{index}.log", "w", encoding="utf-8") as log:
        try:
            subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path), str(result_path)],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                timeout=max(deadline - time.monotonic(), 1.0), check=True,
            )
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"worker {index} ({phase}) failed: {exc}; see {log.name}", file=sys.stderr)
            return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def environment(seed: int, worker: dict | None) -> dict:
    """What a comparison between two results must hold equal."""
    import numpy
    import scipy

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            return "unknown"

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy),
        "openblas_scipy": blas(scipy),
        "blas_threads": worker["blas_threads"] if worker else None,
        "workload_seed": seed,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(workers: list[dict], measured: dict) -> tuple[dict, list[str]]:
    """Times rescaled to the reference machine speed, and peak memory.

    Each job's wall time is multiplied by ``KERNEL_REF_S`` over the mean of
    the kernel times just before and after it; each set-up time by
    ``KERNEL_REF_S`` over the median kernel time right after its cold job.
    """
    wall, kernel = measured["job_s"], measured["kernel_s"]
    jobs = [KERNEL_REF_S * j / (0.5 * (a + b)) for j, a, b in zip(wall, kernel, kernel[1:])]
    setups = [KERNEL_REF_S * w["setup_s"] / w["setup_kernel_s"] for w in workers]
    q1, med, q3 = quartiles(jobs)
    metrics = {
        "job_s": (med, "s"),
        "items_per_s": (measured["items_per_job"] * len(jobs) / sum(jobs), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
    }
    w1, wmed, w3 = quartiles(wall)
    notes = [
        f"job_s quartiles {q1:.4f} / {med:.4f} / {q3:.4f} s over {len(jobs)} jobs "
        f"(wall {w1:.4f} / {wmed:.4f} / {w3:.4f} s; "
        f"reference kernel median {statistics.median(kernel):.4f} s)",
        "setup_s samples " + ", ".join(f"{s:.4f}" for s in setups) + " s (wall "
        + ", ".join(f"{w['setup_s']:.4f}" for w in workers) + " s; cold job alone "
        + ", ".join(f"{w['cold_job_s']:.4f}" for w in workers) + " s)",
    ]
    return metrics, notes


def per_layer(traced: dict, curves_per_job: int) -> tuple[dict, list[str]]:
    from tracing import LINALG, SPANS

    profiles = traced["profiles"]
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = (statistics.median(p[f"{name}.calls"] for p in profiles), "count")
        metrics[f"{name}.self_ms"] = (statistics.median(p[f"{name}.self_ms"] for p in profiles), "ms")
    metrics["other.self_ms"] = (statistics.median(p["other.self_ms"] for p in profiles), "ms")
    metrics["smoothing.basis_eval_per_curve"] = (
        metrics["bspline.evaluate_basis_matrix.calls"][0] / curves_per_job, "ratio")
    for _, fn in LINALG:
        metrics[f"linalg.{fn}.calls"] = (
            statistics.median(counts.get(fn, 0) for counts in traced["linalg"]), "count")
    with_spans = statistics.median(traced["traced_job_s"])
    metrics["tracing.overhead_frac"] = (with_spans / statistics.median(traced["job_s"]) - 1.0,
                                        "ratio")
    total = sum(v for k, (v, _) in metrics.items() if k.endswith("self_ms"))
    notes = [f"{len(profiles)} traced and {len(traced['job_s'])} plain jobs; "
             f"{traced['spans']} spans; traced job median {with_spans:.4f} s"]
    notes += [
        f"  {k:<40} {v:10.3f} ms  {100 * v / total:5.1f}%"
        for k, (v, _) in sorted(metrics.items(), key=lambda kv: -kv[1][0])
        if k.endswith("self_ms") and v > 0
    ]
    return metrics, notes


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload, print its report, keep its record; return the summary."""
    deadline = time.monotonic() + RUN_BUDGET_S
    work = OUT_ROOT / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = prepare(workload, seed, work)

    if trace:
        workers = [run_worker(spec, "trace", work, 0, seconds, deadline)]
    else:
        workers = [run_worker(spec, "setup", work, i, 0, deadline)
                   for i in range(SETUP_PROCESSES - 1)]
        workers.append(run_worker(spec, "measure", work, SETUP_PROCESSES - 1, seconds, deadline))
    shutil.rmtree(work / "inputs", ignore_errors=True)
    main_worker = workers[-1]
    finished = [w for w in workers if w is not None]
    attempted = sum(w["items_attempted"] for w in finished)
    failed = sum(w["items_failed"] for w in finished)
    correct = len(finished) == len(workers) and failed == 0
    if not correct:
        attempted = max(attempted, 1)
        failed = max(failed, 1)

    env = environment(seed, main_worker)
    lines = [f"workload {workload}  seed {seed}  job seed {spec['job_seed']}  trace {trace}",
             "environment " + json.dumps(env, sort_keys=True),
             "inputs " + json.dumps(spec["inputs"], sort_keys=True)]
    metrics: dict = {}
    if main_worker is not None:
        if trace:
            metrics, notes = per_layer(main_worker, spec["curves_per_job"])
        else:
            metrics, notes = end_to_end(finished, main_worker)
        lines += notes
    lines.append(f"failed_frac {failed / attempted:.6g} ratio "
                 f"({failed} of {attempted} {UNITS[workload]} failed)")
    reasons = dict.fromkeys(reason for worker in finished for reason in worker["errors"])
    lines += [f"check failed: {reason}" for reason in reasons]
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    print("\n".join(lines))

    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(summary, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  environment=env, spec=spec, workers=workers)
    (work / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SOURCE / "funcsel" / "cli.py").is_file():
        print(f"error: no funcsel source under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))

    if args.workload != "all":
        summary = run_workload(args.workload, args.seed, args.seconds, args.trace)
    else:
        parts = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
        summary = {
            "correct": all(p["correct"] for p in parts.values()),
            "attempted": sum(p["attempted"] for p in parts.values()),
            "failed": sum(p["failed"] for p in parts.values()),
            "metrics": {f"{w}.{name}": m for w, p in parts.items()
                        for name, m in p["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
