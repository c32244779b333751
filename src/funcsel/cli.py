"""Command-line front end: ingestion, selection, simulation, bootstrap.

Curves are read from a long-format CSV (``sample_id,predictor_id,t,value``)
with responses in a second file (``sample_id,y``). Options come from flags,
an optional flat key=value config file (flags win), and the FUNCSEL_SEED
environment variable as a seed fallback.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .bspline import BasisSpec, make_uniform_basis
from .design import DesignMatrix, build_design
from .errors import DataError, NumericalError
from .inference import test_all
from .selection import check_method, check_q, default_q, select
from .simgen import SimScenario, run_monte_carlo
from .smoothing import CurveBlock, build_dataset

__all__ = [
    "JobConfig",
    "BootstrapReport",
    "ingest_long_csv",
    "run_select",
    "run_bootstrap",
    "run_simulate",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


@dataclass
class JobConfig:
    """Resolved job options for one CLI invocation."""

    mode: str
    curves: str | None = None
    responses: str | None = None
    method: str = "fdr"
    q: str = "auto"
    basis_size: int = 6
    degree: int = 3
    seed: int = 0
    reps: int = 100
    bootstrap_b: int = 100
    threads: int = 1
    out: str | None = None
    c: float = 0.0
    n: int = 300
    # per-predictor overrides keyed by predictor id, e.g. from config lines
    # "basis_size.TEMP = 8" or "domain.TEMP = 0:12"
    basis_size_overrides: dict[str, int] = field(default_factory=dict)
    degree_overrides: dict[str, int] = field(default_factory=dict)
    domain_overrides: dict[str, tuple[float, float]] = field(default_factory=dict)

    def resolve_q(self, n: int, num_predictors: int) -> float:
        if self.q == "auto":
            return default_q(n, num_predictors)
        return check_q(float(self.q))


@dataclass(frozen=True)
class BootstrapReport:
    """Selection ratios over bootstrap resamples of the dataset rows."""

    b: int
    failed: int
    predictor_ids: tuple[str, ...]
    ratios: tuple[float, ...]
    method: str
    q: float

    def to_dict(self) -> dict:
        return {
            "b": self.b,
            "failed": self.failed,
            "method": self.method,
            "q": self.q,
            "ratios": dict(zip(self.predictor_ids, self.ratios)),
        }


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


def ingest_long_csv(
    curves_path: str, responses_path: str, config: JobConfig
) -> tuple[list[list[CurveBlock]], np.ndarray, list[str], list[str]]:
    """Read curves and responses; returns (curves, y, sample_ids, predictor_ids).

    Samples and predictors are ordered by their (string) ids. Every sample
    must appear in both files and every (sample, predictor) pair must have
    enough distinct grid points for the configured basis. ``curves[m]`` lists
    predictor m's blocks: each run of consecutive samples observed on an
    identical grid forms one :class:`CurveBlock`, so a CSV on one regular
    grid gives one block per predictor.
    """
    points: dict[tuple[str, str], list[tuple[float, float]]] = {}
    seen: set[tuple[str, str, float]] = set()
    with open(curves_path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != [
            "sample_id",
            "predictor_id",
            "t",
            "value",
        ]:
            raise DataError(
                f"{curves_path} line 1: expected header 'sample_id,predictor_id,t,value'"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DataError(
                    f"{curves_path} line {lineno}: expected 4 fields, got {len(row)}"
                )
            sample, predictor = row[0].strip(), row[1].strip()
            t = _parse_float(row[2], curves_path, lineno, "t")
            value = _parse_float(row[3], curves_path, lineno, "value")
            key = (sample, predictor, t)
            if key in seen:
                raise DataError(
                    f"{curves_path} line {lineno}: duplicate point for sample "
                    f"'{sample}', predictor '{predictor}', t={t}"
                )
            seen.add(key)
            points.setdefault((sample, predictor), []).append((t, value))
    if not points:
        raise DataError(f"{curves_path}: no data rows")

    responses: dict[str, float] = {}
    with open(responses_path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["sample_id", "y"]:
            raise DataError(
                f"{responses_path} line 1: expected header 'sample_id,y'"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DataError(
                    f"{responses_path} line {lineno}: expected 2 fields, got {len(row)}"
                )
            sample = row[0].strip()
            if sample in responses:
                raise DataError(
                    f"{responses_path} line {lineno}: duplicate sample_id '{sample}'"
                )
            responses[sample] = _parse_float(row[1], responses_path, lineno, "y")

    sample_ids = sorted({sample for sample, _ in points})
    predictor_ids = sorted({predictor for _, predictor in points})
    missing = [s for s in sample_ids if s not in responses]
    if missing:
        raise DataError(
            f"{responses_path}: missing response for sample_id '{missing[0]}'"
        )
    extra = [s for s in responses if s not in set(sample_ids)]
    if extra:
        raise DataError(
            f"{responses_path}: sample_id '{extra[0]}' has no curves in {curves_path}"
        )

    curves: list[list[CurveBlock]] = []
    for predictor in predictor_ids:
        blocks: list[CurveBlock] = []
        grid, rows = None, []
        for sample in sample_ids:
            pts = points.get((sample, predictor))
            if pts is None:
                raise DataError(
                    f"{curves_path}: sample '{sample}' has no rows for predictor "
                    f"'{predictor}'"
                )
            pts.sort()
            t, values = np.array(pts).T
            if grid is None or not np.array_equal(t, grid):
                if rows:
                    blocks.append(CurveBlock(grid=grid, values=np.array(rows)))
                grid, rows = t, []
            rows.append(values)
        blocks.append(CurveBlock(grid=grid, values=np.array(rows)))
        curves.append(blocks)
    y = np.array([responses[s] for s in sample_ids])
    return curves, y, sample_ids, predictor_ids


def _bases_for(
    config: JobConfig,
    predictor_ids: list[str],
    curves: list[list[CurveBlock]],
) -> tuple[BasisSpec, ...]:
    bases = []
    for predictor, blocks in zip(predictor_ids, curves):
        degree = config.degree_overrides.get(predictor, config.degree)
        num_basis = config.basis_size_overrides.get(predictor, config.basis_size)
        domain = config.domain_overrides.get(predictor)
        if domain is None:
            lo = min(block.grid[0] for block in blocks)
            hi = max(block.grid[-1] for block in blocks)
        else:
            lo, hi = domain
        bases.append(make_uniform_basis(lo, hi, degree=degree, num_basis=num_basis))
    return tuple(bases)


def _selection_pipeline(config: JobConfig):
    curves, y, sample_ids, predictor_ids = ingest_long_csv(
        config.curves, config.responses, config
    )
    bases = _bases_for(config, predictor_ids, curves)
    design = build_design(build_dataset(curves, y, bases))
    return design, y, predictor_ids


def _print_selection_table(predictor_ids, tests, selected, method, q, stream=None):
    stream = stream or sys.stdout
    width = max(len("predictor"), max(len(p) for p in predictor_ids))
    print(f"method: {method}   q: {q:.6g}", file=stream)
    print(
        f"{'predictor':<{width}}  {'T_L':>12}  {'dof':>4}  {'p_value':>12}  selected",
        file=stream,
    )
    for pid, test in zip(predictor_ids, tests):
        flag = "yes" if test.predictor_index in selected else "no"
        print(
            f"{pid:<{width}}  {test.statistic:>12.4f}  {test.dof:>4d}  "
            f"{test.p_value:>12.4e}  {flag}",
            file=stream,
        )
    chosen = ", ".join(predictor_ids[m] for m in selected) or "(none)"
    print(f"selected set: {chosen}", file=stream)


def run_select(config: JobConfig):
    """Test every predictor, select, print the table, write the record."""
    design, y, predictor_ids = _selection_pipeline(config)
    tests = test_all(design, y)
    q = config.resolve_q(design.n, design.num_predictors)
    result = select(config.method, tests, q)
    _print_selection_table(predictor_ids, tests, result.selected, result.method, q)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as handle:
            for pid, test in zip(predictor_ids, tests):
                handle.write(
                    json.dumps(
                        {
                            "predictor": pid,
                            "statistic": test.statistic,
                            "dof": test.dof,
                            "p_value": test.p_value,
                            "selected": test.predictor_index in result.selected,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
            handle.write(
                json.dumps(
                    {
                        "method": result.method,
                        "q": q,
                        "selected": [predictor_ids[m] for m in result.selected],
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    return result


def run_bootstrap(config: JobConfig) -> BootstrapReport:
    """Selection ratios over B joint resamples of (curves, response) rows."""
    design, y, predictor_ids = _selection_pipeline(config)
    num_predictors = design.num_predictors
    rng = np.random.Generator(
        np.random.Philox(key=np.array([config.seed, 0], dtype=np.uint64))
    )
    q = config.resolve_q(design.n, num_predictors)
    counts = np.zeros(num_predictors)
    failed = 0
    for _ in range(config.bootstrap_b):
        idx = rng.integers(0, design.n, size=design.n)
        resampled = DesignMatrix(
            values=design.values[idx], block_offsets=design.block_offsets
        )
        try:
            tests = test_all(resampled, y[idx])
        except NumericalError:
            failed += 1
            continue
        for m in select(config.method, tests, q).selected:
            counts[m] += 1
    denom = max(config.bootstrap_b - failed, 1)
    report = BootstrapReport(
        b=config.bootstrap_b,
        failed=failed,
        predictor_ids=tuple(predictor_ids),
        ratios=tuple(counts / denom),
        method=config.method.lower(),
        q=q,
    )
    width = max(len("predictor"), max(len(p) for p in predictor_ids))
    print(
        f"bootstrap: B={report.b}  failed={report.failed}  "
        f"method={report.method}  q={q:.6g}"
    )
    print(f"{'predictor':<{width}}  ratio")
    for pid, ratio in zip(predictor_ids, report.ratios):
        print(f"{pid:<{width}}  {ratio:.3f}")
    if config.out:
        with open(config.out, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
    return report


def run_simulate(config: JobConfig):
    """Monte Carlo experiment with the synthetic-data generators."""
    scenario = SimScenario(c=config.c, n=config.n, seed=config.seed)
    q = config.resolve_q(config.n, 6)
    report = run_monte_carlo(
        scenario, config.method, q, config.reps, threads=config.threads
    )
    print(
        f"simulate: c={report.c}  n={report.n}  method={report.method}  "
        f"q={report.q:.6g}  reps={report.replications}  failed={report.failed}"
    )
    print(f"correct selections: {report.correct_count}/{report.replications}")
    print(f"amse: {report.amse:.6g}")
    freqs = "  ".join(f"{f:.2f}" for f in report.selection_frequencies)
    print(f"selection frequencies: {freqs}")
    if config.out:
        with open(config.out, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
    return report


class _Parser(argparse.ArgumentParser):
    # usage errors must exit with code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(
                        f"{path} line {lineno}: expected 'key = value', got {line!r}"
                    )
                key, _, value = line.partition("=")
                # the option name may use '-' or '_'; a predictor id after
                # the first '.' is kept as written
                name, dot, predictor = key.strip().partition(".")
                values[name.replace("-", "_") + dot + predictor] = value.strip()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    return values


def _build_config(args: argparse.Namespace) -> JobConfig:
    file_values = _read_config_file(args.config) if args.config else {}

    def pick(flag_value, key, cast, default):
        if flag_value is not None:
            return flag_value
        if key in file_values:
            return cast(file_values[key])
        return default

    seed_default = 0
    env_seed = os.environ.get("FUNCSEL_SEED")
    if env_seed is not None:
        try:
            seed_default = int(env_seed)
        except ValueError:
            raise ValueError(f"FUNCSEL_SEED is not an integer: {env_seed!r}") from None

    mode = pick(args.mode, "mode", str, None)
    if mode is None:
        raise ValueError("--mode is required (select, simulate, or bootstrap)")
    if mode not in ("select", "simulate", "bootstrap"):
        raise ValueError(f"unknown mode {mode!r}")

    config = JobConfig(
        mode=mode,
        curves=pick(args.curves, "curves", str, None),
        responses=pick(args.responses, "responses", str, None),
        method=pick(args.method, "method", str, "fdr"),
        q=pick(args.q, "q", str, "auto"),
        basis_size=pick(args.basis_size, "basis_size", int, 6),
        degree=pick(args.degree, "degree", int, 3),
        seed=pick(args.seed, "seed", int, seed_default),
        reps=pick(args.reps, "reps", int, 100),
        bootstrap_b=pick(args.bootstrap_b, "bootstrap_b", int, 100),
        threads=pick(args.threads, "threads", int, 1),
        out=pick(args.out, "out", str, None),
        c=pick(args.c, "c", float, 0.0),
        n=pick(args.n, "n", int, 300),
    )
    for key, value in file_values.items():
        if key.startswith("basis_size."):
            config.basis_size_overrides[key.split(".", 1)[1]] = int(value)
        elif key.startswith("degree."):
            config.degree_overrides[key.split(".", 1)[1]] = int(value)
        elif key.startswith("domain."):
            lo, _, hi = value.partition(":")
            config.domain_overrides[key.split(".", 1)[1]] = (float(lo), float(hi))
    if config.mode in ("select", "bootstrap"):
        if not config.curves or not config.responses:
            raise ValueError(f"mode '{config.mode}' requires --curves and --responses")
    check_method(config.method)
    for flag, value, low in (
        ("--threads", config.threads, 1),
        ("--reps", config.reps, 1),
        ("--bootstrap-b", config.bootstrap_b, 1),
        ("--degree", config.degree, 0),
        ("--basis-size", config.basis_size, config.degree + 1),
    ):
        if value < low:
            raise ValueError(f"{flag} must be >= {low}, got {value}")
    overridden = config.degree_overrides.keys() | config.basis_size_overrides.keys()
    for predictor in sorted(overridden):
        degree = config.degree_overrides.get(predictor, config.degree)
        num_basis = config.basis_size_overrides.get(predictor, config.basis_size)
        if degree < 0:
            raise ValueError(f"degree.{predictor} must be >= 0, got {degree}")
        if num_basis <= degree:
            raise ValueError(
                f"basis_size.{predictor} must be >= {degree + 1}, got {num_basis}"
            )
    for predictor, (lo, hi) in config.domain_overrides.items():
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(
                f"domain.{predictor} must be finite with lo < hi, got {lo}:{hi}"
            )
    if config.q != "auto":
        check_q(float(config.q))
    return config


def _make_parser() -> _Parser:
    parser = _Parser(
        prog="funcsel",
        description="Variable selection for scalar-on-function regression",
    )
    parser.add_argument("--mode", choices=("select", "simulate", "bootstrap"))
    parser.add_argument("--curves")
    parser.add_argument("--responses")
    parser.add_argument("--method", choices=("bc", "fdr"))
    parser.add_argument("--q", help="level in (0,1), or 'auto' for the rule of thumb")
    parser.add_argument("--basis-size", type=int, dest="basis_size")
    parser.add_argument("--degree", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--reps", type=int)
    parser.add_argument("--bootstrap-b", type=int, dest="bootstrap_b")
    parser.add_argument("--threads", type=int)
    parser.add_argument("--out")
    parser.add_argument("--config")
    parser.add_argument("--c", type=float, help="signal strength for simulate mode")
    parser.add_argument("--n", type=int, help="sample size for simulate mode")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _build_config(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if config.mode == "select":
            run_select(config)
        elif config.mode == "bootstrap":
            run_bootstrap(config)
        else:
            run_simulate(config)
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
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
