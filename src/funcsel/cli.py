"""Command-line front end: the ``select``, ``simulate`` and ``bootstrap`` jobs.

Every option is declared once, as a field of :class:`JobConfig`: the field
name gives the flag and the config-file key, the default gives the default
and the flag's type, and ``JobConfig.__post_init__`` is the one range check.
A value comes from its flag, else from the optional flat ``key = value``
config file, else from the default; no environment variable is read. The
seed's range is the rule of :mod:`funcsel.seeds`. Config lines go through
the same argparse conversions and choices as flags, and an unknown key is
rejected. A usage error prints the usage line and the reason.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical error,
141 standard output closed by its reader (128 + SIGPIPE, as a shell reports
a tool that SIGPIPE ended).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .bspline import BasisSpec, make_uniform_basis
from .bootstrap import bootstrap_counts
from .design import build_design
from .errors import DataError, NumericalError, RankDeficiencyError, quoted_id
from .inference import test_all
from .ingest import ingest_long_csv
from .selection import check_method, check_q, default_q, selection_mask
from .simgen import NUM_PREDICTORS, SimScenario, run_monte_carlo
from .smoothing import CurveBlock, build_dataset, check_sample_size

__all__ = [
    "JobConfig",
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
EXIT_BROKEN_PIPE = 141

# config keys "<name>.<predictor id>" that override one predictor's basis
_OVERRIDES = ("basis_size", "degree", "domain")


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
        SimScenario(c=self.c, n=self.n, seed=self.seed)  # the rules of --n, --c, --seed
        for predictor, (lo, hi) in self.domain_overrides.items():
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(
                    f"domain.{predictor} must be finite with lo < hi, got {lo}:{hi}"
                )
        if self.q != "auto":
            try:
                q = float(self.q)
            except ValueError:
                raise ValueError(
                    f"--q must be a number in (0, 1) or 'auto', got {self.q!r}"
                ) from None
            check_q(q)

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


def _bases_for(
    config: JobConfig,
    predictor_ids: list[str],
    curves: list[list[CurveBlock]],
    n: int,
) -> tuple[BasisSpec, ...]:
    """One basis per predictor, from the flags and the config overrides; an
    override for a predictor absent from the curves file is a usage error.
    The parameter count is checked against n before any basis is built, so
    that an impossible basis size fails before its knots take memory."""
    for name in _OVERRIDES:
        for predictor in getattr(config, f"{name}_overrides"):
            if predictor not in predictor_ids:
                raise ValueError(
                    f"config key {quoted_id(name + '.' + predictor)}: no predictor "
                    f"{quoted_id(predictor)} in {config.curves}"
                )
    domains = []
    for predictor, blocks in zip(predictor_ids, curves):
        domain = config.domain_overrides.get(predictor)
        if domain is None:
            lo = min(block.grid[..., 0].min() for block in blocks)
            hi = max(block.grid[..., -1].max() for block in blocks)
            if not lo < hi:
                raise DataError(
                    f"{config.curves}: every point of predictor {quoted_id(predictor)} "
                    f"has t = {lo}; a basis needs a range of t"
                )
            domain = (lo, hi)
        domains.append(domain)
    shapes = [config.basis_of(predictor) for predictor in predictor_ids]
    check_sample_size(n, [num_basis for _, num_basis in shapes])
    return tuple(
        make_uniform_basis(lo, hi, degree=degree, num_basis=num_basis)
        for (lo, hi), (degree, num_basis) in zip(domains, shapes)
    )


def _selection_pipeline(config: JobConfig):
    curves, y, sample_ids, predictor_ids = ingest_long_csv(
        config.curves, config.responses
    )
    bases = _bases_for(config, predictor_ids, curves, y.size)
    try:
        dataset = build_dataset(curves, y, bases)
    except (DataError, RankDeficiencyError) as exc:
        # the library names the curve by its positions; name the file and ids
        i, m, last = exc.curve
        where = f"sample {quoted_id(sample_ids[i])}, predictor {quoted_id(predictor_ids[m])}"
        if last is not None:
            where += (
                f" (grid shared by samples {quoted_id(sample_ids[i])}-"
                f"{quoted_id(sample_ids[last])})"
            )
        raise type(exc)(f"{config.curves}: {where}: {exc.__cause__}") from exc
    return build_design(dataset), y, predictor_ids


def _check_out(path: str | None) -> None:
    """Reject, before any work, an ``--out`` path that no report could be
    written to; the file itself is opened only to write the report."""
    if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
        raise DataError(f"--out {path}: not a file in an existing directory")


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
        with open(path, encoding="utf-8-sig") as handle:
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
                try:
                    lo, hi = map(float, value.split(":"))
                except ValueError:
                    raise ValueError(
                        f"domain.{predictor} must be 'lo:hi', two numbers around"
                        f" a colon, got {value!r}"
                    ) from None
                overrides["domain_overrides"][predictor] = (lo, hi)
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
    try:
        _check_out(config.out)
        run[config.mode](config)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
    except BrokenPipeError:
        # the reader has gone, as in `funcsel ... | head -1`: stdout's
        # descriptor now leads to os.devnull, so the flush at exit writes
        # what is left in its buffer there and not into the closed pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
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
