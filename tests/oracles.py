"""Independent reference implementations of the restricted fit.

The package computes each likelihood-ratio statistic from the full fit alone
(the Wald form of RSS0 - RSS). These oracles compute the same quantities the
long way, so the tests can check the package against them:

- ``fit_restricted``: the explicit constrained estimator
  b0 = b - (Z'Z)^{-1} A' (A (Z'Z)^{-1} A')^{-1} A b, where A selects one block;
- ``projection_matrices``: explicit projections onto the full and the
  restricted column spaces, O(n^2) memory, for small instances only.

``noncentrality`` is the noncentrality of a test under a known truth, from
an ``lstsq`` projection onto the restricted column space.

``selected_by_loop`` is the per-row reference of the selection rules, the
sort-and-scan loop they were first written as.

``bootstrap_loop`` is the per-resample reference of the bootstrap: one
explicit fit, test and selection per resample, drawn one at a time.

``ingest_reference`` is the reference reader of the CSV files: one
``csv.reader`` row, two ``float`` conversions and one set lookup per line.

``smooth_lstsq`` is the reference for the smoothing layer: one curve at a
time, scipy's B-spline design matrix and ``lstsq``, sharing no code with the
package's block smoother. ``smooth_rows_lstsq`` applies it to every row of
a block of per-row grids.

``uniform_knots_reference`` is the clamped uniform knot vector as it was
first built, from the domain, degree and size, which the package's basis
derives and must match bit for bit. ``evaluate_basis_matrix_reference`` is
the Cox-de Boor evaluation as it was written before it ran in place, on
fresh (degree+1, n) index and value arrays, which the package's basis must
match bit for bit.

``evaluate_basis``, ``chisq_cdf`` and ``noncentral_chisq_cdf`` are scalar
conveniences the tests call: the basis at one point, and scipy's central
and noncentral chi-square CDFs with their arguments checked. ``block_slice``
and ``block_size`` read one predictor's columns off a design's offsets.

``monte_carlo_loop`` is the serial reference of ``run_monte_carlo``: each
replication's training set and then its test set from
``generate_replication`` on fresh arrays, drawn as they are needed, and
each rule's selection, refit and sums taken one rule at a time.

``generate_replication_reference`` is the synthetic-data generator as it
was first written, with ``curve_values_reference``: each predictor's curves
evaluated from the full formula on fresh arrays at every call. The package's
generator fills the same values in place from a cached per-scenario plan
and must give the same bits.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline
from scipy.special import chdtr, chndtr

from funcsel import (
    BasisSpec,
    CurveBlock,
    DataError,
    NumericalError,
    evaluate_basis_matrix,
    fit_ols,
    make_uniform_basis,
)
from funcsel.design import DesignMatrix
from funcsel.errors import quoted_id, quoted_text
from funcsel.inference import test_all as run_test_all
from funcsel.linmodel import FitResult
from funcsel import simgen
from funcsel.seeds import rng_for
from funcsel.simgen import (
    DOMAINS,
    NUM_PREDICTORS,
    MonteCarloReport,
    SimScenario,
    SimTruth,
    coefficient_functions,
    true_index_set,
    _QUAD_ORDER,
    _draw_curve_params,
    _quad_rule,
)
from funcsel.smoothing import CurveBlock


def block_slice(design: DesignMatrix, r: int) -> slice:
    """Column slice of predictor r's coefficient block (0-based)."""
    return slice(design.block_offsets[r], design.block_offsets[r + 1])


def block_size(design: DesignMatrix, r: int) -> int:
    """Basis size, and so test dof, of predictor r (0-based)."""
    return design.block_offsets[r + 1] - design.block_offsets[r]


@dataclass(frozen=True, eq=False)
class RestrictedFit:
    """Least-squares fit with one predictor's block constrained to zero."""

    tested_index: int
    coefficients_0: np.ndarray
    rss0: float


def fit_restricted(
    design: DesignMatrix, y: np.ndarray, full: FitResult, r: int
) -> RestrictedFit:
    """Constrained fit with predictor r's coefficient block forced to zero."""
    if not 0 <= r < design.num_predictors:
        raise ValueError(f"predictor index {r} out of range 0..{design.num_predictors - 1}")
    y = np.asarray(y, dtype=float)
    z = design.values
    sl = block_slice(design, r)
    gram = z.T @ z
    # columns of (Z'Z)^{-1} selected by A', i.e. those of block r
    rhs = np.zeros((design.k, sl.stop - sl.start))
    rhs[sl] = np.eye(sl.stop - sl.start)
    try:
        ginv_cols = np.linalg.solve(gram, rhs)
        middle = ginv_cols[sl]
        correction = ginv_cols @ np.linalg.solve(middle, full.coefficients[sl])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"singular constrained system while testing predictor {r}: {exc}"
        ) from exc
    coef0 = full.coefficients - correction
    coef0[sl] = 0.0
    resid0 = y - z @ coef0
    rss0 = float(resid0 @ resid0)
    return RestrictedFit(tested_index=r, coefficients_0=coef0, rss0=rss0)


def _column_basis(matrix: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(matrix)
    return q


def projection_matrices(design: DesignMatrix, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Explicit projections onto the full and the restricted column spaces.

    O(n^2) memory; intended for validation on small instances only.
    """
    z = design.values
    sl = block_slice(design, r)
    keep = np.ones(design.k, dtype=bool)
    keep[sl] = False
    q_full = _column_basis(z)
    q_restr = _column_basis(z[:, keep])
    return q_full @ q_full.T, q_restr @ q_restr.T


def projection_rss_identity_check(
    design: DesignMatrix, y: np.ndarray, r: int
) -> tuple[float, float]:
    """(RSS0 - RSS, y'(P - P0)y) computed independently; test helper."""
    y = np.asarray(y, dtype=float)
    full = fit_ols(design, y)
    restricted = fit_restricted(design, y, full, r)
    p_full, p_restr = projection_matrices(design, r)
    quad = float(y @ ((p_full - p_restr) @ y))
    return restricted.rss0 - design.n * full.sigma2_tilde, quad


def column_deletion_rss(design: DesignMatrix, y: np.ndarray, r: int) -> float:
    """RSS of the least-squares refit with predictor r's columns deleted."""
    keep = np.ones(design.k, dtype=bool)
    keep[block_slice(design, r)] = False
    coef, *_ = np.linalg.lstsq(design.values[:, keep], y, rcond=None)
    resid = y - design.values[:, keep] @ coef
    return float(resid @ resid)


def noncentrality(
    design: DesignMatrix, b: np.ndarray, sigma2: float, r: int
) -> float:
    """Noncentrality b'Z'(P - P0)Zb / sigma2 for the test of predictor r.

    Computed as the squared residual of projecting Zb onto the restricted
    column space, which avoids forming the projection matrices.
    """
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    z = design.values
    mu = z @ np.asarray(b, dtype=float)
    sl = block_slice(design, r)
    keep = np.ones(design.k, dtype=bool)
    keep[sl] = False
    z0 = z[:, keep]
    coef0, *_ = np.linalg.lstsq(z0, mu, rcond=None)
    resid = mu - z0 @ coef0
    return float(resid @ resid) / sigma2


def smooth_lstsq(grid: np.ndarray, values: np.ndarray, spec: BasisSpec) -> np.ndarray:
    """Least-squares basis coefficients of one curve."""
    basis = BSpline.design_matrix(grid, spec.knot_array, spec.degree).toarray()
    coef, *_ = np.linalg.lstsq(basis, values, rcond=None)
    return coef


def smooth_rows_lstsq(grids: np.ndarray, values: np.ndarray, spec: BasisSpec) -> np.ndarray:
    """Least-squares basis coefficients of each row of a block of per-row
    grids, one ``smooth_lstsq`` per row, shape (r, num_basis)."""
    return np.array([smooth_lstsq(grid, row, spec) for grid, row in zip(grids, values)])


def bootstrap_loop(
    design: DesignMatrix, y: np.ndarray, method: str, q: float, b: int, seed: int
) -> tuple[np.ndarray, int]:
    """Selection counts per predictor over b resamples, and the number of
    resamples whose fit failed, with one explicit fit per resample."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    counts = np.zeros(design.num_predictors)
    failed = 0
    for _ in range(b):
        idx = rng.integers(0, design.n, size=design.n)
        resampled = DesignMatrix(
            values=design.values[idx], block_offsets=design.block_offsets
        )
        try:
            _, p_values = run_test_all(resampled, y[idx])
        except NumericalError:
            failed += 1
            continue
        for m in selected_by_loop(method, list(p_values), q):
            counts[m] += 1
    return counts, failed


def selected_by_loop(method: str, p_values, q: float) -> set[int]:
    """Indices that Bonferroni ('bc') or the harmonic step-up rule ('fdr')
    selects from one list of p-values, ties broken by index."""
    m = len(p_values)
    if method == "bc":
        return {i for i, p in enumerate(p_values) if p <= q / m}
    harmonic = sum(1.0 / l for l in range(1, m + 1))
    order = sorted(range(m), key=lambda i: (p_values[i], i))
    for j in range(m, 0, -1):
        if p_values[order[j - 1]] <= (j / m) * (q / harmonic):
            return set(order[:j])
    return set()


def _reference_float(text: str, path: str, line: int, field_name: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"{path} line {line}: field '{field_name}' is not numeric: {quoted_text(text)}"
        ) from None
    if not math.isfinite(value):
        raise DataError(
            f"{path} line {line}: field '{field_name}' is not finite: {quoted_text(text)}"
        )
    return value


def _reference_reader(handle, path: str, header: list[str]):
    """A CSV reader of ``handle`` past its first line, which must be ``header``."""
    reader = csv.reader(handle)
    first = next(reader, None)
    if first is None or [h.strip() for h in first] != header:
        raise DataError(f"{path} line 1: expected header '{','.join(header)}'")
    return reader


def ingest_reference(
    curves_path: str, responses_path: str
) -> tuple[list[list[CurveBlock]], np.ndarray, list[str], list[str]]:
    """``funcsel.cli.ingest_long_csv`` as it was first written, one row at a
    time: (curves, y, sample_ids, predictor_ids), where each run of
    consecutive samples on an identical grid forms one block."""
    points: dict[tuple[str, str], list[tuple[float, float]]] = {}
    seen: set[tuple[str, str, float]] = set()
    with open(curves_path, newline="", encoding="utf-8") as handle:
        header = ["sample_id", "predictor_id", "t", "value"]
        reader = _reference_reader(handle, curves_path, header)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DataError(
                    f"{curves_path} line {lineno}: expected 4 fields, got {len(row)}"
                )
            sample, predictor = row[0].strip(), row[1].strip()
            t = _reference_float(row[2], curves_path, lineno, "t")
            value = _reference_float(row[3], curves_path, lineno, "value")
            key = (sample, predictor, t)
            if key in seen:
                raise DataError(
                    f"{curves_path} line {lineno}: duplicate point for sample "
                    f"{quoted_id(sample)}, predictor {quoted_id(predictor)}, t={t}"
                )
            seen.add(key)
            points.setdefault((sample, predictor), []).append((t, value))
    if not points:
        raise DataError(f"{curves_path}: no data rows")

    responses: dict[str, float] = {}
    with open(responses_path, newline="", encoding="utf-8") as handle:
        reader = _reference_reader(handle, responses_path, ["sample_id", "y"])
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
                    f"{responses_path} line {lineno}: duplicate sample_id {quoted_id(sample)}"
                )
            responses[sample] = _reference_float(row[1], responses_path, lineno, "y")

    sample_ids = sorted({sample for sample, _ in points})
    predictor_ids = sorted({predictor for _, predictor in points})
    missing = [s for s in sample_ids if s not in responses]
    if missing:
        raise DataError(
            f"{responses_path}: missing response for sample_id {quoted_id(missing[0])}"
        )
    extra = [s for s in responses if s not in set(sample_ids)]
    if extra:
        raise DataError(
            f"{responses_path}: sample_id {quoted_id(extra[0])} has no curves in {curves_path}"
        )

    curves: list[list[CurveBlock]] = []
    for predictor in predictor_ids:
        blocks: list[CurveBlock] = []
        grid, rows = None, []
        for sample in sample_ids:
            pts = points.get((sample, predictor))
            if pts is None:
                raise DataError(
                    f"{curves_path}: sample {quoted_id(sample)} has no rows for predictor "
                    f"{quoted_id(predictor)}"
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


def uniform_knots_reference(
    domain_lo: float, domain_hi: float, degree: int, num_basis: int
) -> tuple[float, ...]:
    """The clamped uniform knot vector as ``make_uniform_basis`` first built
    it: ``degree + 1`` copies of each end around ``num_basis - degree - 1``
    equally spaced interior knots."""
    n_interior = num_basis - degree - 1
    interior = np.linspace(domain_lo, domain_hi, n_interior + 2)[1:-1]
    return (
        (float(domain_lo),) * (degree + 1)
        + tuple(float(t) for t in interior)
        + (float(domain_hi),) * (degree + 1)
    )


def evaluate_basis_matrix_reference(spec: BasisSpec, ts: np.ndarray) -> np.ndarray:
    """The basis at ``ts``, shape (len(ts), num_basis), by the triangular
    Cox-de Boor recurrence as ``evaluate_basis_matrix`` first ran it: the
    knots gathered through (degree+1, n) index arrays and each level of the
    triangle formed from fresh slices. ``ts`` must lie in the domain."""
    ts = np.asarray(ts, dtype=float).ravel()
    degree = spec.degree
    kn = spec.knot_array
    spans = np.searchsorted(kn, ts, side="right") - 1
    np.clip(spans, degree, spec.num_basis - 1, out=spans)
    steps = np.arange(degree + 1)[:, None]
    left = ts - kn[spans + 1 - steps]
    right = kn[spans + steps] - ts
    values = np.empty((degree + 1, ts.size))
    values[0] = 1.0
    for j in range(1, degree + 1):
        tmp = values[:j] / (right[1 : j + 1] + left[j:0:-1])
        up = right[1 : j + 1] * tmp
        down = left[j:0:-1] * tmp
        values[j] = down[j - 1]
        values[1:j] = down[: j - 1] + up[1:j]
        values[0] = up[0]
    out = np.zeros(ts.size * spec.num_basis)
    first = np.arange(0, out.size, spec.num_basis) + spans - degree
    for r in range(degree + 1):
        out[first + r] = values[r]
    return out.reshape(ts.size, spec.num_basis)


def evaluate_basis(spec: BasisSpec, t: float) -> np.ndarray:
    """All ``num_basis`` basis values at t; nonnegative and summing to 1."""
    return evaluate_basis_matrix(spec, np.array([t], dtype=float))[0]


def chisq_cdf(x: float, dof: int) -> float:
    """CDF of the central chi-square distribution with ``dof`` degrees of freedom."""
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    return float(chdtr(dof, x))


def noncentral_chisq_cdf(x: float, dof: int, delta: float) -> float:
    """CDF of the noncentral chi-square with noncentrality ``delta``."""
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    return float(chndtr(x, dof, delta))


def curve_values_reference(
    params: dict[str, np.ndarray], m: int, t: np.ndarray
) -> np.ndarray:
    """True curves of predictor m for all samples, shape (n, len(t))."""
    t = np.asarray(t, dtype=float)[None, :]
    p = {key: val[:, None] for key, val in params.items()}
    if m == 0:
        return np.cos(2.0 * np.pi * (t - p["a1"])) + p["a2"]
    if m == 1:
        return p["b1"] * np.sin(np.pi * t) + p["b2"]
    if m == 2:
        return p["c1"] * t**3 + p["c2"] * t**2 + p["c3"] * t
    if m == 3:
        return np.sin(2.0 * (t - p["d1"])) + p["d2"] * t
    if m == 4:
        return p["e1"] * np.cos(2.0 * t) + p["e2"] * t
    if m == 5:
        return p["f1"] * np.exp(-t / 3.0) + p["f2"] * t + p["f3"]
    raise ValueError(f"predictor index {m} out of range")


def generate_replication_reference(
    scenario: SimScenario, rep_index: int
) -> tuple[tuple[tuple[CurveBlock], ...], np.ndarray, SimTruth]:
    """One synthetic dataset: noisy gridded curves, responses, and the truth.
    Reads the grid size and the noise multipliers from ``funcsel.simgen`` at
    each call, as the package's generator does."""
    rng = rng_for(scenario.seed, rep_index)
    n = scenario.n
    params = _draw_curve_params(rng, n)
    betas = coefficient_functions(scenario.c)

    grids = [np.linspace(lo, hi, simgen.GRID_SIZE) for lo, hi in DOMAINS]
    curves = []
    integrals = np.zeros(n)
    for m in range(NUM_PREDICTORS):
        true_on_grid = curve_values_reference(params, m, grids[m])
        signal_range = float(true_on_grid.max() - true_on_grid.min())
        noisy = true_on_grid + rng.normal(
            0.0, simgen.NOISE_X_MULT * signal_range, size=true_on_grid.shape
        )
        curves.append((CurveBlock(grid=grids[m], values=noisy),))
        nodes, weights = _quad_rule(*DOMAINS[m], _QUAD_ORDER)
        integrals += curve_values_reference(params, m, nodes) @ (
            weights * betas[m](nodes)
        )

    response_range = float(integrals.max() - integrals.min())
    responses = integrals + rng.normal(
        0.0, simgen.NOISE_Y_MULT * response_range, size=n
    )

    truth = SimTruth(true_indices=true_index_set(scenario.c))
    return tuple(curves), responses, truth


def monte_carlo_loop(
    scenario: SimScenario, rules: list[tuple[str, float]], replications: int
) -> tuple[MonteCarloReport, ...]:
    """The reports of ``run_monte_carlo`` from a serial loop over the
    replications. Smoothing, design and tests go through the names that
    ``funcsel.simgen`` calls them by, so a test that monkeypatches one of
    them reaches both; a replication that raises ``NumericalError`` or
    ``DataError`` is counted as failed, and its test set, if not yet drawn,
    is never drawn."""
    bases = tuple(make_uniform_basis(lo, hi, degree=3, num_basis=6) for lo, hi in DOMAINS)
    outcomes = []
    for rep in range(replications):
        try:
            curves, y, truth = simgen.generate_replication(scenario, rep)
            design = simgen.build_design(simgen.build_dataset(curves, y, bases))
            p_values = simgen.test_all(design, y)[1]
            curves, y_test, _ = simgen.generate_replication(scenario, rep + 2**32)
            design_test = simgen.build_design(simgen.build_dataset(curves, y_test, bases))
        except (NumericalError, DataError):
            continue
        per_rule = []
        for method, q in rules:
            selected = selected_by_loop(method, list(p_values), q)
            offsets = design.block_offsets
            columns = [0] + [
                column for r in sorted(selected) for column in range(offsets[r], offsets[r + 1])
            ]
            coef, *_ = np.linalg.lstsq(design.values[:, columns], y, rcond=None)
            predicted = design_test.values[:, columns] @ coef
            mse = float(np.mean((y_test - predicted) ** 2))
            per_rule.append((selected == truth.true_indices, selected, mse))
        outcomes.append(per_rule)
    succeeded = len(outcomes)
    denom = max(succeeded, 1)
    reports = []
    for r, (method, q) in enumerate(rules):
        counts = np.zeros(NUM_PREDICTORS)
        mse_sum = 0.0
        for _, selected, mse in (per_rule[r] for per_rule in outcomes):
            counts[sorted(selected)] += 1
            mse_sum += mse
        reports.append(
            MonteCarloReport(
                method=method,
                q=q,
                c=scenario.c,
                n=scenario.n,
                seed=scenario.seed,
                replications=replications,
                failed=replications - succeeded,
                correct_count=sum(per_rule[r][0] for per_rule in outcomes),
                amse=mse_sum / denom,
                selection_frequencies=tuple(counts / denom),
            )
        )
    return tuple(reports)
