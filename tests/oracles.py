"""Independent reference implementations of the restricted fit.

The package computes each likelihood-ratio statistic from the full fit alone
(the Wald form of RSS0 - RSS). These oracles compute the same quantities the
long way, so the tests can check the package against them:

- ``fit_restricted``: the explicit constrained estimator
  b0 = b - (Z'Z)^{-1} A' (A (Z'Z)^{-1} A')^{-1} A b, where A selects one block;
- ``projection_matrices``: explicit projections onto the full and the
  restricted column spaces, O(n^2) memory, for small instances only.

``smooth_lstsq`` is the reference for the smoothing layer: one curve at a
time, scipy's B-spline design matrix and ``lstsq``, sharing no code with the
package's block smoother.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline

from funcsel import BasisSpec, NumericalError, fit_ols
from funcsel.design import DesignMatrix
from funcsel.linmodel import FitResult


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
    sl = design.block_slice(r)
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
    sl = design.block_slice(r)
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
    return restricted.rss0 - full.rss, quad


def column_deletion_rss(design: DesignMatrix, y: np.ndarray, r: int) -> float:
    """RSS of the least-squares refit with predictor r's columns deleted."""
    keep = np.ones(design.k, dtype=bool)
    keep[design.block_slice(r)] = False
    coef, *_ = np.linalg.lstsq(design.values[:, keep], y, rcond=None)
    resid = y - design.values[:, keep] @ coef
    return float(resid @ resid)


def smooth_lstsq(grid: np.ndarray, values: np.ndarray, spec: BasisSpec) -> np.ndarray:
    """Least-squares basis coefficients of one curve."""
    basis = BSpline.design_matrix(grid, spec.knot_array, spec.degree).toarray()
    coef, *_ = np.linalg.lstsq(basis, values, rcond=None)
    return coef
