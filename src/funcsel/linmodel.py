"""Least squares on the assembled design, and noncentrality of the tests.

The full fit uses one QR decomposition Z = QR and keeps R^{-1}, so that
every block of V = (Z'Z)^{-1} = R^{-1} R^{-T}, which the per-predictor tests
need, follows without refitting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .design import DesignMatrix
from .errors import NumericalError

__all__ = ["FitResult", "fit_ols", "noncentrality"]


@dataclass(frozen=True, eq=False)
class FitResult:
    """Unrestricted least-squares fit.

    ``sigma2_tilde`` is the maximum-likelihood variance estimate RSS/n.
    ``r_inv`` is the inverse of the upper-triangular QR factor of the design.
    """

    coefficients: np.ndarray
    r_inv: np.ndarray
    rss: float
    sigma2_tilde: float
    fitted: np.ndarray
    n: int
    k: int
    block_offsets: tuple[int, ...]

    @property
    def intercept(self) -> float:
        return float(self.coefficients[0])

    def block(self, m: int) -> np.ndarray:
        """Coefficient block of predictor m (0-based)."""
        return self.coefficients[self.block_offsets[m] : self.block_offsets[m + 1]]


def fit_ols(design: DesignMatrix, y: np.ndarray) -> FitResult:
    """Ordinary least squares via QR."""
    y = np.asarray(y, dtype=float)
    n, k = design.values.shape
    if y.shape != (n,):
        raise ValueError(f"response shape {y.shape} does not match design rows {n}")
    if n <= k:
        raise NumericalError(f"need n > k, got n={n}, k={k}")
    q, r = np.linalg.qr(design.values)
    diag = np.abs(np.diag(r))
    if diag.min() <= 1e-12 * max(diag.max(), 1.0):
        raise NumericalError("design matrix is rank deficient; cannot fit")
    r_inv = scipy.linalg.solve_triangular(r, np.eye(k))
    coef = r_inv @ (q.T @ y)
    fitted = design.values @ coef
    resid = y - fitted
    rss = float(resid @ resid)
    return FitResult(
        coefficients=coef,
        r_inv=r_inv,
        rss=rss,
        sigma2_tilde=rss / n,
        fitted=fitted,
        n=n,
        k=k,
        block_offsets=design.block_offsets,
    )


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
    sl = design.block_slice(r)
    keep = np.ones(design.k, dtype=bool)
    keep[sl] = False
    z0 = z[:, keep]
    coef0, *_ = np.linalg.lstsq(z0, mu, rcond=None)
    resid = mu - z0 @ coef0
    return float(resid @ resid) / sigma2
