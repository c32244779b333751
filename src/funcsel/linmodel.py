"""Least squares on the assembled design, with the one rank check of a design.

The fit takes one R-only QR decomposition of the augmented matrix [Z | y]:
its leading k x k block R_zz is the R factor of Z, its last column holds Q'y
in the first k rows and the residual norm in row k, so the coefficients are
R_zz^{-1} (Q'y) and RSS = R[k, k]^2 without forming Q or the fitted values.
R_zz has the singular values of Z, so the rank check reads them there. The
inverse R_zz^{-1} is kept, so that every block of V = (Z'Z)^{-1} =
R^{-1} R^{-T}, which the per-predictor tests need, follows without refitting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .design import DesignMatrix
from .errors import NumericalError, check_rank

__all__ = ["FitResult", "fit_ols"]


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
    """Ordinary least squares from one QR of [Z | y].

    Raises :class:`RankDeficiencyError` when the relative smallest singular
    value of the design falls below ``errors.RANK_RTOL`` (1e-10).
    """
    y = np.asarray(y, dtype=float)
    n, k = design.values.shape
    if y.shape != (n,):
        raise ValueError(f"response shape {y.shape} does not match design rows {n}")
    if n <= k:
        raise NumericalError(f"need n > k, got n={n}, k={k}")
    r = np.linalg.qr(np.column_stack([design.values, y]), mode="r")
    check_rank(np.linalg.svd(r[:k, :k], compute_uv=False), "design matrix")
    r_inv = scipy.linalg.solve_triangular(r[:k, :k], np.eye(k))
    rss = float(r[k, k] ** 2)
    return FitResult(
        coefficients=r_inv @ r[:k, k],
        r_inv=r_inv,
        rss=rss,
        sigma2_tilde=rss / n,
        n=n,
        k=k,
        block_offsets=design.block_offsets,
    )
