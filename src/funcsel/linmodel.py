"""Least squares on the assembled design, with the one rank check of a design.

The fit takes one R-only QR decomposition of the augmented matrix [Z | y]:
its leading k x k block R_zz is the R factor of Z, its last column holds Q'y
in the first k rows and the residual norm in row k, so the coefficients are
R_zz^{-1} (Q'y) and RSS = R[k, k]^2 without forming Q or the fitted values.
R_zz has the singular values of Z, so the rank check reads them there. The
fit keeps R_zz^{-1} and Q'y, from which the per-predictor tests read each
block's likelihood-ratio statistic, so no test refits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import DesignMatrix
from .errors import DataError, check_rank
from .smoothing import check_sample_size

__all__ = ["FitResult", "fit_ols"]


@dataclass(frozen=True, eq=False)
class FitResult:
    """Unrestricted least-squares fit.

    ``r_inv`` is R_zz^{-1}, the inverse of the R factor of the design, and
    ``qty`` is Q'y, so the coefficients are ``r_inv @ qty``.
    ``sigma2_tilde`` is the maximum-likelihood variance estimate RSS/n.
    """

    coefficients: np.ndarray
    r_inv: np.ndarray
    qty: np.ndarray
    sigma2_tilde: float


def _checked_response(design: DesignMatrix, y: np.ndarray) -> np.ndarray:
    """``y`` as floats, with one finite value per design row; n > k or
    SampleSizeError."""
    y = np.asarray(y, dtype=float)
    n = design.n
    if y.shape != (n,):
        raise ValueError(f"response shape {y.shape} does not match design rows {n}")
    if not np.isfinite(y).all():
        row = int(np.argmin(np.isfinite(y)))
        raise DataError(f"response at row {row} is not finite: {y[row]}")
    check_sample_size(n, np.diff(design.block_offsets).tolist())
    return y


def fit_ols(design: DesignMatrix, y: np.ndarray) -> FitResult:
    """Ordinary least squares from one QR of [Z | y].

    Raises :class:`DataError` for a non-finite response,
    :class:`SampleSizeError` unless n > k, and :class:`RankDeficiencyError`
    when the relative smallest singular value of the design falls below
    ``errors.RANK_RTOL`` (1e-10).
    """
    y = _checked_response(design, y)
    n, k = design.values.shape
    r = np.linalg.qr(np.column_stack([design.values, y]), mode="r")
    check_rank(np.linalg.svd(r[:k, :k], compute_uv=False), "design matrix")
    r_inv = np.asfortranarray(np.linalg.inv(r[:k, :k]))
    return FitResult(
        coefficients=r_inv @ r[:k, k],
        r_inv=r_inv,
        qty=r[:k, k],
        sigma2_tilde=float(r[k, k] ** 2) / n,
    )
