"""Least squares on the assembled design, with the one rank check of a design.

The fit takes one R-only QR decomposition of the augmented matrix [Z | y]:
its leading k x k block R_zz is the R factor of Z, its last column holds Q'y
in the first k rows and the residual norm in row k, so the coefficients are
R_zz^{-1} (Q'y) and RSS = R[k, k]^2 without forming Q or the fitted values.
R_zz has the singular values of Z, so the rank check reads them there. The
fit keeps V = (Z'Z)^{-1} = R_zz^{-1} R_zz^{-T}, whose diagonal blocks the
per-predictor tests need, so no test refits.

A bootstrap resample draws row i of the sample c_i times, so its fit is the
fit of the full sample with its rows weighted by the counts c. With one
reduced QR of the full sample, [Z | y] = Q R, the weighted cross products
are R' H R with H = Q' diag(c) Q, and :func:`fit_resamples` takes every
fit of a batch of resamples from k x k algebra on the H's. H is close to I
(the identity at c = 1), so this does not square the condition number of Z
the way the normal equations do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .design import DesignMatrix
from .errors import RANK_RTOL, SampleSizeError, check_rank

__all__ = [
    "FitResult",
    "ResampleFits",
    "SampleQR",
    "fit_ols",
    "fit_resamples",
    "sample_qr",
]

# largest bound on cond(H) at which fit_resamples trusts its algebra (the
# bound reads about 44 at H = I for k = 37)
COUNT_COND_MAX = 1e6


@dataclass(frozen=True, eq=False)
class FitResult:
    """Unrestricted least-squares fit.

    ``covariance`` is V = (Z'Z)^{-1}. ``sigma2_tilde`` is the
    maximum-likelihood variance estimate RSS/n.
    """

    coefficients: np.ndarray
    covariance: np.ndarray
    rss: float
    sigma2_tilde: float


def fit_ols(design: DesignMatrix, y: np.ndarray) -> FitResult:
    """Ordinary least squares from one QR of [Z | y].

    Raises :class:`SampleSizeError` unless n > k, and
    :class:`RankDeficiencyError` when the relative smallest singular value
    of the design falls below ``errors.RANK_RTOL`` (1e-10).
    """
    y = np.asarray(y, dtype=float)
    n, k = design.values.shape
    if y.shape != (n,):
        raise ValueError(f"response shape {y.shape} does not match design rows {n}")
    if n <= k:
        raise SampleSizeError(f"need n > k, got n={n}, k={k}")
    r = np.linalg.qr(np.column_stack([design.values, y]), mode="r")
    check_rank(np.linalg.svd(r[:k, :k], compute_uv=False), "design matrix")
    r_inv = scipy.linalg.solve_triangular(r[:k, :k], np.eye(k))
    rss = float(r[k, k] ** 2)
    return FitResult(
        coefficients=r_inv @ r[:k, k],
        covariance=r_inv @ r_inv.T,
        rss=rss,
        sigma2_tilde=rss / n,
    )


@dataclass(frozen=True, eq=False)
class SampleQR:
    """One reduced QR of the full sample, [Z | y] = Q R, kept for refits.

    ``q`` is the n x (k+1) factor Q. ``r_inv`` is the inverse of the design
    block R_zz; it is NaN when R_zz has an exactly zero pivot, which leaves
    every resample uncertified. ``row_norms2`` holds the squared norms of
    the design rows.
    """

    design: DesignMatrix
    y: np.ndarray
    q: np.ndarray
    r: np.ndarray
    r_inv: np.ndarray
    row_norms2: np.ndarray


@dataclass(frozen=True, eq=False)
class ResampleFits:
    """Least-squares fits of a batch of b resamples of the rows.

    ``covariance[j]`` is V = (Z_j' Z_j)^{-1} of resample j. ``certified[j]``
    is True when the count algebra of resample j is well conditioned and the
    resample provably passes the rank check of :func:`fit_ols`; the other
    rows may hold no meaningful fit.
    """

    coefficients: np.ndarray
    covariance: np.ndarray
    sigma2_tilde: np.ndarray
    certified: np.ndarray


def sample_qr(design: DesignMatrix, y: np.ndarray) -> SampleQR:
    """Factor the full sample once for :func:`fit_resamples`. Raises
    :class:`SampleSizeError` unless n > k, as :func:`fit_ols` does; then no
    resample, which has the same n and k, can be fitted either."""
    y = np.asarray(y, dtype=float)
    n, k = design.values.shape
    if n <= k:
        raise SampleSizeError(f"need n > k, got n={n}, k={k}")
    q, r = np.linalg.qr(np.column_stack([design.values, y]))
    try:
        r_inv = scipy.linalg.solve_triangular(r[:k, :k], np.eye(k))
    except np.linalg.LinAlgError:
        r_inv = np.full((k, k), np.nan)
    return SampleQR(
        design=design,
        y=y,
        q=q,
        r=r,
        r_inv=r_inv,
        row_norms2=np.einsum("ij,ij->i", design.values, design.values),
    )


def fit_resamples(qr: SampleQR, idx: np.ndarray) -> ResampleFits:
    """Fits of the resamples whose row indices are the rows of ``idx``.

    Resample j weights row i of the sample by its count c_i in ``idx[j]``,
    so its H = Q' diag(c) Q is Q[idx[j]]' Q[idx[j]]. With H partitioned as
    [[H_zz, h_zy], [h_zy', h_yy]] and W = H_zz^{-1}, the coefficients are
    R_zz^{-1} (r_zy + r_yy W h_zy), RSS is r_yy^2 times the Schur complement
    h_yy - h_zy' W h_zy, and V = R_zz^{-1} W R_zz^{-T}. The batch's
    temporaries are b x n x (k+1) floats. Raises ``LinAlgError`` when some
    H_zz is exactly singular.

    A resample is certified when two bounds hold. ||H||_F ||H^{-1}||_F
    bounds the condition number of the whole (k+1) x (k+1) H; below
    ``COUNT_COND_MAX`` it shows H positive definite and keeps W and the Schur
    complement, which cancels when a resample is fitted almost exactly, to
    about ten digits. (Not traces: the computed H of a rank-deficient
    resample can be indefinite, and so can have a small trace(H^{-1}).) And
    ||R_c||_F ||R_c^{-1}||_F, for the R factor R_c of the resample's design,
    bounds sigma_max/sigma_min from above; below 1/RANK_RTOL the resample
    passes the rank check of :func:`fit_ols`. The norms are at hand:
    ||H^{-1}||_F <= ||W||_F + (1 + |W h_zy|)^2 / schur from the block
    inverse of H, ||R_c||_F^2 = sum_i c_i ||z_i||^2 and ||R_c^{-1}||_F^2 =
    trace(V).
    """
    b, n = idx.shape
    k = qr.r_inv.shape[0]
    rows = qr.q[idx]
    h = rows.transpose(0, 2, 1) @ rows
    w = np.linalg.inv(h[:, :k, :k])
    h_zy = h[:, :k, k]
    w_h = (w @ h_zy[:, :, None])[:, :, 0]
    schur = h[:, k, k] - np.einsum("bi,bi->b", h_zy, w_h)
    r_zy, r_yy = qr.r[:k, k], qr.r[k, k]
    covariance = qr.r_inv @ w @ qr.r_inv.T
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        norm_h_inv = np.linalg.norm(w, axis=(1, 2)) + (
            1.0 + np.linalg.norm(w_h, axis=1)
        ) ** 2 / np.abs(schur)
        cond_bound = np.linalg.norm(h, axis=(1, 2)) * norm_h_inv
        rank_bound = qr.row_norms2[idx].sum(axis=1) * np.trace(
            covariance, axis1=1, axis2=2
        )
        certified = (
            (schur > 0) & (cond_bound < COUNT_COND_MAX) & (rank_bound < RANK_RTOL**-2)
        )
    return ResampleFits(
        coefficients=(r_zy + r_yy * w_h) @ qr.r_inv.T,
        covariance=covariance,
        sigma2_tilde=r_yy**2 * schur / n,
        certified=certified,
    )
