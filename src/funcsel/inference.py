"""Likelihood-ratio tests per predictor and their chi-square reference.

The statistic for predictor r is (RSS0 - RSS) / sigma2_tilde with
sigma2_tilde = RSS/n from the full fit, referred to a central chi-square
with p_r degrees of freedom. RSS0 - RSS, the cost of zeroing block r, equals
the Wald form b_r' (V_rr)^{-1} b_r with V = (Z'Z)^{-1}, so every test is read
off the one full fit without refitting; :func:`wald_statistic` and
:func:`p_value` are that form and its reference, for one fit or for a batch.
:func:`test_resamples` applies them to a batch of bootstrap resamples fitted
together by :func:`~funcsel.linmodel.fit_resamples`. The central and noncentral
CDFs are scipy's ``chdtr`` and ``chndtr``; the noncentral one serves to
validate the alternative-hypothesis distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtr, chdtrc, chndtr

from .design import DesignMatrix
from .errors import NumericalError
from .linmodel import FitResult, SampleQR, fit_ols, fit_resamples

__all__ = [
    "HypothesisTest",
    "chisq_cdf",
    "noncentral_chisq_cdf",
    "p_value",
    "test_all",
    "test_predictor",
    "test_resamples",
    "wald_statistic",
]

# floor for reported p-values; avoids exact zeros in log-scale output
P_VALUE_FLOOR = 1e-300


@dataclass(frozen=True)
class HypothesisTest:
    """Result of testing one predictor's coefficient block against zero."""

    predictor_index: int
    statistic: float
    dof: int
    p_value: float


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


def wald_statistic(b_r: np.ndarray, v_rr: np.ndarray, sigma2) -> np.ndarray:
    """(RSS0 - RSS) / sigma2 from the Wald form b_r' (V_rr)^{-1} b_r / sigma2.

    Takes one block's coefficients (..., p) and covariance block (..., p, p)
    over any leading batch axes. Raises ``LinAlgError`` when a V_rr is
    singular.
    """
    rss_increase = (b_r[..., None, :] @ np.linalg.solve(v_rr, b_r[..., None]))[..., 0, 0]
    return np.maximum(rss_increase / sigma2, 0.0)  # guard roundoff


def p_value(statistic, dof) -> np.ndarray:
    """Upper chi-square tail, clipped to [P_VALUE_FLOOR, 1]."""
    return np.clip(chdtrc(dof, statistic), P_VALUE_FLOOR, 1.0)


def test_predictor(full: FitResult, r: int) -> HypothesisTest:
    """Likelihood-ratio test of predictor r's block against zero."""
    if not 0 <= r < len(full.block_offsets) - 1:
        raise ValueError(
            f"predictor index {r} out of range 0..{len(full.block_offsets) - 2}"
        )
    lo, hi = full.block_offsets[r], full.block_offsets[r + 1]
    rows = full.r_inv[lo:hi]  # V_rr = rows @ rows.T
    try:
        statistic = float(wald_statistic(full.block(r), rows @ rows.T, full.sigma2_tilde))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"singular covariance block while testing predictor {r}: {exc}"
        ) from exc
    dof = hi - lo
    return HypothesisTest(
        predictor_index=r,
        statistic=statistic,
        dof=dof,
        p_value=float(p_value(statistic, dof)),
    )


def test_all(design: DesignMatrix, y: np.ndarray) -> list[HypothesisTest]:
    """Fit once and test every predictor against that shared full fit."""
    full = fit_ols(design, y)
    return [test_predictor(full, r) for r in range(design.num_predictors)]


def _certified_statistics(qr: SampleQR, idx: np.ndarray):
    """Statistics (b, M) of the resamples that :func:`fit_resamples`
    certifies, and the certified mask; raises ``LinAlgError`` as it does."""
    fits = fit_resamples(qr, idx)
    ok = fits.certified
    offsets = qr.design.block_offsets
    statistics = np.full((len(ok), len(offsets) - 1), np.nan)
    for r, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        statistics[ok, r] = wald_statistic(
            fits.coefficients[ok, lo:hi],
            fits.covariance[ok, lo:hi, lo:hi],
            fits.sigma2_tilde[ok],
        )
    return statistics, ok


def test_resamples(qr: SampleQR, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Statistics and p-values, each (b, M), of every predictor on each
    resample ``idx[j]`` (n row indices into the sample of ``qr``).

    The resamples' fits come together from their row counts. A resample that
    the count fit does not certify, or every resample of a batch whose count
    fit raises, is tested by :func:`test_all` on its explicit rows instead;
    a resample whose fit fails there has a row of NaN.
    """
    b = len(idx)
    try:
        statistics, ok = _certified_statistics(qr, idx)
    except np.linalg.LinAlgError:
        statistics, ok = np.full((b, qr.design.num_predictors), np.nan), np.zeros(b, bool)
    for j in np.flatnonzero(~ok):
        resampled = DesignMatrix(
            values=qr.design.values[idx[j]], block_offsets=qr.design.block_offsets
        )
        try:
            statistics[j] = [t.statistic for t in test_all(resampled, qr.y[idx[j]])]
        except NumericalError:
            pass
    return statistics, p_value(statistics, np.diff(qr.design.block_offsets))
