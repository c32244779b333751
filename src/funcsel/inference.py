"""Likelihood-ratio tests per predictor and their chi-square reference.

The statistic for predictor r is (RSS0 - RSS) / sigma2_tilde with
sigma2_tilde = RSS/n from the full fit, referred to a central chi-square
with p_r degrees of freedom. RSS0 - RSS, the cost of zeroing block r, equals
the Wald form b_r' (V_rr)^{-1} b_r with V = (Z'Z)^{-1}, so every test is read
off the one full fit without refitting. The central and noncentral CDFs are
scipy's ``chdtr`` and ``chndtr``; the noncentral one serves to validate the
alternative-hypothesis distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtr, chdtrc, chndtr

from .design import DesignMatrix
from .errors import NumericalError
from .linmodel import FitResult, fit_ols

__all__ = [
    "HypothesisTest",
    "chisq_cdf",
    "noncentral_chisq_cdf",
    "test_predictor",
    "test_all",
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


def test_predictor(full: FitResult, r: int) -> HypothesisTest:
    """Likelihood-ratio test of predictor r's block against zero."""
    if not 0 <= r < len(full.block_offsets) - 1:
        raise ValueError(
            f"predictor index {r} out of range 0..{len(full.block_offsets) - 2}"
        )
    lo, hi = full.block_offsets[r], full.block_offsets[r + 1]
    rows = full.r_inv[lo:hi]  # V_rr = rows @ rows.T
    b_r = full.block(r)
    try:
        rss_increase = b_r @ np.linalg.solve(rows @ rows.T, b_r)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"singular covariance block while testing predictor {r}: {exc}"
        ) from exc
    statistic = max(rss_increase / full.sigma2_tilde, 0.0)  # guard roundoff
    dof = hi - lo
    p_value = max(min(float(chdtrc(dof, statistic)), 1.0), P_VALUE_FLOOR)
    return HypothesisTest(
        predictor_index=r, statistic=float(statistic), dof=dof, p_value=p_value
    )


def test_all(design: DesignMatrix, y: np.ndarray) -> list[HypothesisTest]:
    """Fit once and test every predictor against that shared full fit."""
    full = fit_ols(design, y)
    return [test_predictor(full, r) for r in range(design.num_predictors)]
