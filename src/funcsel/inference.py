"""Likelihood-ratio tests per predictor and their chi-square reference.

The statistic for predictor r is (RSS0 - RSS) / sigma2_tilde with
sigma2_tilde = RSS/n from the full fit, referred to a central chi-square
with p_r degrees of freedom. :func:`test_all` reads each RSS0 - RSS off the
one full fit in the column-deletion form of least squares. With Z = Q R_zz,
Z' Q R_zz^{-T} = I, so the rows of R_zz^{-1} over block r's columns lo:hi,
zero left of column lo, span what deleting the block takes from Z's column
space, in the coordinates of Q. RSS0 - RSS is |t|^2 for t the first k_r
entries of the last column of the R factor of
[R_zz^{-1}[lo:hi, lo:]' | (Q'y)[lo:]]: no covariance is formed and no
condition number squared. :func:`p_value` takes the chi-square upper tail in
closed form, with numpy and :func:`math.erfc` alone: every dof is a basis
size, so an integer, and the tail is then a finite sum.
"""

from __future__ import annotations

import math

import numpy as np

from .design import DesignMatrix
from .linmodel import fit_ols

__all__ = ["p_value", "test_all"]

# floor for reported p-values; avoids exact zeros in log-scale output
P_VALUE_FLOOR = 1e-300


def p_value(statistic, dof) -> np.ndarray:
    """Upper chi-square tail at ``statistic`` for positive integer ``dof``
    (broadcast together), clipped to [P_VALUE_FLOOR, 1]; NaN stays NaN.

    With h = statistic / 2 the tail is a finite sum: sum_{j < dof/2}
    e^{-h} h^j / j! for even dof, and erfc(sqrt h) plus sum_{j < (dof-1)/2}
    e^{-h} h^(j+1/2) / Gamma(j + 3/2) for odd dof. Each term is the exp of
    its logarithm, so that e^{-h} cannot underflow alone while the term
    still exceeds the floor. The sum is taken once per distinct dof.
    """
    dof = np.asarray(dof)
    if dof.dtype.kind not in "iu" or dof.min(initial=1) < 1:
        raise ValueError(f"dof must be positive integers, got {dof}")
    distinct = sorted(set(dof.ravel().tolist()))
    h, dof = np.broadcast_arrays(np.asarray(statistic, dtype=float) / 2.0, dof)
    tail = np.empty(h.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_h = np.log(h)
        for d in distinct:
            cells = dof == d
            h_d, log_h_d = h[cells], log_h[cells]
            shift = d % 2 / 2  # the half-integer powers of odd dof
            if shift:
                tail_d = np.fromiter(map(math.erfc, np.sqrt(h_d).tolist()), float, h_d.size)
            else:
                tail_d = np.zeros(h_d.size)
            for j in range(d // 2):
                tail_d += np.exp((j + shift) * log_h_d - h_d - math.lgamma(j + shift + 1))
            tail[cells] = tail_d
    tail[h == 0.0] = 1.0  # 0 * log 0 above
    tail[h == np.inf] = 0.0  # inf - inf above
    return np.clip(tail, P_VALUE_FLOOR, 1.0)


def test_all(design: DesignMatrix, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fit once; the statistics and p-values, each (M,), of every predictor
    tested against that shared full fit."""
    full = fit_ols(design, y)
    offsets = design.block_offsets
    statistics = np.empty(len(offsets) - 1)
    for r, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        panel = np.column_stack([full.r_inv[lo:hi, lo:].T, full.qty[lo:]])
        t = np.linalg.qr(panel, mode="r")[: hi - lo, -1]
        statistics[r] = t @ t / full.sigma2_tilde
    return statistics, p_value(statistics, np.diff(offsets))
