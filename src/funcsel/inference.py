"""Likelihood-ratio tests per predictor and their chi-square reference.

The statistic for predictor r is (RSS0 - RSS) / sigma2_tilde with
sigma2_tilde = RSS/n from the full fit, referred to a central chi-square
with p_r degrees of freedom. RSS0 - RSS, the cost of zeroing block r, equals
the Wald form b_r' (V_rr)^{-1} b_r with V = (Z'Z)^{-1}, so every test is read
off the one full fit without refitting. :func:`block_statistics` is the one
loop over the predictor blocks: it takes the Wald form of every block, for
one fit or for a batch, from the diagonal blocks V_rr alone.
:func:`test_all` applies it to the full fit of a sample and returns plain
arrays of statistics and p-values; the bootstrap applies it to a batch of
resamples, whose V_rr it forms without the rest of V. :func:`p_value` takes
the chi-square upper tail in closed form, with numpy and :func:`math.erfc`
alone: every dof is a basis size, so an integer, and the tail is then a
finite sum.
"""

from __future__ import annotations

import math

import numpy as np

from .design import DesignMatrix
from .errors import NumericalError
from .linmodel import fit_ols

__all__ = [
    "block_statistics",
    "diagonal_blocks",
    "p_value",
    "test_all",
]

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


def diagonal_blocks(covariance, offsets) -> list[np.ndarray]:
    """Views of the diagonal blocks V_rr (..., k_r, k_r) of covariances V
    (..., k, k), block r over columns ``offsets[r]:offsets[r + 1]``."""
    return [covariance[..., lo:hi, lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]


def block_statistics(coefficients, blocks, sigma2, offsets) -> np.ndarray:
    """Statistics (..., M) of every predictor block, from fits with
    coefficients (..., k), the diagonal blocks V_rr (..., k_r, k_r) of their
    covariances V, one per predictor in ``blocks``, and variance estimates
    ``sigma2`` over any leading batch axes; block r spans columns
    ``offsets[r]:offsets[r + 1]``. The statistic of block r is the Wald form
    b_r' (V_rr)^{-1} b_r / sigma2, floored at 0 against roundoff. Raises
    :class:`NumericalError` naming the first predictor whose V_rr is
    singular."""
    statistics = np.empty(np.shape(coefficients)[:-1] + (len(offsets) - 1,))
    for r, (lo, hi, v_rr) in enumerate(zip(offsets[:-1], offsets[1:], blocks)):
        b_r = coefficients[..., lo:hi]
        try:
            v_inv_b = np.linalg.solve(v_rr, b_r[..., None])
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"singular covariance block while testing predictor {r}: {exc}"
            ) from exc
        rss_increase = (b_r[..., None, :] @ v_inv_b)[..., 0, 0]
        statistics[..., r] = np.maximum(rss_increase / sigma2, 0.0)
    return statistics


def test_all(design: DesignMatrix, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fit once; the statistics and p-values, each (M,), of every predictor
    tested against that shared full fit."""
    full = fit_ols(design, y)
    offsets = design.block_offsets
    blocks = diagonal_blocks(full.covariance, offsets)
    statistics = block_statistics(full.coefficients, blocks, full.sigma2_tilde, offsets)
    return statistics, p_value(statistics, np.diff(offsets))
