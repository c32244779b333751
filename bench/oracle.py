"""Independent reference for the ``select`` report on a benchmark dataset.

It shares no code with the package: curves are smoothed against scipy's
``BSpline.design_matrix`` with ``lstsq``, the Gram matrices come from
Gauss-Legendre quadrature of those same basis values, and each predictor's
likelihood-ratio statistic comes from refitting with its block dropped.
The selection is the harmonic-corrected step-up rule at the automatic level.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import BSpline
from scipy.stats import chi2

from inputs import PREDICTOR_IDS

DEGREE = 3
NUM_BASIS = 6
P_VALUE_FLOOR = 1e-300


def _knots(lo: float, hi: float) -> np.ndarray:
    interior = np.linspace(lo, hi, NUM_BASIS - DEGREE + 1)[1:-1]
    return np.concatenate([[lo] * (DEGREE + 1), interior, [hi] * (DEGREE + 1)])


def _basis(knots: np.ndarray, t: np.ndarray) -> np.ndarray:
    return BSpline.design_matrix(t, knots, DEGREE).toarray()


def _gram(knots: np.ndarray) -> np.ndarray:
    nodes, weights = np.polynomial.legendre.leggauss(DEGREE + 2)
    gram = np.zeros((NUM_BASIS, NUM_BASIS))
    edges = np.unique(knots)
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        basis = _basis(knots, 0.5 * (a + b) + half * nodes)
        gram += basis.T @ (basis * (half * weights)[:, None])
    return gram


def _rss(z: np.ndarray, y: np.ndarray) -> float:
    coef, *_ = np.linalg.lstsq(z, y, rcond=None)
    resid = y - z @ coef
    return float(resid @ resid)


def select_report(grids, values, y) -> list[dict]:
    """The records ``funcsel --mode select --method fdr --q auto`` should write."""
    n = y.size
    blocks = [np.ones((n, 1))]
    for grid, vals in zip(grids, values):
        knots = _knots(float(grid[:, 0].min()), float(grid[:, -1].max()))
        coefs = np.array(
            [np.linalg.lstsq(_basis(knots, g), v, rcond=None)[0] for g, v in zip(grid, vals)]
        )
        blocks.append(coefs @ _gram(knots))
    z = np.hstack(blocks)
    rss = _rss(z, y)
    records, p_values = [], []
    for m, pid in enumerate(PREDICTOR_IDS):
        keep = np.ones(z.shape[1], dtype=bool)
        keep[1 + m * NUM_BASIS : 1 + (m + 1) * NUM_BASIS] = False
        statistic = max((_rss(z[:, keep], y) - rss) / (rss / n), 0.0)
        p_value = min(max(float(chi2.sf(statistic, NUM_BASIS)), P_VALUE_FLOOR), 1.0)
        p_values.append(p_value)
        records.append(
            {"predictor": pid, "statistic": statistic, "dof": NUM_BASIS, "p_value": p_value}
        )

    count = len(PREDICTOR_IDS)
    q = 1.0 / count if count > math.sqrt(n) else 1.0 / math.sqrt(n)
    harmonic = sum(1.0 / j for j in range(1, count + 1))
    order = sorted(range(count), key=lambda m: (p_values[m], m))
    rejected = 0
    for j in range(count, 0, -1):
        if p_values[order[j - 1]] <= (j / count) * q / harmonic:
            rejected = j
            break
    chosen = sorted(order[:rejected])
    for m, record in enumerate(records):
        record["selected"] = m in chosen
    records.append({"method": "fdr", "q": q, "selected": [PREDICTOR_IDS[m] for m in chosen]})
    return records
