"""Multiple-testing corrections over the per-predictor p-values.

Bonferroni rejects p-values at or below q/M. The false-discovery-rate
procedure is the dependency-robust step-up rule with the harmonic-sum
correction: reject the s smallest p-values where s is the largest j with
p_(j) <= (j/M) * q / H_M and H_M = sum_{l=1}^M 1/l. Both rules are
:func:`selection_mask`, over one row of p-values or over many at once; the
selected predictors are the True entries of its mask.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["check_method", "check_q", "selection_mask", "default_q"]


def selection_mask(method: str, p_values, q: float) -> np.ndarray:
    """Which predictors the rule selects, for each row of a (..., M) array
    of p-values: a boolean array of the same shape.

    The step-up rule sorts each row with a stable sort, so tied p-values
    keep predictor order; a tie never straddles the cut, since every member
    of a tied group passes the threshold of the group's last rank.
    """
    check_q(q)
    p_values = np.asarray(p_values, dtype=float)
    m = p_values.shape[-1]
    if m == 0:
        raise ValueError("no tests supplied")
    if check_method(method) != "fdr":
        return p_values <= q / m
    harmonic = sum(1.0 / l for l in range(1, m + 1))
    order = np.argsort(p_values, axis=-1, kind="stable")
    ranks = np.arange(1, m + 1)
    passes = np.take_along_axis(p_values, order, -1) <= (ranks / m) * (q / harmonic)
    # s, the largest passing rank, from the last True of each row (0 if none)
    s = np.where(passes.any(-1), m - np.argmax(passes[..., ::-1], axis=-1), 0)
    selected = np.empty_like(passes)
    np.put_along_axis(selected, order, ranks <= s[..., None], -1)
    return selected


def check_method(method: str) -> str:
    """Lower-cased selection method name: 'bc', 'bonferroni' or 'fdr'."""
    name = method.lower()
    if name not in ("bc", "bonferroni", "fdr"):
        raise ValueError(f"unknown method {method!r}; use 'bc' or 'fdr'")
    return name


def check_q(q: float) -> float:
    """The selection level q, which must lie in the open interval (0, 1)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    return q


def default_q(n: int, num_predictors: int) -> float:
    """Rule-of-thumb level: 1/M when M is large relative to n, else 1/sqrt(n)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if num_predictors < 1:
        raise ValueError(f"num_predictors must be >= 1, got {num_predictors}")
    if num_predictors > math.sqrt(n):
        return 1.0 / num_predictors
    return 1.0 / math.sqrt(n)
