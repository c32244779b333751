"""Multiple-testing corrections over the per-predictor p-values.

Bonferroni rejects p-values at or below q/M. The false-discovery-rate
procedure is the dependency-robust step-up rule with the harmonic-sum
correction: reject the s smallest p-values where s is the largest j with
p_(j) <= (j/M) * q / H_M and H_M = sum_{l=1}^M 1/l. Both rules are
:func:`selection_mask`, over one row of p-values or over many at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .inference import HypothesisTest

__all__ = [
    "SelectionResult",
    "check_method",
    "check_q",
    "select",
    "select_bonferroni",
    "select_fdr",
    "selection_mask",
    "default_q",
]


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a selection rule over M predictor tests.

    ``selected`` holds 0-based predictor indices in increasing order.
    ``s`` is the step-up rejection count (None for Bonferroni).
    """

    method: str
    q: float
    tests: tuple[HypothesisTest, ...]
    selected: tuple[int, ...]
    s: int | None


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


def _select(method: str, tests: Sequence[HypothesisTest], q: float):
    tests = tuple(tests)
    mask = selection_mask(method, [t.p_value for t in tests], q)
    selected = tuple(sorted(t.predictor_index for t, keep in zip(tests, mask) if keep))
    return tests, selected


def select_bonferroni(tests: Sequence[HypothesisTest], q: float) -> SelectionResult:
    """Select predictors whose p-value is at most q/M."""
    tests, selected = _select("bc", tests, q)
    return SelectionResult(
        method="bonferroni", q=q, tests=tests, selected=selected, s=None
    )


def select_fdr(tests: Sequence[HypothesisTest], q: float) -> SelectionResult:
    """Step-up selection with the harmonic-sum correction; ``s`` is the
    number of rejections."""
    tests, selected = _select("fdr", tests, q)
    return SelectionResult(
        method="fdr", q=q, tests=tests, selected=selected, s=len(selected)
    )


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


def select(method: str, tests: Sequence[HypothesisTest], q: float) -> SelectionResult:
    """Apply the rule named by ``method`` ('bc'/'bonferroni' or 'fdr')."""
    if check_method(method) == "fdr":
        return select_fdr(tests, q)
    return select_bonferroni(tests, q)


def default_q(n: int, num_predictors: int) -> float:
    """Rule-of-thumb level: 1/M when M is large relative to n, else 1/sqrt(n)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if num_predictors < 1:
        raise ValueError(f"num_predictors must be >= 1, got {num_predictors}")
    if num_predictors > math.sqrt(n):
        return 1.0 / num_predictors
    return 1.0 / math.sqrt(n)
