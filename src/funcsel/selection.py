"""Multiple-testing corrections over the per-predictor p-values.

Bonferroni rejects p-values at or below q/M. The false-discovery-rate
procedure is the dependency-robust step-up rule with the harmonic-sum
correction: reject the s smallest p-values where s is the largest j with
p_(j) <= (j/M) * q / H_M and H_M = sum_{l=1}^M 1/l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .inference import HypothesisTest

__all__ = [
    "SelectionResult",
    "check_method",
    "check_q",
    "select",
    "select_bonferroni",
    "select_fdr",
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


def select_bonferroni(tests: Sequence[HypothesisTest], q: float) -> SelectionResult:
    """Select predictors whose p-value is at most q/M."""
    check_q(q)
    tests = tuple(tests)
    if not tests:
        raise ValueError("no tests supplied")
    threshold = q / len(tests)
    selected = tuple(
        sorted(t.predictor_index for t in tests if t.p_value <= threshold)
    )
    return SelectionResult(
        method="bonferroni", q=q, tests=tests, selected=selected, s=None
    )


def select_fdr(tests: Sequence[HypothesisTest], q: float) -> SelectionResult:
    """Step-up selection with the harmonic-sum correction.

    Ties in the p-value sort are broken by predictor index for determinism.
    """
    check_q(q)
    tests = tuple(tests)
    if not tests:
        raise ValueError("no tests supplied")
    m = len(tests)
    harmonic = sum(1.0 / l for l in range(1, m + 1))
    order = sorted(tests, key=lambda t: (t.p_value, t.predictor_index))
    s = 0
    for j in range(m, 0, -1):
        if order[j - 1].p_value <= (j / m) * (q / harmonic):
            s = j
            break
    selected = tuple(sorted(t.predictor_index for t in order[:s]))
    return SelectionResult(method="fdr", q=q, tests=tests, selected=selected, s=s)


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
