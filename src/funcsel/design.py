"""Assembly of the regression design matrix from smoothed coefficients.

Row i of the design is (1, W_i1' J_1, ..., W_iM' J_M): the intercept followed
by one block per predictor, each block being the coefficient vector multiplied
by the Gram matrix of that predictor's basis. Assembly does not check the
rank; :func:`~funcsel.linmodel.fit_ols` does, once per fit, from its R factor.
Nor does it warn about the parameter count: a job calls
:func:`check_parameter_count` once, where it first knows n and k, so a Monte
Carlo run or a bootstrap warns once rather than once per design.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bspline import gram_matrix
from .errors import ConditionWarning
from .smoothing import FunctionalDataset

__all__ = ["DesignMatrix", "build_design", "check_parameter_count"]


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """n x k design with an intercept column and one block per predictor.

    ``block_offsets`` has M+1 entries: the start column of each predictor
    block, and finally k. Column 0 is the intercept.
    """

    values: np.ndarray
    block_offsets: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]

    @property
    def num_predictors(self) -> int:
        return len(self.block_offsets) - 1


def check_parameter_count(n: int, k: int) -> None:
    """Emit :class:`ConditionWarning` when k exceeds sqrt(n)/log(n)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if k > math.sqrt(n) / math.log(n):
        warnings.warn(
            f"parameter count k = 1 + sum(p_m) = {k} exceeds sqrt(n)/log(n) = "
            f"{math.sqrt(n) / math.log(n):.2f}; the selection consistency regime "
            "is not guaranteed",
            ConditionWarning,
            stacklevel=2,
        )


def build_design(data: FunctionalDataset) -> DesignMatrix:
    """Build the design matrix from the dataset's coefficients and bases."""
    blocks = [np.ones((data.n, 1))]
    offsets = [1]
    for coefs, spec in zip(data.coefs, data.bases):
        blocks.append(coefs @ gram_matrix(spec))
        offsets.append(offsets[-1] + spec.num_basis)
    values = np.hstack(blocks)
    values.setflags(write=False)
    return DesignMatrix(values=values, block_offsets=tuple(offsets))
