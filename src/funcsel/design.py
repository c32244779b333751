"""Assembly of the regression design matrix from smoothed coefficients.

Row i of the design is (1, W_i1' J_1, ..., W_iM' J_M): the intercept followed
by one block per predictor, each block being the coefficient vector multiplied
by the Gram matrix of that predictor's basis. Assembly does not check the
rank; :func:`~funcsel.linmodel.fit_ols` does, once per fit, from its R factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bspline import gram_matrix
from .smoothing import FunctionalDataset

__all__ = ["DesignMatrix", "build_design"]


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
