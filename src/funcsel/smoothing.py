"""Least-squares smoothing of gridded curves onto a B-spline basis.

Curves of one predictor that are observed on the same grid form a
:class:`CurveBlock`: one strictly increasing grid, checked once, and an
(r, G) matrix with one row of values per curve. A block is smoothed with a
single product ``values @ pinv.T`` against the pseudoinverse of the basis
evaluated at its grid, so each row becomes the ordinary least-squares
coefficient vector of that curve. Curves on their own grids are one-row
blocks. A dataset bundles the per-predictor coefficient matrices together
with the scalar responses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .bspline import BasisSpec, evaluate_basis_matrix
from .errors import DataError, RankDeficiencyError, SampleSizeError, check_rank

__all__ = ["CurveBlock", "FunctionalDataset", "smooth_block", "build_dataset"]


@dataclass(frozen=True, eq=False)
class CurveBlock:
    """Curves of one predictor on a shared grid.

    ``grid`` is strictly increasing with G points; ``values`` is (r, G), one
    row per curve.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or values.ndim != 2:
            raise DataError(
                "grid must be one-dimensional and values two-dimensional (curves x points)"
            )
        if values.shape[1] != grid.size:
            raise DataError(
                f"grid length {grid.size} != values length {values.shape[1]}"
            )
        if grid.size and np.any(np.diff(grid) <= 0):
            raise DataError("grid must be strictly increasing (no duplicate points)")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def num_curves(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class FunctionalDataset:
    """Smoothed predictors plus responses.

    ``coefs[m]`` is an (n, p_m) array of basis coefficients for predictor m;
    block sizes p_m may differ across predictors.
    """

    bases: tuple[BasisSpec, ...]
    coefs: tuple[np.ndarray, ...]
    responses: np.ndarray

    @property
    def n(self) -> int:
        return self.responses.size

    @property
    def num_predictors(self) -> int:
        return len(self.bases)


# Keyed by the grid's bytes: curves observed on a grid seen before (the
# synthetic scenario's fixed grids, for instance) skip the SVD.
@lru_cache(maxsize=128)
def _basis_pinv(spec: BasisSpec, grid_bytes: bytes) -> np.ndarray:
    grid = np.frombuffer(grid_bytes)
    basis = evaluate_basis_matrix(spec, grid)
    u, sv, vt = np.linalg.svd(basis, full_matrices=False)
    try:
        check_rank(sv, "basis matrix at the grid points")
    except RankDeficiencyError as exc:
        raise RankDeficiencyError(f"{exc}; {_describe_empty_spans(spec, grid)}") from None
    # the pseudoinverse from the same SVD, formed as numpy.linalg.pinv does
    pinv = vt.T @ ((1.0 / sv)[:, None] * u.T)
    pinv.setflags(write=False)
    return pinv


def _describe_empty_spans(spec: BasisSpec, grid: np.ndarray) -> str:
    bp = spec.breakpoints
    empty = []
    for a, b in zip(bp[:-1], bp[1:]):
        if not np.any((grid >= a) & (grid < b)) and not (b == bp[-1] and np.any(grid == b)):
            empty.append((a, b))
    if empty:
        spans = ", ".join(f"[{a:g}, {b:g})" for a, b in empty)
        return f"knot span(s) without grid points: {spans}"
    return "no single knot span is empty; grid points are too few or degenerate"


def smooth_block(block: CurveBlock, spec: BasisSpec) -> np.ndarray:
    """Least-squares basis coefficients of every curve, shape (r, num_basis)."""
    grid = block.grid
    if grid.size < spec.num_basis:
        raise DataError(
            f"grid has {grid.size} points; need at least num_basis = {spec.num_basis}"
        )
    if grid[0] < spec.domain_lo or grid[-1] > spec.domain_hi:
        raise DataError(
            f"grid range [{grid[0]}, {grid[-1]}] exceeds basis domain "
            f"[{spec.domain_lo}, {spec.domain_hi}]"
        )
    return block.values @ _basis_pinv(spec, grid.tobytes()).T


def build_dataset(
    curves: Sequence[Sequence[CurveBlock]],
    responses: np.ndarray,
    bases: Sequence[BasisSpec],
) -> FunctionalDataset:
    """Smooth every block and assemble a dataset.

    ``curves[m]`` holds predictor m's blocks; stacked in order, their rows
    are samples 0 .. n-1. Raises :class:`SampleSizeError` when n does not
    exceed the total parameter count k = 1 + sum(p_m).
    """
    responses = np.asarray(responses, dtype=float)
    n = responses.size
    if responses.ndim != 1:
        raise DataError("responses must be one-dimensional")
    bases = tuple(bases)
    if len(curves) != len(bases):
        raise DataError(
            f"got curves for {len(curves)} predictors; expected {len(bases)}"
        )
    for m, blocks in enumerate(curves):
        rows = sum(block.num_curves for block in blocks)
        if rows != n:
            raise DataError(
                f"predictor {m} has {rows} curves; responses length is {n}"
            )
    k = 1 + sum(spec.num_basis for spec in bases)
    if n <= k:
        raise SampleSizeError(
            f"need n > k = 1 + sum(p_m): got n={n}, k={k}"
        )
    coefs = []
    for m, (blocks, spec) in enumerate(zip(curves, bases)):
        parts = []
        first = 0
        for block in blocks:
            try:
                parts.append(smooth_block(block, spec))
            except (DataError, RankDeficiencyError) as exc:
                last = first + block.num_curves - 1
                shared = f" (grid shared by samples {first}-{last})" if last > first else ""
                raise type(exc)(f"sample {first}, predictor {m}{shared}: {exc}") from exc
            first += block.num_curves
        coefs.append(np.concatenate(parts))
    return FunctionalDataset(bases=bases, coefs=tuple(coefs), responses=responses)
