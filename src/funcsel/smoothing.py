"""Least-squares smoothing of gridded curves onto a B-spline basis.

The curves of one predictor are held in blocks (:class:`CurveBlock`): an
(r, G) matrix with one row of values per curve, and either one strictly
increasing grid of G points shared by every row or an (r, G) array with one
such grid per row. A shared-grid block is smoothed with a single product
``values @ pinv.T`` against the pseudoinverse of the basis evaluated at its
grid, which is cached by grid. A block of per-row grids is smoothed in
chunks of rows whose basis matrices hold at most ``ROW_FLOATS`` floats, with
one basis evaluation and one stacked R-only QR of every row's [B | v] per
chunk: the coefficients come from R by triangular substitution, and a bound
on the condition number read off R certifies the rank check of every
well-conditioned row, so that only the rows it cannot certify take an SVD. Either way each
row becomes the ordinary least-squares coefficient vector of its curve. A
dataset bundles the per-predictor coefficient matrices together with the
scalar responses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .bspline import BasisSpec, evaluate_basis_matrix
from .errors import (
    RANK_BOUND2_MAX,
    DataError,
    RankDeficiencyError,
    SampleSizeError,
    check_rank,
)

__all__ = [
    "CurveBlock",
    "FunctionalDataset",
    "smooth_block",
    "build_dataset",
    "check_sample_size",
]

# floats in the basis matrices of one chunk of per-row grids smoothed
# together (rows x G x num_basis), which sets the rows per chunk: the basis
# matrices of a whole block of r rows take r*G*num_basis floats, and the
# [B | v] that the QR factors r*G*(num_basis + 1), without bound
ROW_FLOATS = 2**19


@dataclass(frozen=True, eq=False)
class CurveBlock:
    """Curves of one predictor, each observed at G points.

    ``values`` is (r, G), one row per curve. ``grid`` is either (G,), one
    grid shared by every row, or (r, G), one grid per row; every grid is
    strictly increasing, and every entry of both is finite.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise DataError("values must be two-dimensional (curves x points)")
        if grid.shape not in ((values.shape[1],), values.shape):
            raise DataError(
                f"grid of shape {grid.shape} does not fit values of shape "
                f"{values.shape}: need a one-dimensional grid of length "
                f"{values.shape[1]}, shared by every curve, or one grid per curve"
            )
        for name, array in (("grid", grid), ("values", values)):
            if not np.isfinite(array).all():
                finite = np.isfinite(array).all(axis=-1)
                row = "shared by every row" if finite.ndim == 0 else f"of row {np.argmin(finite)}"
                raise DataError(f"{name} {row} has a non-finite entry")
        if grid.size and np.any(np.diff(grid, axis=-1) <= 0):
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
    _check_basis_rank(sv, spec, grid, row=0)
    # the pseudoinverse from the same SVD, formed as numpy.linalg.pinv does
    pinv = vt.T @ ((1.0 / sv)[:, None] * u.T)
    pinv.setflags(write=False)
    return pinv


def _at_row(exc: Exception, row: int) -> Exception:
    """``exc``, marked with the block row of the curve it is about."""
    exc.row = row
    return exc


def _check_basis_rank(sv: np.ndarray, spec: BasisSpec, grid: np.ndarray, row: int) -> None:
    try:
        check_rank(sv, "basis matrix at the grid points")
    except RankDeficiencyError as exc:
        message = f"{exc}; {_describe_empty_spans(spec, grid)}"
        raise _at_row(RankDeficiencyError(message), row) from None


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
    """Least-squares basis coefficients of every curve, shape (r, num_basis).

    A shared grid is smoothed through its cached pseudoinverse, per-row grids
    through one stacked R-only QR per chunk of rows (see ``ROW_FLOATS``),
    whose R screens the rank check: a row it cannot certify gets the exact
    check from its SVD, so the rows that raise are those whose basis fails
    :func:`~funcsel.errors.check_rank`. An error describes the first curve
    that cannot be smoothed, and its ``row`` attribute is that curve's row in
    the block (0 for a shared grid).
    """
    grids = np.atleast_2d(block.grid)  # (1, G) for a shared grid
    if grids.shape[1] < spec.num_basis:
        raise _at_row(
            DataError(
                f"grid has {grids.shape[1]} points; need at least num_basis = "
                f"{spec.num_basis}"
            ),
            0,
        )
    outside = (grids[:, 0] < spec.domain_lo) | (grids[:, -1] > spec.domain_hi)
    if np.any(outside):
        row = int(np.argmax(outside))
        raise _at_row(
            DataError(
                f"grid range [{grids[row, 0]}, {grids[row, -1]}] exceeds basis domain "
                f"[{spec.domain_lo}, {spec.domain_hi}]"
            ),
            row,
        )
    if block.grid.ndim == 1:
        return block.values @ _basis_pinv(spec, block.grid.tobytes()).T
    rows = max(1, ROW_FLOATS // (grids.shape[1] * spec.num_basis))
    parts = [
        _smooth_rows(spec, grids[i : i + rows], block.values[i : i + rows], first=i)
        for i in range(0, block.num_curves, rows)
    ]
    return np.concatenate(parts)


def _invert_lower(l: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverses of a stack (b, k, k) of lower-triangular matrices, by forward
    substitution: row i of L^{-1} from its rows above, one batched
    vector-matrix product per row. They are written into ``out`` when it is
    given, which must hold zeros above its diagonals, as any earlier result
    of this function does; only the lower triangles are written."""
    m = np.zeros_like(l) if out is None else out
    diag = 1.0 / np.diagonal(l, axis1=1, axis2=2)
    for i in range(l.shape[1]):
        m[:, i, :i] = (l[:, i, None, :i] @ m[:, :i, :i])[:, 0] * -diag[:, i, None]
        m[:, i, i] = diag[:, i]
    return m


def _smooth_rows(
    spec: BasisSpec, grids: np.ndarray, values: np.ndarray, first: int
) -> np.ndarray:
    """:func:`smooth_block` of rows ``first``, ``first + 1``, ... of a block
    of per-row grids.

    Row i's [B | v] is factored by one R-only QR; with R_pp its leading
    p x p block, the coefficients are R_pp^{-1} R[:p, p]. R_pp has the
    singular values of B, and ||R_pp||_F ||R_pp^{-1}||_F bounds
    sigma_max/sigma_min from above, so a row whose bound is below
    0.5/RANK_RTOL passes the rank check (see below); every other row's B
    gets the exact check, from its SVD.
    """
    p = spec.num_basis
    basis = evaluate_basis_matrix(spec, grids).reshape(*grids.shape, p)
    r = np.linalg.qr(np.concatenate([basis, values[:, :, None]], axis=2), mode="r")
    r_pp = r[:, :p, :p]
    # A zero pivot makes the inverse inf or NaN, and the bound NaN or inf,
    # which the screen flags.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_t = _invert_lower(r_pp.transpose(0, 2, 1))  # (R_pp^{-1})'
        bound2 = np.einsum("bij,bij->b", r_pp, r_pp) * np.einsum("bij,bij->b", inv_t, inv_t)
    # The factor 2 of the screen covers every rounding error between the
    # bound and check_rank's ratio. Let u be the unit roundoff, tau =
    # RANK_RTOL, and the computed bound below 1/(2 tau); the rounding of the
    # two norms themselves is of order p u, relative, and is left out.
    # - Substitution: column j of the computed X = (R_pp')^{-1} is a forward
    #   substitution for L x = e_j, L = R_pp', so |L X - I| <= p u |L| |X|
    #   to first order (Higham, Accuracy and Stability of Numerical
    #   Algorithms, ch. 8). Then F = L X - I has ||F||_2 <= eta = p u/(2 tau),
    #   about 3e-6 at p = 6, and ||R_pp^{-1}||_2 <= ||X||_F / (1 - eta), so
    #   R_pp's ratio sigma_min/sigma_max is above rho = 2 tau (1 - eta).
    # - QR: Householder QR of [B | v] has a columnwise backward error (ch.
    #   19), so R_pp is the exact R factor of B + dB with ||dB||_F <= gamma
    #   ||B||_F, gamma = c G p u for a small constant c. By Weyl's inequality
    #   B's singular values are within gamma sqrt(p) sigma_max(B) of R_pp's,
    #   so B's ratio is above rho (1 - gamma sqrt(p)) - gamma sqrt(p).
    # - SVD: LAPACK's singular values of B are within c' u sigma_max(B) of
    #   B's exact ones, for a small c'.
    # So check_rank reads a ratio above about 2 tau - gamma sqrt(p) - c' u,
    # which is at least tau while c G p^1.5 u < tau / 2: up to about
    # 3e4 / c points per curve at p = 6 on these worst-case bounds, and far
    # more on the errors met in practice, which grow like sqrt(G p) u.
    flagged = np.flatnonzero(~(bound2 < RANK_BOUND2_MAX))
    if flagged.size:
        svs = np.linalg.svd(basis[flagged], full_matrices=False)[1]
        for row, sv in zip(flagged.tolist(), svs):
            _check_basis_rank(sv, spec, grids[row], row=first + row)
    # row i: R[:p, p]' (R_pp^{-1})' = (R_pp^{-1} R[:p, p])'
    return (r[:, None, :p, p] @ inv_t)[:, 0]


def check_sample_size(n: int, basis_sizes: Sequence[int]) -> None:
    """Raise :class:`SampleSizeError` unless n exceeds the parameter count
    k = 1 + sum(p_m) of predictors with ``basis_sizes`` p_m; a caller that
    knows the sizes before it builds the bases can check them first."""
    k = 1 + sum(basis_sizes)
    if n <= k:
        raise SampleSizeError(f"need n > k = 1 + sum(p_m): got n={n}, k={k}")


def build_dataset(
    curves: Sequence[Sequence[CurveBlock]],
    responses: np.ndarray,
    bases: Sequence[BasisSpec],
) -> FunctionalDataset:
    """Smooth every block and assemble a dataset.

    ``curves[m]`` holds predictor m's blocks; stacked in order, their rows
    are samples 0 .. n-1. Raises :class:`SampleSizeError` when n does not
    exceed the total parameter count k = 1 + sum(p_m). A curve that cannot
    be smoothed raises :class:`DataError` or :class:`RankDeficiencyError`
    naming its sample and predictor by position; its ``curve`` attribute
    holds (sample, predictor, last), where ``last`` is the last sample that
    shares the curve's grid, or None when no other sample does.
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
    check_sample_size(n, [spec.num_basis for spec in bases])
    coefs = []
    for m, (blocks, spec) in enumerate(zip(curves, bases)):
        parts = []
        first = 0
        for block in blocks:
            try:
                parts.append(smooth_block(block, spec))
            except (DataError, RankDeficiencyError) as exc:
                last = first + block.num_curves - 1
                shared = block.grid.ndim == 1 and last > first
                where = f" (grid shared by samples {first}-{last})" if shared else ""
                error = type(exc)(f"sample {first + exc.row}, predictor {m}{where}: {exc}")
                error.curve = (first + exc.row, m, last if shared else None)
                raise error from exc
            first += block.num_curves
        coefs.append(np.concatenate(parts))
    return FunctionalDataset(bases=bases, coefs=tuple(coefs), responses=responses)
