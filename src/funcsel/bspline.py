"""B-spline bases: clamped uniform knots, evaluation, and Gram matrices.

A basis is described by an immutable :class:`BasisSpec`. Evaluation uses the
Cox-de Boor triangular scheme, run on all points of a call at once and in
place, in a few preallocated rows of n values; the Gram matrix of pairwise
basis integrals is computed with Gauss-Legendre quadrature per knot span,
which is exact for the piecewise-polynomial integrand (degree+1 nodes
integrate polynomials of degree 2*degree exactly). It is cached per
basis, and :func:`~funcsel.design.build_design` reads it there for each
predictor, so callers never build or pass Gram matrices. The design's rank is
checked once per fit, in :func:`~funcsel.linmodel.fit_ols`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "BasisSpec",
    "make_uniform_basis",
    "evaluate_basis_matrix",
    "gram_matrix",
]


@dataclass(frozen=True)
class BasisSpec:
    """A clamped B-spline basis on [domain_lo, domain_hi] with uniform knots.

    ``knots``, the full knot vector of length ``num_basis + degree + 1``, is
    derived: the ends repeated ``degree + 1`` times around the
    ``num_basis - degree - 1`` equally spaced interior knots of the open
    domain. Domain, degree and size fix it, so it takes no part in equality.
    """

    domain_lo: float
    domain_hi: float
    degree: int
    num_basis: int
    knots: tuple[float, ...] = field(init=False, compare=False)

    def __post_init__(self):
        lo, hi, degree = self.domain_lo, self.domain_hi, self.degree
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        if self.num_basis <= degree:
            raise ValueError(f"num_basis ({self.num_basis}) must exceed degree ({degree})")
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"domain_lo ({lo}) must be < domain_hi ({hi}), both finite")
        # below the smallest normal float, the recurrence's divisions by
        # sums of knot spacings overflow to inf and nan
        spacing = (hi - lo) / (self.num_basis - degree)
        if spacing < np.finfo(float).tiny:
            raise ValueError(
                f"knot spacing ({hi} - {lo}) / {self.num_basis - degree} = {spacing} "
                f"is below the smallest normal float, {np.finfo(float).tiny}"
            )
        interior = np.linspace(lo, hi, self.num_basis - degree + 1)[1:-1]
        knots = (lo,) * (degree + 1) + tuple(interior.tolist()) + (hi,) * (degree + 1)
        if not np.all(np.diff(knots[degree : self.num_basis + 1]) > 0):
            raise ValueError(
                f"interior knots must lie strictly inside the domain and increase; "
                f"{self.num_basis - degree - 1} equally spaced in [{lo}, {hi}] do not"
            )
        object.__setattr__(self, "knots", knots)

    @property
    def knot_array(self) -> np.ndarray:
        return np.asarray(self.knots, dtype=float)

    @property
    def breakpoints(self) -> np.ndarray:
        """Distinct knot values, i.e. the knot-span boundaries."""
        kn = self.knot_array  # nondecreasing, so a repeat follows its first
        return kn[np.append(True, kn[1:] != kn[:-1])]


def make_uniform_basis(
    domain_lo: float, domain_hi: float, degree: int = 3, num_basis: int = 6
) -> BasisSpec:
    """The clamped basis of ``num_basis`` functions of ``degree`` with
    uniform knots on [domain_lo, domain_hi] (see :class:`BasisSpec`)."""
    return BasisSpec(float(domain_lo), float(domain_hi), degree, num_basis)


def evaluate_basis_matrix(spec: BasisSpec, ts: np.ndarray) -> np.ndarray:
    """Stack of basis evaluations, shape (len(ts), num_basis).

    Each point's knot span j satisfies knots[j] <= t < knots[j+1], clamped so
    the span is nonempty; at t == domain_hi the last nonempty span is used,
    which realizes the left-limit convention at the right endpoint. The
    degree+1 basis functions nonzero on each span come from the triangular
    Cox-de Boor recurrence, run for all points at once. Each level of the
    triangle is written in place over (degree+1, n) rows, with the
    floating-point operations, in the same order, of the recurrence on
    fresh arrays, so every value is the same to the bit.
    """
    ts = np.asarray(ts, dtype=float).ravel()
    outside = ~((ts >= spec.domain_lo) & (ts <= spec.domain_hi))
    if np.any(outside):
        t = ts[np.argmax(outside)]
        raise ValueError(
            f"t={t} outside the basis domain [{spec.domain_lo}, {spec.domain_hi}]"
        )
    degree, p, n = spec.degree, spec.num_basis, ts.size
    kn = spec.knot_array
    # the first of the degree+1 functions nonzero on each point's span
    first = np.searchsorted(kn, ts, side="right")
    first -= degree + 1
    np.clip(first, 0, p - 1 - degree, out=first)
    # row j holds t - knots[span+1-j] and knots[span+j] - t; row 0 is unused
    left = np.empty((degree + 1, n))
    right = np.empty((degree + 1, n))
    for j in range(1, degree + 1):
        np.subtract(ts, kn[degree + 1 - j :].take(first), out=left[j])
        np.subtract(kn[degree + j :].take(first), ts, out=right[j])
    # values[r] is the r-th nonzero function on each point's span; level j
    # of the triangle splits each value of level j-1 between two neighbours:
    # with tmp = values[r] / (right[r+1] + left[j-r]), values[r] becomes
    # down + right[r+1] * tmp, where down = left[j-r+1] * tmp of r-1 (none
    # at r = 0), and values[j] the last down. Until then values[j] holds
    # each down, from one r to the next
    values = np.empty((degree + 1, n))
    values[0] = 1.0
    tmp = np.empty(n)
    for j in range(1, degree + 1):
        for r in range(j):
            np.add(right[r + 1], left[j - r], out=tmp)
            np.divide(values[r], tmp, out=tmp)
            np.multiply(right[r + 1], tmp, out=values[r])
            if r:
                np.add(values[j], values[r], out=values[r])
            np.multiply(left[j - r], tmp, out=values[j])
    # values[r] goes to column first + r, through the flat view
    out = np.zeros(n * p)
    first += np.arange(0, out.size, p)
    for r in range(degree + 1):
        out[first] = values[r]
        first += 1
    return out.reshape(n, p)


@lru_cache(maxsize=256)
def gram_matrix(spec: BasisSpec) -> np.ndarray:
    """Exact cross-product matrix of the basis, entry (i,j) = integral of phi_i*phi_j.

    Cached per basis; the returned array is read-only and shared by callers.
    """
    nodes, weights = np.polynomial.legendre.leggauss(spec.degree + 1)
    p = spec.num_basis
    gram = np.zeros((p, p))
    bp = spec.breakpoints
    for a, b in zip(bp[:-1], bp[1:]):
        half = 0.5 * (b - a)
        ts = 0.5 * (a + b) + half * nodes
        basis_at_nodes = evaluate_basis_matrix(spec, ts)
        gram += (basis_at_nodes * (half * weights)[:, None]).T @ basis_at_nodes
    # enforce exact symmetry and the exact band pattern
    gram = 0.5 * (gram + gram.T)
    i, j = np.indices(gram.shape)
    gram[np.abs(i - j) > spec.degree] = 0.0
    gram.setflags(write=False)
    return gram
