"""B-spline bases: clamped knot construction, evaluation, and Gram matrices.

A basis is described by an immutable :class:`BasisSpec`. Evaluation uses the
Cox-de Boor triangular scheme, run on all points of a call at once; the Gram
matrix of pairwise basis integrals is computed with Gauss-Legendre quadrature
per knot span, which is exact for the piecewise-polynomial integrand (degree+1
nodes integrate polynomials of degree 2*degree exactly).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "BasisSpec",
    "GramMatrix",
    "make_uniform_basis",
    "evaluate_basis",
    "evaluate_basis_matrix",
    "gram_matrix",
]


@dataclass(frozen=True)
class BasisSpec:
    """A clamped B-spline basis on [domain_lo, domain_hi].

    ``knots`` is the full knot vector of length ``num_basis + degree + 1``,
    with the first and last knots repeated ``degree + 1`` times.
    """

    domain_lo: float
    domain_hi: float
    degree: int
    num_basis: int
    knots: tuple[float, ...]

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        if self.num_basis <= self.degree:
            raise ValueError(
                f"num_basis ({self.num_basis}) must exceed degree ({self.degree})"
            )
        if not self.domain_lo < self.domain_hi:
            raise ValueError(
                f"domain_lo ({self.domain_lo}) must be < domain_hi ({self.domain_hi})"
            )
        expected = self.num_basis + self.degree + 1
        if len(self.knots) != expected:
            raise ValueError(
                f"knot vector length {len(self.knots)} != num_basis + degree + 1 = {expected}"
            )
        kn = np.asarray(self.knots, dtype=float)
        if np.any(np.diff(kn) < 0):
            raise ValueError("knots must be nondecreasing")
        mult = self.degree + 1
        if not (np.all(kn[:mult] == self.domain_lo) and np.all(kn[-mult:] == self.domain_hi)):
            raise ValueError(
                f"first and last knots must equal the domain endpoints with multiplicity {mult}"
            )
        interior = kn[mult:-mult]
        if interior.size and not (
            np.all(interior > self.domain_lo) and np.all(interior < self.domain_hi)
        ):
            raise ValueError("interior knots must lie strictly inside the domain")

    @property
    def knot_array(self) -> np.ndarray:
        return np.asarray(self.knots, dtype=float)

    @property
    def breakpoints(self) -> np.ndarray:
        """Distinct knot values, i.e. the knot-span boundaries."""
        return np.unique(self.knot_array)


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Matrix of pairwise basis-function integrals over the domain."""

    values: np.ndarray
    basis: BasisSpec


def make_uniform_basis(
    domain_lo: float, domain_hi: float, degree: int = 3, num_basis: int = 6
) -> BasisSpec:
    """Clamped knot vector with equally spaced interior knots.

    Places ``num_basis - degree - 1`` interior knots uniformly in the open
    domain, with endpoint multiplicity ``degree + 1``.
    """
    if degree < 0 or num_basis <= degree:
        raise ValueError(
            f"need num_basis > degree >= 0, got degree={degree}, num_basis={num_basis}"
        )
    if not domain_lo < domain_hi:
        raise ValueError(f"need domain_lo < domain_hi, got [{domain_lo}, {domain_hi}]")
    n_interior = num_basis - degree - 1
    interior = np.linspace(domain_lo, domain_hi, n_interior + 2)[1:-1]
    knots = (
        (float(domain_lo),) * (degree + 1)
        + tuple(float(t) for t in interior)
        + (float(domain_hi),) * (degree + 1)
    )
    return BasisSpec(float(domain_lo), float(domain_hi), degree, num_basis, knots)


def evaluate_basis(spec: BasisSpec, t: float) -> np.ndarray:
    """All ``num_basis`` basis values at t; nonnegative and summing to 1."""
    return evaluate_basis_matrix(spec, np.array([t], dtype=float))[0]


def evaluate_basis_matrix(spec: BasisSpec, ts: np.ndarray) -> np.ndarray:
    """Stack of basis evaluations, shape (len(ts), num_basis).

    Each point's knot span j satisfies knots[j] <= t < knots[j+1], clamped so
    the span is nonempty; at t == domain_hi the last nonempty span is used,
    which realizes the left-limit convention at the right endpoint. The
    degree+1 basis functions nonzero on each span come from the triangular
    Cox-de Boor recurrence, run for all points at once.
    """
    ts = np.asarray(ts, dtype=float).ravel()
    outside = ~((ts >= spec.domain_lo) & (ts <= spec.domain_hi))
    if np.any(outside):
        t = ts[np.argmax(outside)]
        raise ValueError(
            f"t={t} outside the basis domain [{spec.domain_lo}, {spec.domain_hi}]"
        )
    degree = spec.degree
    kn = spec.knot_array
    spans = np.searchsorted(kn, ts, side="right") - 1
    np.clip(spans, degree, spec.num_basis - 1, out=spans)
    # row j holds t - knots[span+1-j] and knots[span+j] - t; row 0 is unused
    steps = np.arange(degree + 1)[:, None]
    left = ts - kn[spans + 1 - steps]
    right = kn[spans + steps] - ts
    # values[r] is the r-th nonzero function on each point's span; level j
    # of the triangle splits each value of level j-1 between two neighbours
    values = np.empty((degree + 1, ts.size))
    values[0] = 1.0
    for j in range(1, degree + 1):
        tmp = values[:j] / (right[1 : j + 1] + left[j:0:-1])
        up = right[1 : j + 1] * tmp
        down = left[j:0:-1] * tmp
        values[j] = down[j - 1]
        values[1:j] = down[: j - 1] + up[1:j]
        values[0] = up[0]
    out = np.zeros((ts.size, spec.num_basis))
    out[np.arange(ts.size)[:, None], spans[:, None] + np.arange(-degree, 1)] = values.T
    return out


@lru_cache(maxsize=256)
def _gram_values(spec: BasisSpec) -> np.ndarray:
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


def gram_matrix(spec: BasisSpec) -> GramMatrix:
    """Exact cross-product matrix of the basis, entry (i,j) = integral of phi_i*phi_j."""
    return GramMatrix(values=_gram_values(spec), basis=spec)
