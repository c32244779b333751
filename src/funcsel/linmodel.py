"""Least squares on the assembled design, with the one rank check of a design.

The fit takes one R-only QR decomposition of the augmented matrix [Z | y]:
its leading k x k block R_zz is the R factor of Z, its last column holds Q'y
in the first k rows and the residual norm in row k, so the coefficients are
R_zz^{-1} (Q'y) and RSS = R[k, k]^2 without forming Q or the fitted values.
R_zz has the singular values of Z, so the rank check reads them there. The
fit keeps V = (Z'Z)^{-1} = R_zz^{-1} R_zz^{-T}, whose diagonal blocks the
per-predictor tests need, so no test refits.

A bootstrap resample draws row i of the sample c_i times, so its fit is the
fit of the full sample with its rows weighted by the counts c. With one
reduced QR of the full sample, [Z | y] = Q R, the weighted cross products
are R' H R with H = Q' diag(c) Q, and :func:`fit_resamples` takes every
fit of a batch of resamples from k x k algebra on the H's. H is close to I
(the identity at c = 1), so this does not square the condition number of Z
the way the normal equations do. The H's of a batch come from one matrix
product of its b x n counts with the row-wise outer products of Q, kept with
the QR while their lower triangles fit in ``OUTER_FLOATS`` floats; past that
bound, each H comes from the rows of Q scaled by the square roots of the
counts, as many floats per resample as the design. Their fits come from one
batched Cholesky factorization, one forward substitution and matrix
products. No step inverts a general matrix. When the factorization raises,
the caller fits the batch's resamples on their own rows. :func:`sample_qr`
also fixes how many resamples a batch holds, from the floats of the batch's
temporaries (``RESAMPLE_FLOATS``), and allocates those temporaries once
(:class:`BatchWork`): every batch of a job writes into the same arrays, so
the C allocator does not hand megabytes back to the system after one batch
only to fault them in again for the next. It maps each row of [Z | y] to the
first row equal to it, so that a resample's distinct rows, not its distinct
indices, decide whether its H is singular. And it raises
:class:`RankDeficiencyError` when R_zz has an exactly zero pivot, since then
no resample could be fitted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import DesignMatrix
from .errors import RANK_RTOL, RankDeficiencyError, SampleSizeError, check_rank
from .smoothing import _invert_lower

__all__ = [
    "BatchWork",
    "FitResult",
    "ResampleFits",
    "SampleQR",
    "fit_ols",
    "fit_resamples",
    "sample_qr",
]

# largest bound on cond(H) at which fit_resamples trusts its algebra (the
# bound reads about 234 at H = I for k = 37)
COUNT_COND_MAX = 1e6

# most floats of row-wise outer products of Q that sample_qr keeps (8 MB):
# n (k+1)(k+2)/2 is 222,300 at n = 300 and k = 37, and fits up to n = 1,415
# at k = 37 and n = 139 at k = 121. Past the bound none are kept rather than
# some: every chunk reads all the kept products, which pays only when a chunk
# holds many resamples, and at such n it holds few
OUTER_FLOATS = 2**20

# floats in one batch of resamples fitted together, which sets its size b:
# per resample, n row counts, the n x (k+1) scaled rows of Q when no outer
# products are kept, the (k+1) x (k+1) H and its Cholesky factor L, and the
# k x k M = L_zz^{-1}, G and V of fit_resamples. That is 71 resamples at
# n = 300 and k = 37, where larger batches ran no faster. The counts, H, M and
# G (and the products of the counts with the outer products, which this count
# leaves out) live in the job's BatchWork; L, V and the scaled rows are new in
# each batch
RESAMPLE_FLOATS = 2**19


@dataclass(frozen=True, eq=False)
class FitResult:
    """Unrestricted least-squares fit.

    ``covariance`` is V = (Z'Z)^{-1}. ``sigma2_tilde`` is the
    maximum-likelihood variance estimate RSS/n.
    """

    coefficients: np.ndarray
    covariance: np.ndarray
    sigma2_tilde: float


def fit_ols(design: DesignMatrix, y: np.ndarray) -> FitResult:
    """Ordinary least squares from one QR of [Z | y].

    Raises :class:`SampleSizeError` unless n > k, and
    :class:`RankDeficiencyError` when the relative smallest singular value
    of the design falls below ``errors.RANK_RTOL`` (1e-10).
    """
    y = np.asarray(y, dtype=float)
    n, k = design.values.shape
    if y.shape != (n,):
        raise ValueError(f"response shape {y.shape} does not match design rows {n}")
    if n <= k:
        raise SampleSizeError(f"need n > k, got n={n}, k={k}")
    r = np.linalg.qr(np.column_stack([design.values, y]), mode="r")
    check_rank(np.linalg.svd(r[:k, :k], compute_uv=False), "design matrix")
    r_inv = np.asfortranarray(np.linalg.inv(r[:k, :k]))
    return FitResult(
        coefficients=r_inv @ r[:k, k],
        covariance=r_inv @ r_inv.T,
        sigma2_tilde=float(r[k, k] ** 2) / n,
    )


@dataclass(frozen=True, eq=False)
class BatchWork:
    """The arrays that :func:`fit_resamples` writes a batch's temporaries
    into, each with room for ``SampleQR.batch`` resamples: the row counts
    (batch, n), the lower triangles of the H's (batch, (k+1)(k+2)/2) as one
    product of the counts with ``SampleQR.outer`` (None when that is None),
    the H's themselves (batch, k+1, k+1), whose strict upper triangles stay
    zero, and the k x k M's and transposed G's. :func:`sample_qr` makes one
    for each :class:`SampleQR`."""

    counts: np.ndarray
    tri: np.ndarray | None
    h: np.ndarray
    m: np.ndarray
    g_t: np.ndarray


@dataclass(frozen=True, eq=False)
class SampleQR:
    """One reduced QR of the full sample, [Z | y] = Q R, kept for refits.

    Row i of ``outer`` holds the lower triangle, in ``np.tril_indices``
    order, of the outer product q_i q_i' of row i of Q, so that c' outer is
    the lower triangle of H = Q' diag(c) Q. ``outer`` is None when the
    products of all n rows do not fit in ``OUTER_FLOATS`` floats; ``q`` is
    Q. ``r_inv`` is the inverse of the design block R_zz. ``row_norms2``
    holds the squared norms of the design rows. ``first_copy[i]`` is the
    first row of [Z | y] equal to row i (i itself when no earlier row is).
    ``batch`` is the most resamples to pass to :func:`fit_resamples` at a
    time, the most whose temporaries fit in ``RESAMPLE_FLOATS`` floats (at
    least 1), and ``work`` holds those temporaries from one batch to the
    next.
    """

    design: DesignMatrix
    y: np.ndarray
    outer: np.ndarray | None
    q: np.ndarray
    r: np.ndarray
    r_inv: np.ndarray
    row_norms2: np.ndarray
    first_copy: np.ndarray
    batch: int
    work: BatchWork


@dataclass(frozen=True, eq=False)
class ResampleFits:
    """Least-squares fits of a batch of b resamples of the rows.

    ``covariance[j]`` is V = (Z_j' Z_j)^{-1} of resample j. ``certified[j]``
    is True when the count algebra of resample j is well conditioned and the
    resample provably passes the rank check of :func:`fit_ols`; the other
    rows may hold no meaningful fit.
    """

    coefficients: np.ndarray
    covariance: np.ndarray
    sigma2_tilde: np.ndarray
    certified: np.ndarray


def sample_qr(design: DesignMatrix, y: np.ndarray) -> SampleQR:
    """Factor the full sample once for :func:`fit_resamples`. Raises
    :class:`SampleSizeError` unless n > k, as :func:`fit_ols` does, and
    :class:`RankDeficiencyError` when R_zz has an exactly zero pivot (an
    all-zero column of the design, for one); then no resample, which has
    the same n and k or rows of the same design, can be fitted either."""
    y = np.asarray(y, dtype=float)
    n, k = design.values.shape
    if n <= k:
        raise SampleSizeError(f"need n > k, got n={n}, k={k}")
    data = np.column_stack([design.values, y])
    q, r = np.linalg.qr(data)
    rows, cols = np.tril_indices(k + 1)
    outer = None
    if n * rows.size <= OUTER_FLOATS:
        outer = q[:, rows]
        outer *= q[:, cols]
    try:
        r_inv = np.asfortranarray(np.linalg.inv(r[:k, :k]))
    except np.linalg.LinAlgError:
        raise RankDeficiencyError("design matrix is exactly singular") from None
    _, first, inverse = np.unique(data, axis=0, return_index=True, return_inverse=True)
    first_copy = first[inverse.reshape(-1)]  # numpy 2.0.0 gives a 2-D inverse
    scaled = n * (k + 1) if outer is None else 0
    batch = max(1, RESAMPLE_FLOATS // (n + scaled + 2 * (k + 1) ** 2 + 3 * k**2))
    return SampleQR(
        design=design,
        y=y,
        outer=outer,
        q=q,
        r=r,
        r_inv=r_inv,
        row_norms2=np.einsum("ij,ij->i", design.values, design.values),
        first_copy=first_copy,
        batch=batch,
        work=BatchWork(
            counts=np.empty((batch, n)),
            tri=None if outer is None else np.empty((batch, rows.size)),
            h=np.zeros((batch, k + 1, k + 1)),
            m=np.zeros((batch, k, k)),
            g_t=np.empty((batch, k, k)),
        ),
    )


def fit_resamples(qr: SampleQR, idx: np.ndarray) -> ResampleFits:
    """Fits of the resamples whose row indices are the rows of ``idx``, at
    most ``qr.batch`` of them.

    Resample j weights row i of the sample by its count c_i in ``idx[j]``,
    where the draws of rows equal to row i count at the first of them
    (``qr.first_copy``), whose row of Q they share. The lower triangles of
    all the H = Q' diag(c) Q are one product of the b x n counts with
    ``qr.outer`` or, when it is None, each H is S'S with
    S = diag(c)^{1/2} Q. Each H = L L' is factored by one batched Cholesky.
    With H partitioned as [[H_zz, h_zy], [h_zy', h_yy]], L_zz is the factor
    of H_zz, the last row of L is [l', l_yy] with L_zz l = h_zy, and the
    Schur complement h_yy - h_zy' W h_zy, W = H_zz^{-1}, is l_yy^2. With
    M = L_zz^{-1} by forward substitution, W h_zy = M' l, so the
    coefficients are R_zz^{-1} (r_zy + r_yy M' l), RSS is r_yy^2 l_yy^2 and
    V = R_zz^{-1} W R_zz^{-T} = G G' with G = R_zz^{-1} M'. A resample of at
    most k distinct rows has a singular H: its H is set to I before the
    factorization and it is left uncertified. An H that is otherwise not
    numerically positive definite makes the batched factorization raise
    LinAlgError, for the caller to fit the batch's resamples another way.
    The b x n counts, their product with ``qr.outer``, the H's and the k x k
    M's and G's are written into ``qr.work``, which the next call
    overwrites; the S's when ``qr.outer`` is None, the L's and the returned
    arrays are new, and the L's are released before the V's are formed.

    A resample is certified when two bounds hold. ||H||_F ||H^{-1}||_F
    bounds the condition number of the whole (k+1) x (k+1) H; below
    ``COUNT_COND_MAX`` it shows H positive definite and keeps W and the Schur
    complement, which cancels when a resample is fitted almost exactly, to
    about ten digits. And ||R_c||_F ||R_c^{-1}||_F, for the R factor
    R_c = L_zz' R_zz of the resample's design, bounds sigma_max/sigma_min
    from above; below 1/RANK_RTOL the resample passes the rank check of
    :func:`fit_ols`. The norms are at hand: ||H^{-1}||_F <= trace(W) +
    (1 + |W h_zy|)^2 / schur from the block inverse of H, since
    ||W||_F <= trace(W) = ||M||_F^2 for the positive semidefinite W = M'M;
    ||R_c||_F^2 = sum_i c_i ||z_i||^2 and ||R_c^{-1}||_F^2 = trace(V) =
    ||G||_F^2.
    """
    b, n = idx.shape
    k = qr.r_inv.shape[0]
    if b > qr.batch:
        raise ValueError(f"got {b} resamples; at most qr.batch = {qr.batch} fit at a time")
    work = qr.work
    rows, cols = np.tril_indices(k + 1)
    counts = work.counts[:b]
    counts[...] = np.bincount(
        (qr.first_copy[idx] + n * np.arange(b)[:, None]).ravel(), minlength=b * n
    ).reshape(b, n)
    singular = np.count_nonzero(counts, axis=1) <= k
    h = work.h[:b]
    if qr.outer is None:
        scaled = np.sqrt(counts)[:, :, None] * qr.q
        np.matmul(scaled.transpose(0, 2, 1), scaled, out=h)
        upper_rows, upper_cols = np.triu_indices(k + 1, 1)
        h[:, upper_rows, upper_cols] = 0.0
    else:
        h[:, rows, cols] = np.matmul(counts, qr.outer, out=work.tri[:b])
    h[singular] = np.eye(k + 1)
    l = np.linalg.cholesky(h)
    r_zy, r_yy = qr.r[:k, k], qr.r[k, k]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        m_inv = _invert_lower(l[:, :k, :k], out=work.m[:b])
        w_h = (l[:, k, None, :k] @ m_inv)[:, 0]
        schur = l[:, k, k] ** 2
        del l  # spent: V can take its memory
        g_t = work.g_t[:b]  # G'
        np.matmul(m_inv.reshape(b * k, k), qr.r_inv.T, out=g_t.reshape(b * k, k))
        h_norm = np.sqrt(  # of the symmetric H, from its lower triangle
            2 * np.einsum("bij,bij->b", h, h) - np.einsum("bii,bii->b", h, h)
        )
        w_trace = np.einsum("bij,bij->b", m_inv, m_inv)
        schur_term = (1.0 + np.linalg.norm(w_h, axis=1)) ** 2 / schur
        cond_bound = h_norm * (w_trace + schur_term)
        rank_bound = (counts @ qr.row_norms2) * np.einsum("bij,bij->b", g_t, g_t)
        certified = (
            ~singular & (cond_bound < COUNT_COND_MAX) & (rank_bound < RANK_RTOL**-2)
        )
    return ResampleFits(
        coefficients=(r_zy + r_yy * w_h) @ qr.r_inv.T,
        covariance=g_t.transpose(0, 2, 1) @ g_t,
        sigma2_tilde=r_yy**2 * schur / n,
        certified=certified,
    )
