"""The bootstrap of the selection: every predictor tested on B resamples
of the rows, the resamples fitted together from their row counts.

A resample draws row i of the sample c_i times, so its fit is the fit of the
full sample with its rows weighted by the counts c. With one reduced QR of
the full sample, [Z | y] = Q R, the weighted cross products are R' H R with
H = Q' diag(c) Q, and a batch of resamples is fitted by k x k algebra on its
H's. H is close to I (the identity at c = 1), so this does not square the
condition number of Z the way the normal equations do. The H's of a batch
are one product of its b x n counts with the row-wise outer products of Q,
kept with the QR while their lower triangles fit in ``OUTER_FLOATS`` floats;
past that bound, each H is S'S with S = diag(c)^{1/2} Q, as many floats per
resample as the design. Each H = L L' is factored by one batched Cholesky.
With H = [[H_zz, h_zy], [h_zy', h_yy]], L_zz is the factor of H_zz, the last
row of L is [l', l_yy] with L_zz l = h_zy, and the Schur complement
h_yy - h_zy' W h_zy, W = H_zz^{-1}, is l_yy^2. With M = L_zz^{-1} by forward
substitution, W h_zy = M' l, so the coefficients are
R_zz^{-1} (r_zy + r_yy M' l), RSS is r_yy^2 l_yy^2 and
V = R_zz^{-1} W R_zz^{-T} = G G' with G = R_zz^{-1} M'. The tests read only
the diagonal blocks V_rr = G_r G_r' of V, G_r the rows of G over block r's
columns; G is upper triangular, so G_r is zero left of the block's first
column, and V_rr is formed from the rest of G_r alone. No step inverts a
general matrix.

A resample's count fit is certified when two bounds hold. ||H||_F
||H^{-1}||_F bounds cond(H); below ``COUNT_COND_MAX`` it shows H positive
definite and keeps W and the Schur complement, which cancels when a resample
is fitted almost exactly, to about ten digits. And the rank bound
||R_c||_F^2 ||R_c^{-1}||_F^2, for the R factor R_c = L_zz' R_zz of the
resample's design, bounds its cond^2 and must be below ``WALD_BOUND2_MAX``:
the Wald form b_r' (V_rr)^{-1} b_r / sigma2 of the statistics erred by up to
0.56 u times the rank bound (u the unit roundoff) on near-collinear designs,
at every decade of the bound up to 1e15, so by about 6e-8 at the cap, which
is 1e11 inside the rank check of :func:`~funcsel.linmodel.fit_ols`. The
norms are at hand: ||H^{-1}||_F <= trace(W) + (1 + |W h_zy|)^2 / schur from
the block inverse of H, since ||W||_F <= trace(W) = ||M||_F^2 for the
positive semidefinite W = M'M; ||R_c||_F^2 = sum_i c_i ||z_i||^2 and
||R_c^{-1}||_F^2 = trace(V) = ||G||_F^2. Q's orthogonality, R_zz^{-1} and W
err by about n u, cond(R_zz) u and cond(H) u relative, under 1e-3 for a
certified resample, so the bounds hold to first order. Every other
resample, and every resample of a batch whose factorization raises,
:func:`test_resamples` tests by :func:`~funcsel.inference.test_all` on its
own rows.

:func:`sample_qr` also fixes how many resamples a batch holds, from the
floats of the batch's temporaries (``RESAMPLE_FLOATS``), and allocates those
temporaries once (:class:`BatchWork`), so that the batches of a job do not
fault in again the megabytes that the C allocator handed back after each
one. It maps each row of [Z | y] to the first row equal to it, so that a
resample's distinct rows, not its distinct indices, decide whether its H is
singular. And it raises :class:`RankDeficiencyError` when R_zz has an
exactly zero pivot, since then no resample could be fitted.

:func:`bootstrap_counts` draws the batches' row indices in stream order
and tests them on the workers of :func:`~funcsel.workers.map_on_workers`:
where :func:`~funcsel.workers.two_workers` allows, the calling thread and
a helper thread each take the next batch, drawn under one lock, and test
it with temporaries of their own; the helper's are allocated only when it
starts. Each batch's selections and failures are integers, and integer
sums do not depend on their order, so every count is that of one worker.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .design import DesignMatrix
from .errors import NumericalError, RankDeficiencyError
from .inference import p_value, test_all
from .linmodel import _checked_response
from .seeds import rng_for
from .selection import check_method, check_q, selection_mask
from .smoothing import _invert_lower
from .workers import map_on_workers

__all__ = [
    "BatchWork",
    "ResampleFits",
    "SampleQR",
    "bootstrap_counts",
    "fit_resamples",
    "sample_qr",
    "test_resamples",
]

# largest bound on cond(H) at which fit_resamples trusts its algebra (the
# bound reads about 234 at H = I for k = 37)
COUNT_COND_MAX = 1e6

# largest rank bound (>= cond^2 of a resample's design) of a certified fit
WALD_BOUND2_MAX = 1e9

# most floats of row-wise outer products of Q that sample_qr keeps (8 MB):
# n (k+1)(k+2)/2 is 222,300 at n = 300 and k = 37, and fits up to n = 1,415
# at k = 37 and n = 139 at k = 121. Past the bound none are kept rather than
# some: every chunk reads all the kept products, which pays only when a chunk
# holds many resamples, and at such n it holds few
OUTER_FLOATS = 2**20

# floats in one batch of resamples fitted together, which sets its size b:
# per resample, n row counts, the (k+1)(k+2)/2 products of the counts with
# the outer products when those are kept and the n x (k+1) scaled rows of Q
# when not, the (k+1) x (k+1) H and its Cholesky factor L, the k x k
# M = L_zz^{-1} and G of fit_resamples, and the sum of k_r^2 of V's diagonal
# blocks. That is 76 resamples at n = 300 and k = 37 in six blocks of 6,
# where larger batches ran no faster. The counts, their products, H, M and G
# live in each worker's BatchWork; L, V's blocks and the scaled rows are new
# in each batch
RESAMPLE_FLOATS = 2**19


@dataclass(frozen=True, eq=False)
class BatchWork:
    """The arrays that :func:`fit_resamples` writes a batch's temporaries
    into, each with room for ``SampleQR.batch`` resamples: the row counts
    (batch, n), the lower triangles of the H's (batch, (k+1)(k+2)/2) as one
    product of the counts with ``SampleQR.outer`` (None when that is None),
    the H's themselves (batch, k+1, k+1), whose strict upper triangles stay
    zero, and the k x k M's and transposed G's. :func:`sample_qr` makes one
    for each :class:`SampleQR`, and :func:`bootstrap_counts` one more for
    its second worker."""

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

    ``covariance_blocks[r][j]`` is V_rr, the diagonal block over predictor
    r's columns of V = (Z_j' Z_j)^{-1} of resample j. ``certified[j]``
    is True when the count algebra of resample j is well conditioned and
    its rank bound is below ``WALD_BOUND2_MAX`` (see the module docstring);
    the other rows may hold no meaningful fit.
    """

    coefficients: np.ndarray
    covariance_blocks: tuple[np.ndarray, ...]
    sigma2_tilde: np.ndarray
    certified: np.ndarray


def sample_qr(design: DesignMatrix, y: np.ndarray) -> SampleQR:
    """Factor the full sample once for :func:`fit_resamples`. Checks ``y``
    as :func:`~funcsel.linmodel.fit_ols` does, and raises
    :class:`RankDeficiencyError` when R_zz has an exactly zero pivot (an
    all-zero column of the design, for one); then no resample, which has
    the same n and k or rows of the same design, can be fitted either."""
    y = _checked_response(design, y)
    n, k = design.values.shape
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
    first_copy = first[inverse]
    products = n * (k + 1) if outer is None else rows.size
    blocks = int(np.sum(np.diff(design.block_offsets) ** 2))
    batch = max(1, RESAMPLE_FLOATS // (n + products + 2 * (k + 1) ** 2 + 2 * k**2 + blocks))
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
        work=_batch_work(batch, n, k, outer is not None),
    )


def _batch_work(batch: int, n: int, k: int, outer: bool) -> BatchWork:
    """Fresh temporaries for batches of up to ``batch`` resamples of n rows
    of a design of k columns, with room for the lower triangles of the H's
    when ``outer``."""
    return BatchWork(
        counts=np.empty((batch, n)),
        tri=np.empty((batch, (k + 1) * (k + 2) // 2)) if outer else None,
        h=np.zeros((batch, k + 1, k + 1)),
        m=np.zeros((batch, k, k)),
        g_t=np.empty((batch, k, k)),
    )


def fit_resamples(qr: SampleQR, idx: np.ndarray) -> ResampleFits:
    """Fits of the resamples whose row indices are the rows of ``idx``, at
    most ``qr.batch`` of them, by the count algebra of the module docstring.

    Resample j weights row i of the sample by its count c_i in ``idx[j]``,
    where the draws of rows equal to row i count at the first of them
    (``qr.first_copy``), whose row of Q they share. A resample of at most k
    distinct rows has a singular H: its H is set to I before the
    factorization and it is left uncertified. An H that is otherwise not
    numerically positive definite makes the batched factorization raise
    LinAlgError, for the caller to fit the batch's resamples another way.
    The b x n counts, their product with ``qr.outer``, the H's and the k x k
    M's and G's are written into ``qr.work``, which the next call
    overwrites; the S's when ``qr.outer`` is None, the L's and the returned
    arrays are new, and the L's are released before V's blocks are formed.
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
        certified = ~singular & (cond_bound < COUNT_COND_MAX) & (rank_bound < WALD_BOUND2_MAX)
    offsets = qr.design.block_offsets
    # block r's columns of G' from its first row on, the nonzeros of G_r'
    panels = [g_t[:, lo:, lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]
    return ResampleFits(
        coefficients=(r_zy + r_yy * w_h) @ qr.r_inv.T,
        covariance_blocks=tuple(panel.transpose(0, 2, 1) @ panel for panel in panels),
        sigma2_tilde=r_yy**2 * schur / n,
        certified=certified,
    )


def _block_statistics(coefficients, blocks, sigma2, offsets) -> np.ndarray:
    """Statistics (b, M), the Wald forms b_r' (V_rr)^{-1} b_r / sigma2 floored
    at 0, of b fits with coefficients (b, k), diagonal blocks ``blocks[r]``
    (b, k_r, k_r) of V over columns ``offsets[r]:offsets[r + 1]`` and
    variance estimates ``sigma2`` (b,). A singular V_rr raises LinAlgError."""
    statistics = np.empty((len(coefficients), len(offsets) - 1))
    for r, (lo, hi, v_rr) in enumerate(zip(offsets[:-1], offsets[1:], blocks)):
        b_r = coefficients[:, lo:hi]
        rss_increase = (b_r[:, None, :] @ np.linalg.solve(v_rr, b_r[:, :, None]))[:, 0, 0]
        statistics[:, r] = np.maximum(rss_increase / sigma2, 0.0)
    return statistics


def test_resamples(qr: SampleQR, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Statistics and p-values, each (b, M), of every predictor on each
    resample ``idx[j]`` (n row indices into the sample of ``qr``).

    The resamples' fits come together from their row counts. A resample that
    the count fit does not certify, or every resample of a batch whose count
    fit or statistics raise, is tested by :func:`test_all` on its explicit
    rows instead; a resample whose fit fails there has a row of NaN.
    """
    offsets = qr.design.block_offsets
    statistics = np.full((len(idx), len(offsets) - 1), np.nan)
    try:
        fits = fit_resamples(qr, idx)
        ok = fits.certified
        # a slice when every resample is certified: a mask would copy V's blocks
        rows = slice(None) if ok.all() else ok
        blocks = [v_rr[rows] for v_rr in fits.covariance_blocks]
        statistics[rows] = _block_statistics(
            fits.coefficients[rows], blocks, fits.sigma2_tilde[rows], offsets
        )
    except np.linalg.LinAlgError:
        ok = np.zeros(len(idx), bool)
    for j in np.flatnonzero(~ok):
        resampled = DesignMatrix(values=qr.design.values[idx[j]], block_offsets=offsets)
        try:
            statistics[j] = test_all(resampled, qr.y[idx[j]])[0]
        except NumericalError:
            pass
    return statistics, p_value(statistics, np.diff(offsets))


def _resample_indices(rng: np.random.Generator, n: int, b: int, chunk: int):
    """The row indices of b bootstrap resamples of n rows, as (chunk, n)
    arrays (the last one shorter), from ``rng``: the same draws, in the same
    order, as b draws of n."""
    for start in range(0, b, chunk):
        yield rng.integers(0, n, size=(min(chunk, b - start), n))


def bootstrap_counts(
    design: DesignMatrix, y: np.ndarray, method: str, q: float, b: int, seed: int
) -> tuple[np.ndarray, int]:
    """How often each predictor is selected over b resamples of the rows,
    and how many resamples failed their fit (a rank-deficient design, or
    no more rows than columns). The resamples draw from the Philox stream
    keyed (seed, 0), in batches of ``SampleQR.batch``. The batches run on
    two workers where :func:`~funcsel.workers.two_workers` allows, else on
    the calling thread (see the module docstring); either way the counts
    are the same. A b below 1, an unknown method, a q outside (0, 1) or a
    seed that :func:`~funcsel.seeds.check_seed` rejects raises ValueError
    on entry, before any fit."""
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    check_method(method)
    check_q(q)
    rng = rng_for(seed, 0)
    try:
        qr = sample_qr(design, y)
    except NumericalError:
        return np.zeros(design.num_predictors, dtype=int), b

    def tally(idx: np.ndarray, qr: SampleQR) -> tuple[np.ndarray, int]:
        _, p_values = test_resamples(qr, idx)
        fitted = ~np.isnan(p_values[:, 0])
        selected = selection_mask(method, p_values[fitted], q).sum(axis=0)
        return selected, int(np.count_nonzero(~fitted))

    def new_qr() -> SampleQR:  # the same factors, with temporaries of its own
        work = _batch_work(qr.batch, *design.values.shape, qr.outer is not None)
        return replace(qr, work=work)

    batches = _resample_indices(rng, design.n, b, qr.batch)
    tallies = map_on_workers(tally, batches, qr, new_qr)
    return (
        np.sum([selected for selected, _ in tallies], axis=0),
        sum(failed for _, failed in tallies),
    )
