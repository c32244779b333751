"""Full least squares, the restricted-fit oracles, and noncentrality."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from funcsel import (
    DataError,
    NumericalError,
    RankDeficiencyError,
    SampleSizeError,
    fit_ols,
)
from funcsel.bootstrap import (
    WALD_BOUND2_MAX,
    _block_statistics,
    _resample_indices,
    bootstrap_counts,
    fit_resamples,
    sample_qr,
)
from funcsel.bootstrap import test_resamples as run_test_resamples
from funcsel.design import DesignMatrix
from funcsel.errors import RANK_BOUND2_MAX, RANK_RTOL
from funcsel.inference import test_all as run_test_all
from funcsel.seeds import rng_for
from funcsel.simgen import SimScenario, coefficient_functions
from funcsel.smoothing import _invert_lower

from conftest import (
    project_coefficients,
    random_design,
    standard_bases,
    synthetic_design,
)
from oracles import (
    block_size,
    block_slice,
    bootstrap_loop,
    column_deletion_rss,
    fit_restricted,
    noncentrality,
    projection_matrices,
    projection_rss_identity_check,
)


@pytest.fixture(scope="module")
def scenario_fit():
    design, y, data, _ = synthetic_design(SimScenario(c=0.0, n=300, seed=17))
    return design, y, fit_ols(design, y)


class TestFitOls:
    def test_interpolation(self):
        rng = np.random.default_rng(0)
        design, _ = random_design(rng, 50, (4, 5))
        b = rng.normal(size=design.k)
        y = design.values @ b
        fit = fit_ols(design, y)
        assert np.max(np.abs(fit.coefficients - b)) < 1e-10
        assert design.n * fit.sigma2_tilde < 1e-16 * (y @ y)

    def test_orthogonal_response(self):
        rng = np.random.default_rng(1)
        design, _ = random_design(rng, 60, (4,))
        y = rng.normal(size=60)
        q, _ = np.linalg.qr(design.values)
        y_perp = y - q @ (q.T @ y)
        fit = fit_ols(design, y_perp)
        assert np.max(np.abs(fit.coefficients)) < 1e-8
        assert design.n * fit.sigma2_tilde == pytest.approx(float(y_perp @ y_perp), rel=1e-10)

    def test_matches_normal_equations_oracle(self, scenario_fit):
        design, y, fit = scenario_fit
        # SVD-based solver as an independent oracle for the QR path
        oracle, *_ = np.linalg.lstsq(design.values, y, rcond=None)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(fit.coefficients - oracle)) < 1e-8 * scale

    def test_invariants(self, scenario_fit):
        design, y, fit = scenario_fit
        resid = y - design.values @ fit.coefficients
        assert design.n * fit.sigma2_tilde == pytest.approx(float(resid @ resid), rel=1e-8)
        assert np.max(np.abs(design.values.T @ resid)) < 1e-6 * np.linalg.norm(y)
        assert fit.coefficients.shape == fit.qty.shape == (37,)
        assert fit.r_inv.shape == (37, 37)

    def test_covariance_is_inverse_gram(self, scenario_fit):
        # V = R^{-1} R^{-T} against an explicit inverse of Z'Z, and
        # |Q'y|^2 + RSS = |y|^2
        design, y, fit = scenario_fit
        oracle = np.linalg.inv(design.values.T @ design.values)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(fit.r_inv @ fit.r_inv.T - oracle)) < 1e-6 * scale
        assert fit.qty @ fit.qty + design.n * fit.sigma2_tilde == pytest.approx(y @ y, rel=1e-12)

    def test_bit_identical_to_solve_triangular_oracle(self, scenario_fit):
        # R_zz^{-1} from numpy's inverse of the triangular R_zz, in Fortran
        # order, equals scipy's triangular solve bit for bit, and so do the
        # coefficients computed from it
        rng = np.random.default_rng(5)
        cases = [scenario_fit[:2]] + [
            random_design(rng, n, blocks)
            for n, blocks in [(40, (4, 5)), (80, (6, 6, 6)), (300, (6,) * 6)] * 4
        ]
        for design, y in cases:
            k = design.k
            r = np.linalg.qr(np.column_stack([design.values, y]), mode="r")
            r_inv = scipy.linalg.solve_triangular(r[:k, :k], np.eye(k))
            fit = fit_ols(design, y)
            np.testing.assert_array_equal(fit.coefficients, r_inv @ r[:k, k])
            np.testing.assert_array_equal(fit.r_inv, r_inv)
            np.testing.assert_array_equal(fit.qty, r[:k, k])

    def test_rank_deficient_rejected(self):
        rng = np.random.default_rng(2)
        col = rng.normal(size=20)
        values = np.column_stack([np.ones(20), col, col])
        design = DesignMatrix(values=values, block_offsets=(1, 3))
        with pytest.raises(NumericalError, match="rank"):
            fit_ols(design, rng.normal(size=20))

    def test_near_collinear_design_rejected(self):
        # sigma_min/sigma_max of [1, x, x + 1e-11 e] is about 5.7e-12: the
        # diagonal of R alone does not show it, the singular values of R do
        rng = np.random.default_rng(2)
        x = rng.normal(size=40)
        e = rng.normal(size=40)
        values = np.column_stack([np.ones(40), x, x + 1e-11 * e])
        sv = np.linalg.svd(values, compute_uv=False)
        assert sv[-1] / sv[0] < 1e-10
        design = DesignMatrix(values=values, block_offsets=(1, 3))
        with pytest.raises(RankDeficiencyError, match="smallest/largest singular value"):
            fit_ols(design, rng.normal(size=40))

    @pytest.mark.parametrize("n", [4, 5])
    def test_no_more_rows_than_columns(self, n):
        rng = np.random.default_rng(2)
        design = DesignMatrix(values=rng.normal(size=(n, 5)), block_offsets=(1, 5))
        with pytest.raises(SampleSizeError, match="need n > k"):
            fit_ols(design, rng.normal(size=n))
        with pytest.raises(SampleSizeError, match="need n > k"):
            sample_qr(design, rng.normal(size=n))

    def test_shape_mismatch(self):
        rng = np.random.default_rng(2)
        design, _ = random_design(rng, 30, (4,))
        with pytest.raises(ValueError, match="shape"):
            fit_ols(design, np.zeros(29))

    @pytest.mark.parametrize("shape", [(60, 2), (59,)])
    def test_sample_qr_checks_the_response_as_fit_ols_does(self, shape):
        rng = np.random.default_rng(2)
        design, _ = random_design(rng, 60, (4,))
        y = rng.normal(size=shape)
        for fit in (fit_ols, sample_qr):
            with pytest.raises(ValueError, match=r"response shape \(.*\) does not match"):
                fit(design, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_response_is_a_data_error(self, bad):
        # unchecked, test_all returns NaN statistics here, and the bootstrap
        # counts the 32 of 50 resamples that draw row 2 as failed
        rng = np.random.default_rng(1)
        design, _ = random_design(rng, 60, (4, 4))
        y = rng.normal(size=60)
        y[2] = bad
        for run in (
            lambda: fit_ols(design, y),
            lambda: sample_qr(design, y),
            lambda: run_test_all(design, y),
            lambda: bootstrap_counts(design, y, "bc", 0.05, 50, 1),
        ):
            with pytest.raises(DataError, match="response at row 2 is not finite"):
                run()


def _assert_fits_match(fits, j, design, y, rows):
    """Resample j of a batch's fits against the fit and the statistics of
    its own rows of the sample."""
    offsets = design.block_offsets
    resampled = DesignMatrix(values=design.values[rows], block_offsets=offsets)
    expected = fit_ols(resampled, y[rows])
    np.testing.assert_allclose(fits.sigma2_tilde[j], expected.sigma2_tilde, rtol=1e-10)
    blocks = [v_rr[j : j + 1] for v_rr in fits.covariance_blocks]
    expected_blocks = [
        expected.r_inv[lo:hi] @ expected.r_inv[lo:hi].T for lo, hi in zip(offsets[:-1], offsets[1:])
    ]
    assert len(blocks) == len(expected_blocks)
    for got, want in [(fits.coefficients[j], expected.coefficients),
                      *zip((block[0] for block in blocks), expected_blocks)]:
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())
    np.testing.assert_allclose(
        _block_statistics(fits.coefficients[j : j + 1], blocks, fits.sigma2_tilde[j : j + 1],
                          offsets)[0],
        run_test_all(resampled, y[rows])[0],
        rtol=1e-10,
    )


def _fit_arrays(fits):
    """Every array of a batch's fits, V's blocks one by one."""
    return [fits.coefficients, *fits.covariance_blocks, fits.sigma2_tilde, fits.certified]


class TestFitResamples:
    @pytest.mark.parametrize("k", [1, 2, 7, 37])
    def test_invert_lower_matches_inverse(self, k):
        # Cholesky factors of random positive definite matrices, as in
        # fit_resamples, and triangles with random entries and diagonal
        rng = np.random.default_rng(k)
        a = rng.normal(size=(9, 2 * k, k))
        factors = np.linalg.cholesky(a.transpose(0, 2, 1) @ a)
        triangles = np.tril(rng.normal(size=(9, k, k)), -1) / np.sqrt(k)
        triangles[:, range(k), range(k)] = rng.uniform(0.5, 2.0, size=(9, k)) * rng.choice(
            [-1, 1], size=(9, k)
        )
        for stack in (factors, triangles):
            m = _invert_lower(stack)
            expected = np.linalg.inv(stack)
            np.testing.assert_allclose(m, expected, rtol=1e-12, atol=1e-13 * np.abs(expected).max())
            assert not np.triu(m, 1).any()

    @pytest.mark.parametrize("k", [3, 13])
    def test_invert_lower_into_a_used_buffer(self, k):
        # the buffer holds the inverses of an earlier stack, as a batch
        # workspace does from one batch to the next
        rng = np.random.default_rng(k)
        first, second = (
            np.linalg.cholesky(a.transpose(0, 2, 1) @ a) for a in rng.normal(size=(2, 5, 2 * k, k))
        )
        buffer = _invert_lower(first)
        m = _invert_lower(second, out=buffer)
        assert m is buffer
        expected = np.linalg.inv(second)
        np.testing.assert_allclose(m, expected, rtol=1e-12, atol=1e-13 * np.abs(expected).max())
        np.testing.assert_array_equal(m, _invert_lower(second))
        assert not np.triu(m, 1).any()

    @pytest.mark.parametrize("distinct", [3, 13])
    def test_few_distinct_rows_leave_the_batch_certified(self, distinct):
        # a resample of at most k = 13 distinct rows has a singular H; the
        # other resamples of its batch keep certified count fits
        rng = np.random.default_rng(distinct)
        design, y = random_design(rng, 40, (6, 6))
        idx = rng.integers(0, 40, size=(6, 40))
        idx[2] = rng.choice(40, distinct, replace=False)[np.arange(40) % distinct]
        assert np.unique(idx[2]).size == distinct <= design.k
        fits = fit_resamples(sample_qr(design, y), idx)
        np.testing.assert_array_equal(fits.certified, np.arange(6) != 2)
        for j in (0, 1, 3, 4, 5):
            _assert_fits_match(fits, j, design, y, idx[j])

    def test_repeated_data_rows_refit_the_batch(self):
        # rows 20-39 repeat rows 0-19: resample 2 draws 20 distinct indices
        # but only 10 distinct rows, fewer than the k + 1 = 14 columns of
        # [Z | y], so its H is singular. The screen counts distinct rows,
        # not indices, so it sets that H to I and the batch's Cholesky does
        # not raise; resample 2 alone is fitted on its own rows, and fails
        rng = np.random.default_rng(5)
        base, y_base = random_design(rng, 20, (6, 6))
        design = DesignMatrix(values=np.vstack([base.values] * 2),
                              block_offsets=base.block_offsets)
        y = np.concatenate([y_base] * 2)
        idx = rng.integers(0, 40, size=(6, 40))
        idx[2] = np.concatenate([np.arange(10), np.arange(20, 30)])[np.arange(40) % 20]
        qr = sample_qr(design, y)
        np.testing.assert_array_equal(fit_resamples(qr, idx).certified, np.arange(6) != 2)
        statistics, p_values = run_test_resamples(qr, idx)
        assert np.isnan(statistics[2]).all() and np.isnan(p_values[2]).all()
        for j in (0, 1, 3, 4, 5):
            resampled = DesignMatrix(values=design.values[idx[j]],
                                     block_offsets=design.block_offsets)
            np.testing.assert_allclose(
                statistics[j], run_test_all(resampled, y[idx[j]])[0], rtol=1e-10
            )
        # one of these 200 resamples has fewer than 14 distinct rows, as
        # resample 2 has
        selected, failed = bootstrap_counts(design, y, "bc", 0.05, 200, 5)
        expected_counts, expected_failed = bootstrap_loop(design, y, "bc", 0.05, 200, 5)
        assert failed == expected_failed == 1
        np.testing.assert_array_equal(selected, expected_counts)

    def test_signed_zero_rows_share_a_first_copy(self):
        # rows 9 and 7 equal rows 4 and 2 but for the sign of a zero, once
        # with -0.0 in the later row and once in the earlier one
        rng = np.random.default_rng(8)
        design, y = random_design(rng, 30, (6, 6))
        z = design.values.copy()
        z[[9, 7]], y[[9, 7]] = z[[4, 2]], y[[4, 2]]
        z[[4, 9, 2, 7], 3] = 0.0, -0.0, -0.0, 0.0
        y[[4, 9]] = 0.0, -0.0
        qr = sample_qr(DesignMatrix(values=z, block_offsets=design.block_offsets), y)
        expected = np.arange(30)
        expected[[9, 7]] = 4, 2
        np.testing.assert_array_equal(qr.first_copy, expected)

    def test_reused_workspace_matches_per_resample_oracle(self):
        # k = 37 and n = 60: batches of 78, so B = 200 ends in a short batch
        # of 44, and about half the resamples have at most k distinct rows.
        # Their H is set to I in the workspace that the batch before left
        # full of other H's
        rng = np.random.default_rng(60)
        z = np.column_stack([np.ones(60), rng.normal(size=(60, 36))])
        y = z[:, 1:7].sum(axis=1) + rng.normal(size=60)
        design = DesignMatrix(values=z, block_offsets=(1, 7, 13, 19, 25, 31, 37))
        qr = sample_qr(design, y)
        chunks = list(_resample_indices(rng_for(3, 0), 60, 200, qr.batch))
        assert [len(idx) for idx in chunks] == [78, 78, 44]
        for idx in chunks:
            singular = np.array([np.unique(rows).size <= design.k for rows in idx])
            assert singular.any() and not singular.all()
            fits = fit_resamples(qr, idx)
            assert not fits.certified[singular].any()
            assert (qr.work.h[: len(idx)][singular] == np.eye(design.k + 1)).all()
        selected, failed = bootstrap_counts(design, y, "bc", 0.05, 200, 3)
        expected_counts, expected_failed = bootstrap_loop(design, y, "bc", 0.05, 200, 3)
        assert 0 < failed == expected_failed < 200
        np.testing.assert_array_equal(selected, expected_counts)

    def test_fits_outlive_the_next_batch(self):
        # a batch's fits hold no view of the workspace that the next batch
        # overwrites
        rng = np.random.default_rng(11)
        design, y = random_design(rng, 60, (6, 6, 6))
        qr = sample_qr(design, y)
        first, second = rng.integers(0, 60, size=(2, 8, 60))
        fits = fit_resamples(qr, first)
        kept = [array.copy() for array in _fit_arrays(fits)]
        fit_resamples(qr, second)
        for array, value in zip(_fit_arrays(fits), kept, strict=True):
            np.testing.assert_array_equal(array, value)
            for buffer in vars(qr.work).values():
                assert buffer is None or not np.shares_memory(array, buffer)

    def test_sample_qrs_used_alternately_match_each_alone(self):
        # two jobs' workspaces, of different k, do not share state
        rng = np.random.default_rng(12)
        cases = [random_design(rng, 50, sizes) for sizes in [(4, 5), (6, 6, 6)]]
        chunks = [rng.integers(0, 50, size=(3, 7, 50)) for _ in cases]

        def fitted(qr, idx):
            return _fit_arrays(fit_resamples(qr, idx))

        alone = [
            [fitted(qr, idx) for idx in case_chunks]
            for qr, case_chunks in zip((sample_qr(*case) for case in cases), chunks)
        ]
        qrs = [sample_qr(*case) for case in cases]
        for i in range(3):
            for c, qr in enumerate(qrs):
                for got, want in zip(fitted(qr, chunks[c][i]), alone[c][i], strict=True):
                    np.testing.assert_array_equal(got, want)

    def test_more_resamples_than_a_batch_rejected(self):
        rng = np.random.default_rng(13)
        design, y = random_design(rng, 60, (6,))
        qr = sample_qr(design, y)
        with pytest.raises(ValueError, match="at most qr.batch"):
            fit_resamples(qr, rng.integers(0, 60, size=(qr.batch + 1, 60)))

    @pytest.mark.parametrize("kept", [0, 60])
    def test_outer_products_kept_only_within_bound(self, monkeypatch, kept):
        # the outer products of all 60 rows fit in OUTER_FLOATS or none are
        # kept, and then each H comes from the rows of Q scaled by the roots
        # of the counts
        rng = np.random.default_rng(7)
        design, y = random_design(rng, 60, (6, 6, 6))
        k = design.k
        monkeypatch.setattr("funcsel.bootstrap.OUTER_FLOATS", 60 * (k + 1) * (k + 2) // 2
                            - (kept == 0))
        qr = sample_qr(design, y)
        assert (qr.outer is None) == (kept == 0)
        idx = rng.integers(0, 60, size=(8, 60))
        fits = fit_resamples(qr, idx)
        assert fits.certified.all()
        # the bound on ||H||_F reads the lower triangles alone
        assert not np.triu(qr.work.h[:8], 1).any()
        for j, rows in enumerate(idx):
            _assert_fits_match(fits, j, design, y, rows)

    # n = 300 keeps the outer products within OUTER_FLOATS, unless the bound
    # is lowered below them; n = 10,000 never keeps them
    @pytest.mark.parametrize(
        "n, lowered, batch", [(300, False, 76), (300, True, 29), (10_000, False, 1)]
    )
    def test_batch_fills_resample_floats(self, monkeypatch, n, lowered, batch):
        # per resample: n counts, the (k+1)(k+2)/2 products of the counts
        # with the outer products or the n x (k+1) scaled rows of Q without
        # them, the (k+1) x (k+1) H and L, two k x k matrices and the six
        # 6 x 6 diagonal blocks of V
        rng = np.random.default_rng(n)
        k = 37
        design = DesignMatrix(values=rng.normal(size=(n, k)), block_offsets=(1, *range(7, 38, 6)))
        if lowered:
            monkeypatch.setattr("funcsel.bootstrap.OUTER_FLOATS", n * (k + 1) * (k + 2) // 2 - 1)
        qr = sample_qr(design, rng.normal(size=n))
        products = n * (k + 1) if qr.outer is None else (k + 1) * (k + 2) // 2
        assert (qr.outer is None) == (lowered or n == 10_000)
        per_resample = n + products + 2 * (k + 1) ** 2 + 2 * k**2 + 6 * 6**2
        assert qr.batch == max(1, 2**19 // per_resample) == batch

    def test_rank_bound_within_the_margin_is_not_certified(self):
        # column 3 scaled by 3.98e-10 puts the identity resample's squared
        # rank bound between RANK_BOUND2_MAX and 1/RANK_RTOL^2: the design
        # just passes the rank check, but the bound is far above
        # WALD_BOUND2_MAX, so the resample is fitted on its own rows
        rng = np.random.default_rng(7)
        z = np.column_stack([np.ones(60), rng.normal(size=(60, 6))])
        z[:, 3] *= 3.98e-10
        y = rng.normal(size=60)
        design = DesignMatrix(values=z, block_offsets=(1, 4, 7))
        fits = fit_resamples(sample_qr(design, y), np.arange(60)[None])
        bound2 = (z**2).sum() * np.sum(fit_ols(design, y).r_inv ** 2)
        assert WALD_BOUND2_MAX < RANK_BOUND2_MAX <= bound2 < RANK_RTOL**-2
        assert not fits.certified[0]
        for method in ("bc", "fdr"):
            selected, failed = bootstrap_counts(design, y, method, 0.05, 200, 3)
            expected_counts, expected_failed = bootstrap_loop(design, y, method, 0.05, 200, 3)
            assert failed == expected_failed
            np.testing.assert_array_equal(selected, expected_counts)

    def test_singular_covariance_block_refits_the_batch(self, monkeypatch):
        # a resample can make a block's covariance numerically singular: the
        # Wald form then raises numpy's LinAlgError, which must not escape,
        # and every resample of the batch is tested on its own rows instead
        rng = np.random.default_rng(18)
        design, y = random_design(rng, 40, (4, 5))
        qr = sample_qr(design, y)
        idx = rng.integers(0, 40, size=(5, 40))
        fits = fit_resamples(qr, idx)
        blocks = [v_rr.copy() for v_rr in fits.covariance_blocks]
        blocks[1][2] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            _block_statistics(fits.coefficients, blocks, fits.sigma2_tilde, design.block_offsets)
        singular = dataclasses.replace(fits, covariance_blocks=tuple(blocks))
        monkeypatch.setattr("funcsel.bootstrap.fit_resamples", lambda qr, idx: singular)
        statistics, _ = run_test_resamples(qr, idx)
        for rows, row in zip(idx, statistics):
            resampled = DesignMatrix(values=design.values[rows], block_offsets=design.block_offsets)
            np.testing.assert_array_equal(row, run_test_all(resampled, y[rows])[0])

    def test_exactly_singular_design_rejected(self):
        # an all-zero column leaves an exactly zero pivot in R_zz, so no
        # resample can be fitted
        rng = np.random.default_rng(8)
        z = rng.normal(size=(40, 7))
        z[:, 3] = 0.0
        design = DesignMatrix(values=z, block_offsets=(1, 7))
        with pytest.raises(RankDeficiencyError, match="exactly singular"):
            sample_qr(design, rng.normal(size=40))

    def test_no_inverse_needed(self):
        # the resample fits take a Cholesky factor and forward substitution,
        # never np.linalg.inv
        rng = np.random.default_rng(3)
        design, y = random_design(rng, 60, (6, 6, 6))
        qr = sample_qr(design, y)
        idx = rng.integers(0, 60, size=(8, 60))

        def no_inverse(*args, **kwargs):
            raise AssertionError("np.linalg.inv called")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "inv", no_inverse)
            fits = fit_resamples(qr, idx)
        assert fits.certified.all()
        for j, rows in enumerate(idx):
            _assert_fits_match(fits, j, design, y, rows)


class TestFitRestricted:
    def test_orthogonal_blocks(self):
        # block 1 orthogonal to the intercept and block 0: zeroing it leaves
        # the other coefficients untouched
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(80, 7))
        q, _ = np.linalg.qr(np.column_stack([np.ones(80), raw]))
        values = np.column_stack([np.ones(80), q[:, 1:4] + 0.0, q[:, 4:8]])
        design = DesignMatrix(values=values, block_offsets=(1, 4, 8))
        y = rng.normal(size=80)
        full = fit_ols(design, y)
        restricted = fit_restricted(design, y, full, 1)
        sl = block_slice(design, 1)
        assert np.all(restricted.coefficients_0[sl] == 0.0)
        keep = np.ones(design.k, dtype=bool)
        keep[sl] = False
        assert restricted.coefficients_0[keep] == pytest.approx(
            full.coefficients[keep], abs=1e-10
        )

    def test_column_deletion_oracle(self):
        # the package's restricted RSS, RSS + statistic * sigma2_tilde
        rng = np.random.default_rng(4)
        for trial in range(20):
            design, y = random_design(rng, 60, (4, 5, 6))
            full = fit_ols(design, y)
            statistics, _ = run_test_all(design, y)
            for r in range(3):
                rss0 = (design.n + statistics[r]) * full.sigma2_tilde
                oracle = column_deletion_rss(design, y, r)
                assert abs(rss0 - oracle) < 1e-8 * oracle

    def test_rss_monotone(self):
        rng = np.random.default_rng(5)
        design, y = random_design(rng, 45, (4, 4))
        # strict: the statistic is clamped at 0, which would hide a
        # restricted RSS below the full one
        assert np.all(run_test_all(design, y)[0] > 0.0)

    def test_index_out_of_range(self):
        rng = np.random.default_rng(5)
        design, y = random_design(rng, 45, (4,))
        full = fit_ols(design, y)
        for r in (1, -1):
            with pytest.raises(ValueError, match="out of range"):
                fit_restricted(design, y, full, r)


class TestProjections:
    def test_identity_random_trials(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for trial in range(100):
            design, y = random_design(rng, 40, (4, 5))
            r = trial % 2
            diff, quad = projection_rss_identity_check(design, y, r)
            worst = max(worst, abs(diff - quad) / max(abs(quad), 1e-12))
        assert worst < 1e-6

    def test_restricted_space_annihilated(self):
        rng = np.random.default_rng(7)
        design, _ = random_design(rng, 40, (4, 5))
        keep = np.ones(design.k, dtype=bool)
        keep[block_slice(design, 0)] = False
        y = design.values[:, keep] @ rng.normal(size=keep.sum())
        diff, quad = projection_rss_identity_check(design, y, 0)
        assert abs(diff) < 1e-10 * (y @ y)
        assert abs(quad) < 1e-10 * (y @ y)

    def test_idempotence(self):
        rng = np.random.default_rng(8)
        design, _ = random_design(rng, 35, (4, 4))
        p_full, p_restr = projection_matrices(design, 1)
        assert np.max(np.abs(p_full @ p_full - p_full)) < 1e-10
        assert np.max(np.abs(p_restr @ p_restr - p_restr)) < 1e-10
        assert np.max(np.abs(p_full @ p_restr - p_restr)) < 1e-10


class TestNoncentrality:
    def test_matches_projection_form(self):
        rng = np.random.default_rng(9)
        design, _ = random_design(rng, 50, (4, 5))
        b = rng.normal(size=design.k)
        sigma2 = 1.7
        for r in range(2):
            p_full, p_restr = projection_matrices(design, r)
            mu = design.values @ b
            oracle = float(mu @ ((p_full - p_restr) @ mu)) / sigma2
            got = noncentrality(design, b, sigma2, r)
            assert abs(got - oracle) < 1e-8 * max(oracle, 1.0)

    def test_zero_for_orthogonalized_truth(self):
        rng = np.random.default_rng(10)
        design, _ = random_design(rng, 50, (4, 5))
        b = rng.normal(size=design.k)
        b[block_slice(design, 1)] = 0.0
        assert noncentrality(design, b, 1.0, 1) < 1e-16

    def test_invalid_sigma2(self):
        rng = np.random.default_rng(10)
        design, _ = random_design(rng, 50, (4,))
        with pytest.raises(ValueError, match="sigma2"):
            noncentrality(design, np.zeros(design.k), 0.0, 0)

    def test_growth_linear_in_sample_size(self):
        # delta / (n - k0) is stable as nested samples grow
        design, _, _, _ = synthetic_design(SimScenario(c=0.8, n=800, seed=3))
        bases = standard_bases()
        b = project_coefficients(bases, coefficient_functions(0.8))
        k0 = design.k - block_size(design, 4)
        ratios = []
        for n in (100, 200, 400, 800):
            sub = DesignMatrix(
                values=design.values[:n], block_offsets=design.block_offsets
            )
            ratios.append(noncentrality(sub, b, 1.0, 4) / (n - k0))
        ratios = np.array(ratios)
        consecutive = ratios[1:] / ratios[:-1]
        assert np.max(np.abs(consecutive - 1.0)) < 0.15
