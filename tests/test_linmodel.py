"""Full least squares, the restricted-fit oracles, and noncentrality."""

import numpy as np
import pytest
import scipy.linalg

from funcsel import NumericalError, RankDeficiencyError, SampleSizeError, fit_ols
from funcsel.cli import bootstrap_counts
from funcsel.design import DesignMatrix
from funcsel.inference import block_statistics
from funcsel.inference import test_all as run_test_all
from funcsel.inference import test_resamples as run_test_resamples
from funcsel.linmodel import _invert_lower, fit_resamples, sample_qr
from funcsel.simgen import SimScenario, coefficient_functions

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
        assert fit.coefficients.shape == (37,) and fit.covariance.shape == (37, 37)

    def test_covariance_is_inverse_gram(self, scenario_fit):
        # V = R^{-1} R^{-T} against an explicit inverse of Z'Z
        design, _, fit = scenario_fit
        oracle = np.linalg.inv(design.values.T @ design.values)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(fit.covariance - oracle)) < 1e-6 * scale

    def test_bit_identical_to_solve_triangular_oracle(self, scenario_fit):
        # R_zz^{-1} from numpy's inverse of the triangular R_zz, in Fortran
        # order, equals scipy's triangular solve bit for bit, and so do the
        # coefficients and V computed from it
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
            np.testing.assert_array_equal(fit.covariance, r_inv @ r_inv.T)

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


def _explicit_fit(design, y, rows):
    resampled = DesignMatrix(values=design.values[rows], block_offsets=design.block_offsets)
    return fit_ols(resampled, y[rows])


def _assert_fits_match(fits, j, expected, offsets):
    np.testing.assert_allclose(fits.sigma2_tilde[j], expected.sigma2_tilde, rtol=1e-10)
    for got, want in [(fits.coefficients[j], expected.coefficients),
                      (fits.covariance[j], expected.covariance)]:
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())
    np.testing.assert_allclose(
        block_statistics(fits.coefficients[j], fits.covariance[j], fits.sigma2_tilde[j], offsets),
        block_statistics(expected.coefficients, expected.covariance,
                         expected.sigma2_tilde, offsets),
        rtol=1e-10,
    )


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
            _assert_fits_match(fits, j, _explicit_fit(design, y, idx[j]), design.block_offsets)

    def test_repeated_data_rows_refit_the_batch(self):
        # rows 20-39 repeat rows 0-19: resample 2 draws 20 distinct indices
        # but only 10 distinct rows, fewer than the k + 1 = 14 columns of
        # [Z | y], so its H is singular while passing the distinct-index
        # screen. The batched Cholesky raises, every resample of the batch
        # is fitted on its own rows, and resample 2 fails there
        rng = np.random.default_rng(5)
        base, y_base = random_design(rng, 20, (6, 6))
        design = DesignMatrix(values=np.vstack([base.values] * 2),
                              block_offsets=base.block_offsets)
        y = np.concatenate([y_base] * 2)
        idx = rng.integers(0, 40, size=(6, 40))
        idx[2] = np.concatenate([np.arange(10), np.arange(20, 30)])[np.arange(40) % 20]
        qr = sample_qr(design, y)
        with pytest.raises(np.linalg.LinAlgError):
            fit_resamples(qr, idx)
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

    @pytest.mark.parametrize("kept", [0, 60])
    def test_outer_products_kept_only_within_bound(self, monkeypatch, kept):
        # the outer products of all 60 rows fit in OUTER_FLOATS or none are
        # kept, and then each H comes from the rows of Q scaled by the roots
        # of the counts
        rng = np.random.default_rng(7)
        design, y = random_design(rng, 60, (6, 6, 6))
        k = design.k
        monkeypatch.setattr("funcsel.linmodel.OUTER_FLOATS", 60 * (k + 1) * (k + 2) // 2
                            - (kept == 0))
        qr = sample_qr(design, y)
        assert (qr.outer is None) == (kept == 0)
        idx = rng.integers(0, 60, size=(8, 60))
        fits = fit_resamples(qr, idx)
        assert fits.certified.all()
        for j, rows in enumerate(idx):
            _assert_fits_match(fits, j, _explicit_fit(design, y, rows), design.block_offsets)

    # n = 300 keeps the outer products within OUTER_FLOATS, unless the bound
    # is lowered below them; n = 10,000 never keeps them
    @pytest.mark.parametrize(
        "n, lowered, batch", [(300, False, 71), (300, True, 28), (10_000, False, 1)]
    )
    def test_batch_fills_resample_floats(self, monkeypatch, n, lowered, batch):
        # per resample: n counts, n x (k+1) scaled rows of Q without outer
        # products, the (k+1) x (k+1) H and L, and three k x k matrices
        rng = np.random.default_rng(n)
        k = 37
        design = DesignMatrix(values=rng.normal(size=(n, k)), block_offsets=(1, *range(7, 38, 6)))
        if lowered:
            monkeypatch.setattr("funcsel.linmodel.OUTER_FLOATS", n * (k + 1) * (k + 2) // 2 - 1)
        qr = sample_qr(design, rng.normal(size=n))
        scaled = n * (k + 1) if qr.outer is None else 0
        assert (qr.outer is None) == (lowered or n == 10_000)
        assert qr.batch == max(1, 2**19 // (n + scaled + 2 * (k + 1) ** 2 + 3 * k**2)) == batch

    def test_exactly_singular_design_rejected(self):
        # an all-zero column leaves an exactly zero pivot in R_zz, so no
        # resample can be fitted
        rng = np.random.default_rng(8)
        z = rng.normal(size=(40, 7))
        z[:, 3] = 0.0
        design = DesignMatrix(values=z, block_offsets=(1, 7))
        with pytest.raises(RankDeficiencyError, match="exactly singular"):
            sample_qr(design, rng.normal(size=40))

    def test_no_inverse_needed(self, monkeypatch):
        # the resample fits take a Cholesky factor and forward substitution,
        # never np.linalg.inv
        rng = np.random.default_rng(3)
        design, y = random_design(rng, 60, (6, 6, 6))
        qr = sample_qr(design, y)
        idx = rng.integers(0, 60, size=(8, 60))
        expected = [_explicit_fit(design, y, rows) for rows in idx]

        def no_inverse(*args, **kwargs):
            raise AssertionError("np.linalg.inv called")

        monkeypatch.setattr(np.linalg, "inv", no_inverse)
        fits = fit_resamples(qr, idx)
        assert fits.certified.all()
        for j, fit in enumerate(expected):
            _assert_fits_match(fits, j, fit, design.block_offsets)


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
