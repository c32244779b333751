"""Chi-square reference distributions and the per-predictor tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc, chdtri

from funcsel import NumericalError, fit_ols
from funcsel.design import DesignMatrix
from funcsel.inference import P_VALUE_FLOOR, block_statistics, diagonal_blocks, p_value
from funcsel.inference import test_all as run_test_all

from conftest import random_design
from oracles import (
    block_size,
    block_slice,
    chisq_cdf,
    column_deletion_rss,
    fit_restricted,
    noncentral_chisq_cdf,
)


def empirical_cdf(sample, probes):
    sample = np.sort(sample)
    return np.searchsorted(sample, probes, side="right") / sample.size


class TestChisqCdf:
    def test_at_origin(self):
        for dof in (1, 2, 6, 40):
            assert chisq_cdf(0.0, dof) == 0.0

    def test_dof2_exponential(self):
        for x in (0.5, 1.3863, 4.0, 9.0):
            assert chisq_cdf(x, 2) == pytest.approx(1 - np.exp(-x / 2), abs=1e-12)
        assert chisq_cdf(2 * np.log(2), 2) == pytest.approx(0.5, abs=1e-12)

    def test_monotone(self):
        xs = np.linspace(0.0, 30.0, 200)
        values = [chisq_cdf(x, 6) for x in xs]
        assert np.all(np.diff(values) >= 0)

    def test_monte_carlo_oracle(self):
        # fixed seed; with 20 simultaneous 3-sigma bands an occasional seed
        # trips one band by chance even though the CDF is exact
        rng = np.random.default_rng(102)
        draws = rng.chisquare(6, 10_000_000)
        probes = np.linspace(0.5, 20.0, 20)
        emp = empirical_cdf(draws, probes)
        for x, e in zip(probes, emp):
            p = chisq_cdf(x, 6)
            se = np.sqrt(p * (1 - p) / draws.size)
            assert abs(e - p) <= 3 * se + 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            chisq_cdf(-0.1, 3)
        with pytest.raises(ValueError):
            chisq_cdf(1.0, 0)


class TestNoncentralChisqCdf:
    def test_zero_delta_reduces_to_central(self):
        for x in (0.0, 1.0, 7.7, 25.0):
            assert noncentral_chisq_cdf(x, 6, 0.0) == pytest.approx(
                chisq_cdf(x, 6), abs=1e-12
            )

    def test_stochastic_dominance(self):
        for x in (1.0, 5.0, 12.0, 30.0):
            for delta in (0.5, 5.0, 50.0):
                assert 0.0 <= noncentral_chisq_cdf(x, 6, delta) <= chisq_cdf(x, 6)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(101)
        draws = rng.noncentral_chisquare(6, 50.0, 10_000_000)
        probes = np.linspace(20.0, 100.0, 20)
        emp = empirical_cdf(draws, probes)
        for x, e in zip(probes, emp):
            p = noncentral_chisq_cdf(x, 6, 50.0)
            se = np.sqrt(p * (1 - p) / draws.size)
            assert abs(e - p) <= 3 * se + 1e-12

    def test_large_delta_series_converges(self):
        # far from the origin, at delta = 5000, the CDF is still a probability
        value = noncentral_chisq_cdf(5200.0, 6, 5000.0)
        assert 0.5 < value < 1.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            noncentral_chisq_cdf(1.0, 6, -1.0)
        with pytest.raises(ValueError):
            noncentral_chisq_cdf(-1.0, 6, 1.0)


class TestPValue:
    """The closed-form integer-dof tail against scipy's ``chdtrc``."""

    @pytest.mark.parametrize("dof", range(1, 61))
    def test_matches_chdtrc_down_to_the_floor(self, dof):
        # past x = 2000 every tail up to dof 60 is below the floor; the
        # chdtri points sit just above it, where e^{-x/2} alone underflows
        x = np.concatenate(
            [
                [0.0],
                np.geomspace(1e-8, 2000.0, 400),
                np.linspace(0.0, 4.0 * dof + 40.0, 200),
                chdtri(dof, [1e-299, 1e-290, 1e-250, 1e-100, 1e-20]),
            ]
        )
        got, expected = p_value(x, dof), chdtrc(dof, x)
        above = expected > P_VALUE_FLOOR
        assert above.sum() > 500
        np.testing.assert_allclose(got[above], expected[above], rtol=1e-12, atol=0.0)
        assert np.all(got[~above] <= P_VALUE_FLOOR * (1.0 + 1e-12))
        assert np.all((got >= P_VALUE_FLOOR) & (got <= 1.0))

    def test_edge_values(self):
        dof = np.arange(1, 61)
        np.testing.assert_array_equal(p_value(np.zeros(60), dof), 1.0)
        assert np.all(np.isnan(p_value(np.full(60, np.nan), dof)))
        np.testing.assert_array_equal(p_value(np.full(60, np.inf), dof), P_VALUE_FLOOR)

    @pytest.mark.parametrize("dof", [0, -2, 2.0, [3, 0]])
    def test_dof_must_be_positive_integers(self, dof):
        with pytest.raises(ValueError, match="dof must be positive integers"):
            p_value(1.0, dof)

    def test_batch_equals_per_element_calls(self):
        # the (b, M)-by-(M,) broadcast of test_resamples, odd and even dof
        # mixed over the columns, with the edge values among the draws
        rng = np.random.default_rng(19)
        dof = np.array([1, 6, 3, 2, 37, 12])
        statistics = rng.chisquare(dof, size=(40, 6)) * rng.uniform(0.1, 30.0, (40, 1))
        statistics[0] = [0.0, np.nan, np.inf, 0.0, np.inf, np.nan]
        batch = p_value(statistics, dof)
        assert batch.shape == (40, 6)
        for (i, r), value in np.ndenumerate(batch):
            np.testing.assert_array_equal(value, p_value(statistics[i, r], dof[r]))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        st.floats(0.0, 2000.0),
        st.floats(0.0, 2000.0),
        st.integers(1, 60),
    )
    def test_monotone_in_statistic_and_dof(self, x1, x2, dof):
        lo, hi = sorted((x1, x2))
        assert p_value(hi, dof) <= p_value(lo, dof) * (1.0 + 1e-12)
        assert p_value(lo, dof) <= p_value(lo, dof + 1) * (1.0 + 1e-12)


def _orthogonal_block_design(rng, n=80):
    raw = rng.normal(size=(n, 7))
    q, _ = np.linalg.qr(np.column_stack([np.ones(n), raw]))
    values = np.column_stack([np.ones(n), q[:, 1:4], q[:, 4:8]])
    return DesignMatrix(values=values, block_offsets=(1, 4, 8))


class TestTestPredictor:
    """One predictor's statistic and p-value, as ``test_all`` reports them."""

    def test_costless_constraint(self):
        # noise-free response built without block 1; its columns are orthogonal
        # to the rest, so the constraint costs nothing
        rng = np.random.default_rng(12)
        design = _orthogonal_block_design(rng)
        b = rng.normal(size=design.k)
        b[block_slice(design, 1)] = 0.0
        y = design.values @ b + 0.05 * rng.normal(size=design.n)
        # project the noise away from block 1 to keep the constraint exactly free
        sl = block_slice(design, 1)
        block = design.values[:, sl]
        y = y - block @ (block.T @ y)
        statistics, p_values = run_test_all(design, y)
        assert statistics[1] == pytest.approx(0.0, abs=1e-8)
        assert p_values[1] == pytest.approx(1.0, abs=1e-8)

    def test_statistic_consistency(self):
        rng = np.random.default_rng(13)
        design, y = random_design(rng, 70, (4, 5))
        full = fit_ols(design, y)
        statistics, p_values = run_test_all(design, y)
        assert statistics.shape == p_values.shape == (2,)
        for r, (statistic, p) in enumerate(zip(statistics, p_values)):
            restricted = fit_restricted(design, y, full, r)
            expected = restricted.rss0 / full.sigma2_tilde - design.n
            assert statistic == pytest.approx(expected, rel=1e-8)
            assert p == pytest.approx(
                1.0 - chisq_cdf(statistic, block_size(design, r)), abs=1e-12
            )
            assert 0.0 <= p <= 1.0

    def test_p_value_floor(self):
        rng = np.random.default_rng(14)
        design = _orthogonal_block_design(rng, n=200)
        b = np.zeros(design.k)
        b[block_slice(design, 0)] = 50.0
        y = design.values @ b + 1e-6 * rng.normal(size=design.n)
        assert run_test_all(design, y)[1][0] == P_VALUE_FLOOR

    def test_singular_covariance_block_is_numerical_error(self):
        # a resample can make a block's covariance singular; the bootstrap
        # counts that as a failed resample, so it must not escape as numpy's
        # LinAlgError
        rng = np.random.default_rng(18)
        design, y = random_design(rng, 40, (4, 5))
        full = fit_ols(design, y)
        offsets = design.block_offsets
        covariance = full.covariance.copy()
        covariance[block_slice(design, 1)] = 0.0
        covariance[:, block_slice(design, 1)] = 0.0
        coefficients, sigma2 = full.coefficients, full.sigma2_tilde
        blocks = diagonal_blocks(covariance, offsets)
        assert block_statistics(coefficients, blocks, sigma2, offsets[:2])[0] > 0.0
        with pytest.raises(NumericalError, match="predictor 1"):
            block_statistics(coefficients, blocks, sigma2, offsets)

    def test_null_p_values_uniform(self):
        # fixed design, pure-noise responses: p-values follow Uniform(0,1);
        # n large relative to k keeps the chi-square approximation tight.
        # One QR of the design serves all 2000 responses, drawn in the order
        # of one fit per response: b = R^{-1} Q'y, RSS = |y|^2 - |Q'y|^2,
        # and the statistic is the Wald form that test_all uses.
        rng = np.random.default_rng(15)
        design, _ = random_design(rng, 8000, (4, 5))
        q, r = np.linalg.qr(design.values)
        r_inv = np.linalg.inv(r)
        block = block_slice(design, 0)
        v_rr = r_inv[block] @ r_inv[block].T
        p_values = np.empty(2000)
        for start in range(0, 2000, 250):
            responses = rng.normal(size=(250, design.n))
            qty = q.T @ responses.T
            b_r = (r_inv @ qty)[block]
            rss = np.sum(responses**2, axis=1) - np.sum(qty**2, axis=0)
            statistic = np.sum(b_r * np.linalg.solve(v_rr, b_r), axis=0) / (rss / design.n)
            p_values[start : start + 250] = chdtrc(block_size(design, 0), statistic)
            if start == 0:
                for y, value in zip(responses[:5], statistic[:5]):
                    expected = run_test_all(design, y)[0][0]
                    assert value == pytest.approx(expected, rel=1e-10)
        grid = np.sort(p_values)
        positions = np.arange(1, 2001) / 2000
        ks = np.max(np.abs(grid - positions))
        assert ks < 1.628 / np.sqrt(2000)  # 0.01-level critical value


class TestTestAll:
    def test_batch_equals_per_row_calls(self):
        # a (b, M) batch of fits gives, bit for bit, the statistics of
        # calling block_statistics on each fit alone
        rng = np.random.default_rng(16)
        design, _ = random_design(rng, 40, (4, 5, 6))
        fits = [fit_ols(design, rng.normal(size=design.n)) for _ in range(7)]
        coefficients = np.stack([fit.coefficients for fit in fits])
        covariance = np.stack([fit.covariance for fit in fits])
        sigma2 = np.array([fit.sigma2_tilde for fit in fits])
        offsets = design.block_offsets
        blocks = diagonal_blocks(covariance, offsets)
        batch = block_statistics(coefficients, blocks, sigma2, offsets)
        assert batch.shape == (7, 3)
        for row, fit in zip(batch, fits):
            blocks = diagonal_blocks(fit.covariance, offsets)
            single = block_statistics(fit.coefficients, blocks, fit.sigma2_tilde, offsets)
            np.testing.assert_array_equal(row, single)

    def test_permutation_null_uniform(self):
        rng = np.random.default_rng(17)
        design, _ = random_design(rng, 2000, (4, 5))
        b = rng.normal(size=design.k)
        y = design.values @ b + rng.normal(size=design.n)
        n_perm = 400
        p_values = np.empty((n_perm, 2))
        for i in range(n_perm):
            p_values[i] = run_test_all(design, rng.permutation(y))[1]
        positions = np.arange(1, n_perm + 1) / n_perm
        for r in range(2):
            grid = np.sort(p_values[:, r])
            ks = np.max(np.abs(grid - positions))
            assert ks < 1.628 / np.sqrt(n_perm)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the Wald form b_r'(V_rr)^-1 b_r loses digits on an ill-conditioned "
        "design that still passes fit_ols's rank check",
    )
    def test_near_collinear_block_matches_column_deletion_oracle(self):
        # columns 4 and 5, both in predictor 1's block, differ by noise of sd
        # 1e-7, so sigma_min/sigma_max of the design is 3.4e-8 > RANK_RTOL;
        # predictor 1 reads 1.3906 against the likelihood-ratio value 1.3330
        rng = np.random.default_rng(0)
        z = np.column_stack([np.ones(60), rng.standard_normal((60, 9))])
        z[:, 5] = z[:, 4] + 1e-7 * rng.standard_normal(60)
        y = z[:, 1] + z[:, 8] + rng.standard_normal(60)
        design = DesignMatrix(values=z, block_offsets=(1, 4, 7, 10))
        coef, *_ = np.linalg.lstsq(z, y, rcond=None)
        rss = float(np.sum((y - z @ coef) ** 2))
        oracle = [
            (column_deletion_rss(design, y, r) - rss) / (rss / design.n)
            for r in range(design.num_predictors)
        ]
        np.testing.assert_allclose(run_test_all(design, y)[0], oracle, rtol=1e-6)
