"""Synthetic-data generators and the Monte Carlo selection experiment."""

import json

import numpy as np
import pytest

from funcsel.simgen import (
    DOMAINS,
    NUM_PREDICTORS,
    SimScenario,
    coefficient_functions,
    generate_replication,
    run_monte_carlo,
    true_index_set,
    _curve_values,
    _draw_curve_params,
    _rng_for,
)


class TestScenarioValidation:
    def test_minimum_sample_size(self):
        with pytest.raises(ValueError, match="n"):
            SimScenario(c=0.0, n=49, seed=0)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            SimScenario(c=0.0, n=100, seed=-1)

    def test_negative_noise(self):
        with pytest.raises(ValueError, match="noise"):
            SimScenario(c=0.0, n=100, seed=0, noise_x_mult=-0.1)


class TestTruth:
    def test_null_scenario_index_set(self):
        assert true_index_set(0.0) == frozenset({0, 1, 3})

    def test_signal_scenario_index_set(self):
        assert true_index_set(0.4) == frozenset({0, 1, 2, 3, 4})
        assert true_index_set(0.8) == frozenset({0, 1, 2, 3, 4})

    def test_coefficient_functions(self):
        betas = coefficient_functions(0.8)
        t = np.linspace(0.0, 1.0, 7)
        assert betas[0](t) == pytest.approx(np.sin(t))
        assert betas[1](t) == pytest.approx(np.sin(2 * t))
        assert betas[2](t) == pytest.approx(-0.8 * t**2)
        assert betas[3](t) == pytest.approx(np.sin(2 * t))
        assert betas[4](t) == pytest.approx(0.8 * np.sin(np.pi * t))
        assert betas[5](t) == pytest.approx(np.zeros_like(t))


class TestGenerateReplication:
    def test_noise_free_curves_and_responses(self):
        scenario = SimScenario(
            c=0.8, n=60, seed=5, noise_x_mult=0.0, noise_y_mult=0.0
        )
        curves, y, truth = generate_replication(scenario, 0)
        params = _draw_curve_params(_rng_for(scenario, 0), 60)
        betas = coefficient_functions(0.8)
        # observed values equal the true curves exactly
        for m in range(NUM_PREDICTORS):
            (block,) = curves[m]
            exact = _curve_values(params, m, block.grid)
            for i in (0, 17, 59):
                assert block.values[i] == pytest.approx(exact[i], abs=0.0)
        # responses equal the sum of integrals, via a fine-trapezoid oracle
        oracle = np.zeros(60)
        for m, (lo, hi) in enumerate(DOMAINS):
            ts = np.linspace(lo, hi, 200_001)
            integrand = _curve_values(params, m, ts) * betas[m](ts)
            oracle += np.trapezoid(integrand, ts, axis=1)
        assert y == pytest.approx(oracle, rel=1e-8)

    def test_null_coefficients_do_not_contribute(self):
        scenario = SimScenario(
            c=0.0, n=60, seed=5, noise_x_mult=0.0, noise_y_mult=0.0
        )
        _, y, truth = generate_replication(scenario, 0)
        assert truth.true_indices == frozenset({0, 1, 3})
        params = _draw_curve_params(_rng_for(scenario, 0), 60)
        betas = coefficient_functions(0.0)
        oracle = np.zeros(60)
        for m in (0, 1, 3):  # the only nonzero coefficient functions
            lo, hi = DOMAINS[m]
            ts = np.linspace(lo, hi, 200_001)
            integrand = _curve_values(params, m, ts) * betas[m](ts)
            oracle += np.trapezoid(integrand, ts, axis=1)
        assert y == pytest.approx(oracle, rel=1e-8)

    def test_quadrature_against_trapezoid_oracle(self):
        scenario = SimScenario(c=0.8, n=100, seed=11)
        params = _draw_curve_params(_rng_for(scenario, 0), 100)
        lo, hi = DOMAINS[4]
        ts = np.linspace(lo, hi, 1_000_001)
        integrand = _curve_values(params, 4, ts) * (0.8 * np.sin(np.pi * ts))
        oracle = np.trapezoid(integrand, ts, axis=1)
        nodes, weights = np.polynomial.legendre.leggauss(64)
        half = 0.5 * (hi - lo)
        quad_ts = 0.5 * (hi + lo) + half * nodes
        got = _curve_values(params, 4, quad_ts) @ (
            half * weights * 0.8 * np.sin(np.pi * quad_ts)
        )
        assert np.max(np.abs(got - oracle) / np.abs(oracle)) < 1e-6

    def test_deterministic_per_replication(self):
        scenario = SimScenario(c=0.4, n=60, seed=9)
        a_curves, a_y, _ = generate_replication(scenario, 3)
        b_curves, b_y, _ = generate_replication(scenario, 3)
        assert np.array_equal(a_y, b_y)
        for (a_block,), (b_block,) in zip(a_curves, b_curves):
            assert np.array_equal(a_block.values, b_block.values)

    def test_replications_independent(self):
        scenario = SimScenario(c=0.4, n=60, seed=9)
        _, y0, _ = generate_replication(scenario, 0)
        _, y1, _ = generate_replication(scenario, 1)
        assert not np.array_equal(y0, y1)

    def test_grid_shape(self):
        scenario = SimScenario(c=0.0, n=55, seed=2, grid_size=50)
        curves, y, _ = generate_replication(scenario, 0)
        # one block per predictor, holding all 55 curves on its grid
        assert len(curves) == NUM_PREDICTORS
        for m, (lo, hi) in enumerate(DOMAINS):
            (block,) = curves[m]
            assert block.values.shape == (55, 50)
            grid = block.grid
            assert grid.size == 50
            assert grid[0] == lo and grid[-1] == hi


class TestRunMonteCarlo:
    def test_exact_selection_without_response_noise(self):
        # with the response noise off, every relevant predictor is detected
        # and the null predictor is not
        scenario = SimScenario(c=0.8, n=300, seed=0, noise_y_mult=0.0)
        report = run_monte_carlo(scenario, "fdr", 0.01, 1)
        assert report.correct_count == 1
        assert report.failed == 0
        assert report.selection_frequencies == (1.0, 1.0, 1.0, 1.0, 1.0, 0.0)

    def test_fully_noise_free_design_is_degenerate(self):
        # with the observation noise also off, the smoothed coefficients lie
        # on low-dimensional curve families and the design loses rank; the
        # replication is recorded as failed rather than crashing the run
        scenario = SimScenario(
            c=0.8, n=300, seed=0, noise_x_mult=0.0, noise_y_mult=0.0
        )
        report = run_monte_carlo(scenario, "fdr", 0.01, 1)
        assert report.failed == 1
        assert report.correct_count == 0

    def test_determinism(self):
        scenario = SimScenario(c=0.4, n=100, seed=7)
        a = run_monte_carlo(scenario, "fdr", 0.05, 8)
        b = run_monte_carlo(scenario, "fdr", 0.05, 8)
        assert a == b
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_threads_do_not_change_result(self):
        scenario = SimScenario(c=0.4, n=100, seed=7)
        serial = run_monte_carlo(scenario, "fdr", 0.05, 8)
        threaded = run_monte_carlo(scenario, "fdr", 0.05, 8, threads=4)
        assert serial == threaded

    def test_selection_frequency_sanity(self):
        report = run_monte_carlo(SimScenario(c=0.8, n=300, seed=0), "fdr", 0.01, 100)
        for m in range(5):
            assert report.selection_frequencies[m] >= 0.90
        assert report.selection_frequencies[5] <= 0.10

    def test_type_one_error_of_null_predictor(self):
        report = run_monte_carlo(SimScenario(c=0.0, n=300, seed=0), "bc", 0.01, 100)
        bound = 0.01 + 3 * np.sqrt(0.01 * 0.99 / 100)
        for m in (2, 4, 5):  # null predictors in the c = 0 scenario
            assert report.selection_frequencies[m] <= bound

    def test_report_bookkeeping(self):
        report = run_monte_carlo(SimScenario(c=0.0, n=100, seed=3), "bc", 0.05, 10)
        assert report.replications == 10
        assert 0 <= report.correct_count <= 10
        assert report.failed == 0
        assert np.isfinite(report.amse) and report.amse > 0.0
        assert all(0.0 <= f <= 1.0 for f in report.selection_frequencies)

    def test_invalid_arguments(self):
        scenario = SimScenario(c=0.0, n=100, seed=0)
        with pytest.raises(ValueError, match="replications"):
            run_monte_carlo(scenario, "fdr", 0.05, 0)
        with pytest.raises(ValueError, match="method"):
            run_monte_carlo(scenario, "holm", 0.05, 1)
        with pytest.raises(ValueError, match="q"):
            run_monte_carlo(scenario, "fdr", 1.5, 1)
