"""Synthetic-data generators and the Monte Carlo selection experiment."""

import collections
import dataclasses
import json
import sys
import threading

import numpy as np
import pytest
from scipy.integrate import simpson

from funcsel import simgen, workers
from funcsel.seeds import rng_for
from funcsel.simgen import (
    DOMAINS,
    GRID_SIZE,
    NUM_PREDICTORS,
    MonteCarloReport,
    SimScenario,
    coefficient_functions,
    generate_replication,
    run_monte_carlo,
    true_index_set,
    _draw_curve_params,
    _generate,
    _plan,
)
from funcsel.errors import DataError, NumericalError

from oracles import (
    curve_values_reference,
    generate_replication_reference,
    monte_carlo_loop,
    quad_rule_reference,
)

# points of the composite Simpson oracle of an integral over a domain: it
# matches the noise-free responses to 6e-12 relative, far inside the tests'
# tolerances, and shares nothing with the package's 64-node Gauss-Legendre rule
SIMPSON_POINTS = 4_001


def simpson_integral(params, m, beta):
    """Integral of every sample's curve m against ``beta``, (n,)."""
    ts = np.linspace(*DOMAINS[m], SIMPSON_POINTS)
    return simpson(curve_values_reference(params, m, ts) * beta(ts), x=ts, axis=1)


@pytest.fixture
def noise_free(monkeypatch):
    """Switch off both noise layers of the generator."""
    monkeypatch.setattr("funcsel.simgen.NOISE_X_MULT", 0.0)
    monkeypatch.setattr("funcsel.simgen.NOISE_Y_MULT", 0.0)


class TestScenarioValidation:
    def test_minimum_sample_size(self):
        with pytest.raises(ValueError, match="n"):
            SimScenario(c=0.0, n=49, seed=0)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            SimScenario(c=0.0, n=100, seed=-1)

    def test_seed_beyond_uint64(self):
        # the Philox key is a uint64: 2**64 used to raise OverflowError
        # from generate_replication
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            SimScenario(c=0.0, n=100, seed=2**64)

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_signal_strength(self, c):
        with pytest.raises(ValueError, match="signal strength c must be finite"):
            SimScenario(c=c, n=100, seed=0)

    @pytest.mark.parametrize("c", [1e200, -1e200, 1.01e100])
    def test_huge_signal_strength(self, c):
        # a finite c beyond 1e100 is rejected: at 1e200 the AMSE overflows
        with pytest.raises(ValueError, match=r"finite with \|c\| <= 1e100, got "):
            SimScenario(c=c, n=100, seed=0)

    def test_largest_signal_strength(self):
        SimScenario(c=-1e100, n=100, seed=0)


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
    def test_noise_free_curves_and_responses(self, noise_free):
        scenario = SimScenario(c=0.8, n=60, seed=5)
        curves, y, truth = generate_replication(scenario, 0)
        params = _draw_curve_params(rng_for(scenario.seed, 0), 60)
        betas = coefficient_functions(0.8)
        # observed values equal the true curves exactly
        for m in range(NUM_PREDICTORS):
            (block,) = curves[m]
            exact = curve_values_reference(params, m, block.grid)
            for i in (0, 17, 59):
                assert block.values[i] == pytest.approx(exact[i], abs=0.0)
        # responses equal the sum of integrals, via a composite Simpson oracle
        oracle = sum(simpson_integral(params, m, betas[m]) for m in range(NUM_PREDICTORS))
        assert y == pytest.approx(oracle, rel=1e-8)

    def test_null_coefficients_do_not_contribute(self, noise_free):
        scenario = SimScenario(c=0.0, n=60, seed=5)
        _, y, truth = generate_replication(scenario, 0)
        assert truth.true_indices == frozenset({0, 1, 3})
        params = _draw_curve_params(rng_for(scenario.seed, 0), 60)
        betas = coefficient_functions(0.0)
        # the only nonzero coefficient functions
        oracle = sum(simpson_integral(params, m, betas[m]) for m in (0, 1, 3))
        assert y == pytest.approx(oracle, rel=1e-8)

    def test_quadrature_against_simpson_oracle(self):
        scenario = SimScenario(c=0.8, n=100, seed=11)
        params = _draw_curve_params(rng_for(scenario.seed, 0), 100)
        lo, hi = DOMAINS[4]
        oracle = simpson_integral(params, 4, lambda t: 0.8 * np.sin(np.pi * t))
        nodes, weights = np.polynomial.legendre.leggauss(64)
        half = 0.5 * (hi - lo)
        quad_ts = 0.5 * (hi + lo) + half * nodes
        got = curve_values_reference(params, 4, quad_ts) @ (
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
        scenario = SimScenario(c=0.0, n=55, seed=2)
        curves, y, _ = generate_replication(scenario, 0)
        # one block per predictor, holding all 55 curves on its grid
        assert len(curves) == NUM_PREDICTORS
        for m, (lo, hi) in enumerate(DOMAINS):
            (block,) = curves[m]
            assert block.values.shape == (55, 50)
            grid = block.grid
            assert grid.size == 50
            assert grid[0] == lo and grid[-1] == hi

    @pytest.mark.parametrize(
        "scenario",
        [
            SimScenario(c=c, n=n, seed=seed)
            for c in (0.0, 0.4, 0.8)
            for n, seed in ((50, 0), (100, 1), (300, 2**64 - 1))
        ],
        ids=lambda s: f"c{s.c}-n{s.n}-G{GRID_SIZE}",
    )
    def test_same_bits_as_reference(self, scenario):
        # the cached plan and the in-place fill must not move a single bit:
        # the simulate reports are byte-identical across versions
        self.assert_same_bits_as_reference(scenario)

    def test_same_bits_as_reference_with_other_noise(self, monkeypatch):
        # the noise multipliers are read on each call, by both generators
        monkeypatch.setattr("funcsel.simgen.NOISE_X_MULT", 0.2)
        monkeypatch.setattr("funcsel.simgen.NOISE_Y_MULT", 0.5)
        self.assert_same_bits_as_reference(SimScenario(c=-0.3, n=70, seed=9))

    @staticmethod
    def assert_same_bits_as_reference(scenario):
        for rep in (0, 1, 7, 2**32, 2**32 + 7):
            curves, y, truth = generate_replication(scenario, rep)
            ref_curves, ref_y, ref_truth = generate_replication_reference(scenario, rep)
            assert np.array_equal(y, ref_y)
            assert truth.true_indices == ref_truth.true_indices
            for (block,), (ref_block,) in zip(curves, ref_curves, strict=True):
                assert np.array_equal(block.values, ref_block.values)
                assert np.array_equal(block.grid, ref_block.grid)

    @pytest.mark.parametrize("c", [0.0, 0.4, -1.5])
    def test_plan_keeps_its_bits(self, c):
        # the plan scales one Gauss-Legendre rule to every domain: each array
        # has the bits of a rule made for that domain afresh
        betas = coefficient_functions(c)
        for m, predictor in enumerate(_plan(c)):
            lo, hi = DOMAINS[m]
            nodes, weights = quad_rule_reference(lo, hi)
            weighted_beta = weights * betas[m](nodes)
            assert np.array_equal(predictor.grid, np.linspace(lo, hi, GRID_SIZE))
            assert np.array_equal(predictor.nodes, nodes)
            if weighted_beta.any():
                assert np.array_equal(predictor.weighted_beta, weighted_beta)
                assert not predictor.weighted_beta.flags.writeable
            else:
                assert predictor.weighted_beta is None
            assert not predictor.grid.flags.writeable
            assert not predictor.nodes.flags.writeable

    @pytest.mark.parametrize("n", [50, 300])
    @pytest.mark.parametrize("c", [0.0, 0.4, 0.8])
    def test_same_bits_through_one_reused_array(self, c, n):
        # each Monte Carlo worker builds its data sets in one array kept for
        # the run: nothing of an earlier data set may reach a later one,
        # also where c = 0 skips the node curves of predictors 2 and 4. Here
        # every data set goes through one array, training and test sets alike
        scenario = SimScenario(c=c, n=n, seed=4)
        out = np.empty((NUM_PREDICTORS, n, GRID_SIZE))
        for rep in (0, 1, 7):
            for stream in (rep, rep + 2**32):
                curves, y, _ = _generate(scenario, stream, out)
                ref_curves, ref_y, _ = generate_replication_reference(scenario, stream)
                assert np.array_equal(y, ref_y)
                for m, ((block,), (ref_block,)) in enumerate(
                    zip(curves, ref_curves, strict=True)
                ):
                    assert np.shares_memory(block.values, out[m])
                    assert np.array_equal(block.values, ref_block.values)
                    assert np.array_equal(block.grid, ref_block.grid)

    def test_shared_grid_is_read_only(self):
        # the grid is shared by every replication of the scenario, so a
        # caller that wrote to it would corrupt all later ones
        scenario = SimScenario(c=0.4, n=60, seed=1)
        first, _, _ = generate_replication(scenario, 0)
        second, _, _ = generate_replication(scenario, 1)
        for (block,), (other,) in zip(first, second):
            assert block.grid is other.grid
            with pytest.raises(ValueError, match="read-only"):
                block.grid[0] = 0.5
            # the values are each call's own and may be changed
            assert not np.shares_memory(block.values, other.values)
            block.values[0, 0] = 0.5


FIXTURE_RULES = [(method, q) for method in ("bc", "fdr") for q in (0.01, 0.05, 0.1)]


class TestRunMonteCarlo:
    def test_exact_selection_without_response_noise(self, monkeypatch):
        # with the response noise off, every relevant predictor is detected
        # and the null predictor is not
        monkeypatch.setattr("funcsel.simgen.NOISE_Y_MULT", 0.0)
        scenario = SimScenario(c=0.8, n=300, seed=0)
        (report,) = run_monte_carlo(scenario, [("fdr", 0.01)], 1)
        assert report.correct_count == 1
        assert report.failed == 0
        assert report.selection_frequencies == (1.0, 1.0, 1.0, 1.0, 1.0, 0.0)

    def test_fully_noise_free_design_is_degenerate(self, noise_free):
        # with the observation noise also off, the smoothed coefficients lie
        # on low-dimensional curve families and the design loses rank; the
        # replication is recorded as failed rather than crashing the run
        scenario = SimScenario(c=0.8, n=300, seed=0)
        (report,) = run_monte_carlo(scenario, [("fdr", 0.01)], 1)
        assert report.failed == 1
        assert report.correct_count == 0

    def test_determinism(self):
        scenario = SimScenario(c=0.4, n=100, seed=7)
        (a,) = run_monte_carlo(scenario, [("fdr", 0.05)], 8)
        (b,) = run_monte_carlo(scenario, [("fdr", 0.05)], 8)
        assert a == b
        assert json.dumps(dataclasses.asdict(a), sort_keys=True) == json.dumps(
            dataclasses.asdict(b), sort_keys=True
        )

    def test_selection_frequency_sanity(self):
        (report,) = run_monte_carlo(
            SimScenario(c=0.8, n=300, seed=0), [("fdr", 0.01)], 100
        )
        for m in range(5):
            assert report.selection_frequencies[m] >= 0.90
        assert report.selection_frequencies[5] <= 0.10

    def test_type_one_error_of_null_predictor(self):
        (report,) = run_monte_carlo(
            SimScenario(c=0.0, n=300, seed=0), [("bc", 0.01)], 100
        )
        bound = 0.01 + 3 * np.sqrt(0.01 * 0.99 / 100)
        for m in (2, 4, 5):  # null predictors in the c = 0 scenario
            assert report.selection_frequencies[m] <= bound

    def test_report_bookkeeping(self):
        (report,) = run_monte_carlo(
            SimScenario(c=0.0, n=100, seed=3), [("bc", 0.05)], 10
        )
        assert report.replications == 10
        assert 0 <= report.correct_count <= 10
        assert report.failed == 0
        assert np.isfinite(report.amse) and report.amse > 0.0
        assert all(0.0 <= f <= 1.0 for f in report.selection_frequencies)

    def test_each_rule_of_one_pass_equals_its_own_run(self):
        scenario = SimScenario(c=0.4, n=100, seed=0)
        reports = run_monte_carlo(scenario, FIXTURE_RULES, 12)
        assert len(reports) == len(FIXTURE_RULES)
        # the rules select differently here, so the test-set refit runs for
        # more than one mask
        assert len({r.selection_frequencies for r in reports}) > 1
        for rule, report in zip(FIXTURE_RULES, reports):
            (alone,) = run_monte_carlo(scenario, [rule], 12)
            for field in dataclasses.fields(MonteCarloReport):
                assert getattr(report, field.name) == getattr(alone, field.name), (
                    rule,
                    field.name,
                )

    @pytest.mark.parametrize("c", [0.0, 0.4])
    def test_reused_array_equals_fresh_arrays(self, monkeypatch, c):
        # a replication's test set is generated into the array of its
        # training set, so every read of the training curves must come
        # before; with the second worker on and off
        scenario = SimScenario(c=c, n=100, seed=0)
        generate = simgen._generate
        for helper in (True, False):
            monkeypatch.setattr(workers, "two_workers", lambda: helper)
            monkeypatch.setattr(simgen, "_generate", generate)
            reused = run_monte_carlo(scenario, FIXTURE_RULES, 8)
            monkeypatch.setattr(
                simgen,
                "_generate",
                lambda scenario, stream, values: generate(
                    scenario, stream, np.empty_like(values)
                ),
            )
            fresh = run_monte_carlo(scenario, FIXTURE_RULES, 8)
            for rule, a, b in zip(FIXTURE_RULES, reused, fresh, strict=True):
                for field in dataclasses.fields(MonteCarloReport):
                    assert getattr(a, field.name) == getattr(b, field.name), (
                        helper,
                        rule,
                        field.name,
                    )

    def test_failed_replication_counts_for_every_rule(self, noise_free):
        scenario = SimScenario(c=0.8, n=300, seed=0)
        reports = run_monte_carlo(scenario, [("bc", 0.05), ("fdr", 0.01)], 1)
        assert [(r.method, r.failed, r.correct_count) for r in reports] == [
            ("bc", 1, 0),
            ("fdr", 1, 0),
        ]

    def test_invalid_arguments(self):
        scenario = SimScenario(c=0.0, n=100, seed=0)
        with pytest.raises(ValueError, match="replications"):
            run_monte_carlo(scenario, [("fdr", 0.05)], 0)
        with pytest.raises(ValueError, match="method"):
            run_monte_carlo(scenario, [("holm", 0.05)], 1)
        with pytest.raises(ValueError, match="q"):
            run_monte_carlo(scenario, [("fdr", 1.5)], 1)
        with pytest.raises(ValueError, match="q"):
            run_monte_carlo(scenario, [("bc", 0.05), ("fdr", 0.0)], 1)
        with pytest.raises(ValueError, match="at least one"):
            run_monte_carlo(scenario, [], 1)


class TestDrawAhead:
    """Where :func:`funcsel.workers.two_workers` allows, a helper thread runs
    replications whole beside the calling thread, each drawing its next
    replication while the other works; neither way may move a bit."""

    @staticmethod
    def record_data_sets(monkeypatch, helper, meet=True):
        """Force the second worker on or off, and return the list that gets
        the (stream, thread) of every data set built. With the second worker
        on and ``meet``, each worker's first data set waits at a barrier for
        the other's, so that both workers take a replication."""
        monkeypatch.setattr(workers, "two_workers", lambda: helper)
        generate, built, met = simgen._generate, [], set()
        barrier = threading.Barrier(2, timeout=30)

        def recording_generate(scenario, stream, values):
            thread = threading.current_thread()
            built.append((stream, thread))
            if helper and meet and thread not in met:
                met.add(thread)
                barrier.wait()
            return generate(scenario, stream, values)

        monkeypatch.setattr(simgen, "_generate", recording_generate)
        return built

    @pytest.mark.parametrize("helper", [True, False])
    def test_failing_replications_match_serial_loop(self, monkeypatch, helper):
        # replication 1's and the last one's training fits raise, and
        # replication 3's test set: a failed training set's test stream is
        # never drawn, as in the serial loop
        scenario = SimScenario(c=0.4, n=100, seed=5)
        reps = 7
        failing_fits = {generate_replication(scenario, rep)[1][0] for rep in (1, reps - 1)}
        failing_test_set = generate_replication(scenario, 3 + 2**32)[1][0]
        test_all, build_dataset = simgen.test_all, simgen.build_dataset

        def failing_test_all(design, y):
            if y[0] in failing_fits:
                raise NumericalError("rank-deficient design")
            return test_all(design, y)

        def failing_build_dataset(curves, y, bases):
            if y[0] == failing_test_set:
                raise DataError("non-finite value")
            return build_dataset(curves, y, bases)

        built = self.record_data_sets(monkeypatch, helper)
        monkeypatch.setattr(simgen, "test_all", failing_test_all)
        monkeypatch.setattr(simgen, "build_dataset", failing_build_dataset)
        reports = run_monte_carlo(scenario, FIXTURE_RULES, reps)
        # every training stream once, and the test stream of every
        # replication whose training set did not fail
        streams = collections.Counter(stream for stream, _ in built)
        assert streams == collections.Counter(
            [*range(reps), *(rep + 2**32 for rep in range(reps) if rep not in (1, reps - 1))]
        )
        # a replication runs whole on one worker; both workers ran some
        caller = threading.current_thread()
        owner = {}
        for stream, thread in built:
            assert owner.setdefault(stream % 2**32, thread) is thread
        workers = set(owner.values())
        assert caller in workers
        assert len(workers) == (2 if helper else 1)
        assert reports == monte_carlo_loop(scenario, FIXTURE_RULES, reps)
        assert {report.failed for report in reports} == {3}

    @pytest.mark.parametrize("helper", [True, False])
    def test_one_replication_matches_serial_loop(self, monkeypatch, helper):
        # one replication for two workers: one of them finds none to take
        scenario = SimScenario(c=0.4, n=100, seed=3)
        built = self.record_data_sets(monkeypatch, helper, meet=False)
        reports = run_monte_carlo(scenario, FIXTURE_RULES, 1)
        assert sorted(stream for stream, _ in built) == [0, 2**32]
        assert reports == monte_carlo_loop(scenario, FIXTURE_RULES, 1)

    @pytest.mark.parametrize("where", ["draws", "pipeline"])
    @pytest.mark.parametrize("helper", [True, False])
    def test_error_reaches_caller_and_helper_is_joined(self, monkeypatch, helper, where):
        # an error on either worker, in a data set's draws or in the work on
        # it, stops the other worker before its next replication, reaches the
        # caller, and leaves no thread running
        caller, reps = threading.current_thread(), 30
        for on_caller in (True, False) if helper else (True,):
            with pytest.MonkeyPatch.context() as patch:
                built = self.record_data_sets(patch, helper)
                name = "_generate" if where == "draws" else "build_design"
                original, calls = getattr(simgen, name), []

                def failing(*args):
                    if (threading.current_thread() is caller) is on_caller:
                        calls.append(None)
                        if len(calls) == 2:  # the worker's first test set
                            raise RuntimeError(f"{where} failed")
                    return original(*args)

                patch.setattr(simgen, name, failing)
                before = threading.active_count()
                with pytest.raises(RuntimeError, match=f"{where} failed"):
                    run_monte_carlo(SimScenario(c=0.4, n=60, seed=0), [("fdr", 0.05)], reps)
                assert threading.active_count() == before
                assert len({stream % 2**32 for stream, _ in built}) < reps

    def test_two_runs_at_once(self, monkeypatch):
        # two runs on threads of their own, each with its second worker: four
        # busy threads on two CPUs, switching as often as the interpreter
        # allows
        scenarios = [SimScenario(c=0.4, n=100, seed=1), SimScenario(c=0.0, n=120, seed=2)]
        monkeypatch.setattr(workers, "two_workers", lambda: False)
        serial = [run_monte_carlo(scenario, FIXTURE_RULES, 8) for scenario in scenarios]
        monkeypatch.setattr(workers, "two_workers", lambda: True)
        results, errors = [None] * len(scenarios), []

        def run(k):
            try:
                results[k] = run_monte_carlo(scenarios[k], FIXTURE_RULES, 8)
            except BaseException as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runners = [threading.Thread(target=run, args=(k,)) for k in range(len(scenarios))]
            for runner in runners:
                runner.start()
            for runner in runners:
                runner.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(runner.is_alive() for runner in runners)
        assert errors == []
        assert results == serial
