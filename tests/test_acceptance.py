"""Acceptance suite.

One test per acceptance criterion (sub-criteria split out where they are
independently stated), each emitting a single PASS/FAIL line with the measured
quantity and its pinned tolerance. Tolerances are fixed here and must not be
loosened to force a pass.

All randomized checks use seeds fixed a priori (seed 0 for the simulation
cells); nothing here searches over seeds.
"""

import numpy as np
import pytest
from scipy.special import gammaincc

from funcsel import (
    fit_ols,
    gram_matrix,
    make_uniform_basis,
    selection_mask,
)
from funcsel.cli import main
from funcsel.inference import test_all as run_test_all
from funcsel.simgen import SimScenario, coefficient_functions, run_monte_carlo

from conftest import (
    orthonormal_test_basis,
    project_coefficients,
    random_design,
    standard_bases,
    synthetic_design,
)
from oracles import (
    column_deletion_rss,
    noncentral_chisq_cdf,
    noncentrality,
    projection_matrices,
)
from test_bspline import trapezoid_gram
from test_selection import brute_force_bonferroni, brute_force_fdr

SEED = 0
REPLICATIONS = 100


def report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def table_grid():
    """Correct-selection counts for the full simulation grid, 100 replications
    per cell, seed fixed a priori. One Monte Carlo pass per (c, n) gives the
    reports of all six (method, q) rules."""
    rules = [(method, q) for method in ("bc", "fdr") for q in (0.01, 0.05, 0.1)]
    counts = {}
    for c in (0.0, 0.4, 0.8):
        for n in (100, 300):
            scenario = SimScenario(c=c, n=n, seed=SEED)
            for (method, q), rep in zip(
                rules, run_monte_carlo(scenario, rules, REPLICATIONS)
            ):
                assert rep.failed == 0
                counts[(c, n, method, q)] = rep.correct_count
    return counts


def _check_cell(table_grid, cell, lo, hi, label):
    count = table_grid[cell]
    ok = lo <= count <= hi
    report(label, ok, f"correct count {count}/100, accepted range [{lo}, {hi}]")
    assert ok, f"{label}: count {count} outside [{lo}, {hi}]"


class TestCriterion1TableReproduction:
    def test_cell_c0_n300_bc_q01(self, table_grid):
        _check_cell(
            table_grid, (0.0, 300, "bc", 0.01), 86, 100,
            "criterion 1: cell (c=0, n=300, BC, q=0.01)",
        )

    def test_cell_c0_n300_fdr_q01(self, table_grid):
        _check_cell(
            table_grid, (0.0, 300, "fdr", 0.01), 85, 100,
            "criterion 1: cell (c=0, n=300, FDR, q=0.01)",
        )

    def test_cell_c08_n300_fdr_q01(self, table_grid):
        _check_cell(
            table_grid, (0.8, 300, "fdr", 0.01), 90, 100,
            "criterion 1: cell (c=0.8, n=300, FDR, q=0.01)",
        )

    def test_cell_c04_n100_fdr_q01(self, table_grid):
        """Known shortfall, documented rather than papered over.

        The third coefficient function is even (proportional to t^2) on the
        symmetric domain [-1, 1] while the third predictor's random curves are
        cubics whose variance is dominated by their odd components.  The inner
        product annihilates those odd components, so the detectable signal for
        predictor 3 reduces to the low-variance t^2 coefficient alone and its
        noncentrality is far too small at n=100 for near-certain detection.
        The measured count (~15-30 across seeds) therefore sits well below the
        stated range; the implementation is left faithful to the generator
        definitions instead of being tuned to hit the range.
        """
        _check_cell(
            table_grid, (0.4, 100, "fdr", 0.01), 70, 94,
            "criterion 1: cell (c=0.4, n=100, FDR, q=0.01)",
        )

    def test_monotone_trend(self, table_grid):
        worst = None
        for c in (0.0, 0.4, 0.8):
            for method in ("bc", "fdr"):
                for q in (0.01, 0.05, 0.1):
                    gap = (
                        table_grid[(c, 300, method, q)]
                        - table_grid[(c, 100, method, q)]
                    )
                    if worst is None or gap < worst[0]:
                        worst = (gap, c, method, q)
        ok = worst[0] >= -5
        report(
            "criterion 1: monotone trend n=300 vs n=100",
            ok,
            f"smallest count difference {worst[0]} at (c={worst[1]}, "
            f"{worst[2]}, q={worst[3]}), allowed >= -5",
        )
        assert ok


class TestCriterion2NullCalibration:
    def test_null_p_value_calibration(self):
        # Fixed design from the synthetic generators with every coefficient
        # function zero; n is large so the chi-square reference is tight on
        # this design. 5000 response replications, vectorized.
        design, _, _, _ = synthetic_design(SimScenario(c=0.0, n=10_000, seed=1))
        n = design.n
        q_full, _ = np.linalg.qr(design.values)
        test_bases = [orthonormal_test_basis(design, r) for r in range(6)]

        rng = np.random.default_rng(2)
        reps = 5000
        p_values = np.empty((reps, 6))
        done = 0
        while done < reps:
            chunk = min(500, reps - done)
            g = rng.standard_normal((n, chunk))
            rss = np.sum(g * g, axis=0) - np.sum((q_full.T @ g) ** 2, axis=0)
            sigma2 = rss / n
            for r in range(6):
                num = np.sum((test_bases[r].T @ g) ** 2, axis=0)
                p_values[done : done + chunk, r] = gammaincc(3.0, num / sigma2 / 2.0)
            done += chunk

        ok = True
        details = []
        for r in range(6):
            for gamma in (0.01, 0.05, 0.1):
                emp = float(np.mean(p_values[:, r] <= gamma))
                tol = 3 * np.sqrt(gamma * (1 - gamma) / reps)
                if abs(emp - gamma) > tol:
                    ok = False
                    details.append(f"r={r}, gamma={gamma}: {emp:.4f} (tol {tol:.4f})")
        report(
            "criterion 2: null calibration of p-values",
            ok,
            "P(pi <= gamma) within 3*binomial-SE of gamma for gamma in "
            "{0.01, 0.05, 0.1}, all 6 predictors, 5000 replications"
            + ("" if ok else "; violations: " + "; ".join(details)),
        )
        assert ok


@pytest.fixture(scope="module")
def signal_model():
    """Design, truth, and per-predictor orthonormal test bases for the
    strong-signal scenario: responses are generated as Z b + noise with b the
    basis projection of the true coefficient functions."""
    bases = standard_bases()
    b_true = project_coefficients(bases, coefficient_functions(0.8))

    datasets = []
    scenario = SimScenario(c=0.8, n=300, seed=SEED)
    for rep in range(20):
        design, _, _, _ = synthetic_design(scenario, rep)
        mu = design.values @ b_true
        sigma = 0.05 * (mu.max() - mu.min())
        test_bases = [orthonormal_test_basis(design, r) for r in range(6)]
        deltas = [noncentrality(design, b_true, sigma**2, r) for r in range(6)]
        datasets.append((design, mu, sigma, test_bases, deltas))
    return datasets


def _batch_statistics(mu, sigma, u, g):
    """(RSS0 - RSS) / sigma^2 for responses mu + sigma * g, one column each."""
    y = mu[:, None] + sigma * g
    return np.sum((u.T @ y) ** 2, axis=0) / sigma**2


class TestCriterion3NoncentralityIdentity:
    def test_mean_matches_dof_plus_delta(self, signal_model):
        # cross-check the vectorized statistic against the public API once
        design, mu, sigma, test_bases, deltas = signal_model[0]
        rng = np.random.default_rng(3)
        g = rng.standard_normal((design.n, 2))
        for r in range(6):
            batch = _batch_statistics(mu, sigma, test_bases[r], g)
            for col in range(2):
                y = mu + sigma * g[:, col]
                full = fit_ols(design, y)
                statistic = run_test_all(design, y)[0][r]
                direct = statistic * full.sigma2_tilde / sigma**2
                assert batch[col] == pytest.approx(direct, rel=1e-8)

        worst = 0.0
        worst_at = None
        for d, (design, mu, sigma, test_bases, deltas) in enumerate(signal_model):
            g = np.random.default_rng(1000 + d).standard_normal((design.n, 2000))
            for r in range(6):
                expected = 6.0 + deltas[r]
                mean = float(np.mean(_batch_statistics(mu, sigma, test_bases[r], g)))
                gap = abs(mean - expected) / expected
                if gap > worst:
                    worst, worst_at = gap, (d, r)
        ok = worst < 0.05
        report(
            "criterion 3: mean of (RSS0-RSS)/sigma^2 equals p_r + delta",
            ok,
            f"worst relative gap {worst:.4f} (dataset {worst_at[0]}, predictor "
            f"{worst_at[1]}) over 20 fixed datasets x 2000 redraws, tolerance 0.05",
        )
        assert ok


class TestCriterion4NoncentralDistribution:
    def test_kolmogorov_smirnov_against_noncentral_chisq(self, signal_model):
        design, mu, sigma, test_bases, deltas = signal_model[0]
        r = 4
        g = np.random.default_rng(4).standard_normal((design.n, 5000))
        stats = np.sort(_batch_statistics(mu, sigma, test_bases[r], g))
        cdf = np.array(
            [noncentral_chisq_cdf(float(x), 6, deltas[r]) for x in stats]
        )
        n = stats.size
        positions = np.arange(1, n + 1) / n
        ks = max(
            float(np.max(positions - cdf)),
            float(np.max(cdf - (positions - 1.0 / n))),
        )
        critical = 1.628 / np.sqrt(n)  # 0.01-level
        ok = ks < critical
        report(
            "criterion 4: distribution of (RSS0-RSS)/sigma^2 under the alternative",
            ok,
            f"KS statistic {ks:.4f} vs noncentral chi-square(6, delta="
            f"{deltas[r]:.1f}), 0.01-level critical value {critical:.4f}",
        )
        assert ok


class TestCriterion5OracleEquivalences:
    def test_restricted_fit_vs_column_deletion(self):
        rng = np.random.default_rng(50)
        worst = 0.0
        for trial in range(100):
            sizes = tuple(int(rng.integers(4, 7)) for _ in range(int(rng.integers(1, 4))))
            design, y = random_design(rng, 30 + int(rng.integers(0, 40)), sizes)
            full = fit_ols(design, y)
            r = int(rng.integers(0, len(sizes)))
            rss0 = (design.n + run_test_all(design, y)[0][r]) * full.sigma2_tilde
            oracle = column_deletion_rss(design, y, r)
            worst = max(worst, abs(rss0 - oracle) / oracle)
        ok = worst < 1e-8
        report(
            "criterion 5a: restricted RSS vs column-deleted refit",
            ok,
            f"worst relative gap {worst:.2e} over 100 instances, tolerance 1e-8",
        )
        assert ok

    def test_rss_difference_vs_projection_quadratic_form(self):
        rng = np.random.default_rng(51)
        worst = 0.0
        for trial in range(60):
            n = 30 + int(rng.integers(0, 171))  # n <= 200
            design, y = random_design(rng, n, (4, 5))
            r = trial % 2
            full = fit_ols(design, y)
            diff = run_test_all(design, y)[0][r] * full.sigma2_tilde
            p_full, p_restr = projection_matrices(design, r)
            quad = float(y @ ((p_full - p_restr) @ y))
            worst = max(worst, abs(diff - quad) / max(abs(quad), 1e-12))
        ok = worst < 1e-6
        report(
            "criterion 5b: RSS0-RSS vs y'(P-P0)y",
            ok,
            f"worst relative gap {worst:.2e} on instances with n <= 200, "
            "tolerance 1e-6",
        )
        assert ok

    def test_gram_matrices_vs_trapezoid(self):
        worst = 0.0
        for degree in range(4):
            for num_basis in {degree + 2, 8, 12}:
                if num_basis <= degree:
                    continue
                spec = make_uniform_basis(-1.0, 2.0, degree=degree, num_basis=num_basis)
                gap = np.max(np.abs(gram_matrix(spec) - trapezoid_gram(spec)))
                worst = max(worst, float(gap))
        ok = worst < 1e-8
        report(
            "criterion 5c: Gram matrices vs 1e5-point trapezoid",
            ok,
            f"worst max-abs gap {worst:.2e} over degrees 0-3, sizes up to 12, "
            "tolerance 1e-8",
        )
        assert ok

    def test_selection_rules_vs_brute_force(self):
        rng = np.random.default_rng(52)
        mismatches = 0
        for _ in range(1000):
            m = int(rng.integers(1, 12))
            p = rng.uniform(0.0, 0.05, m) if rng.random() < 0.5 else rng.uniform(0, 1, m)
            q = float(rng.uniform(0.005, 0.3))
            bonferroni = set(np.flatnonzero(selection_mask("bc", p, q)).tolist())
            if bonferroni != brute_force_bonferroni(p, q):
                mismatches += 1
            fdr = set(np.flatnonzero(selection_mask("fdr", p, q)).tolist())
            expected_set, _ = brute_force_fdr(list(p), q)
            if fdr != expected_set:
                mismatches += 1
        ok = mismatches == 0
        report(
            "criterion 5d: selection rules vs brute-force definitions",
            ok,
            f"{mismatches} mismatches over 1000 random p-value vectors "
            "(exact set equality required)",
        )
        assert ok


class TestCriterion6Determinism:
    def test_simulate_job_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["--mode", "simulate", "--c", "0.4", "--n", "100", "--reps", "5",
                "--method", "fdr", "--q", "0.05", "--seed", "21"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        ok = out1.read_bytes() == out2.read_bytes()
        report(
            "criterion 6: simulate rerun determinism",
            ok,
            "two identical-seed simulate jobs wrote byte-identical reports",
        )
        assert ok

    def test_bootstrap_job_byte_identical(self, tmp_path):
        from funcsel.simgen import generate_replication

        curves, y, _ = generate_replication(SimScenario(c=0.8, n=60, seed=SEED), 0)
        curves_path = tmp_path / "curves.csv"
        responses_path = tmp_path / "responses.csv"
        with open(curves_path, "w", encoding="utf-8") as handle:
            handle.write("sample_id,predictor_id,t,value\n")
            for i in range(y.size):
                for m, (block,) in enumerate(curves):
                    for t, v in zip(block.grid, block.values[i]):
                        handle.write(f"s{i:02d},p{m},{float(t)!r},{float(v)!r}\n")
        with open(responses_path, "w", encoding="utf-8") as handle:
            handle.write("sample_id,y\n")
            for i, v in enumerate(y):
                handle.write(f"s{i:02d},{float(v)!r}\n")

        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["--mode", "bootstrap", "--curves", str(curves_path),
                "--responses", str(responses_path), "--method", "fdr",
                "--q", "0.05", "--seed", "9", "--bootstrap-b", "25"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        ok = out1.read_bytes() == out2.read_bytes()
        report(
            "criterion 6: bootstrap rerun determinism",
            ok,
            "two identical-seed bootstrap jobs wrote byte-identical reports",
        )
        assert ok


class TestCriterion7NotGated:
    def test_out_of_scope_quantities_reported_not_gated(self, table_grid):
        # prediction-error averages and the real-weather tables are reported
        # by the tooling but deliberately carry no acceptance range
        (rep,) = run_monte_carlo(
            SimScenario(c=0.0, n=100, seed=SEED), [("fdr", 0.05)], 5
        )
        ok = np.isfinite(rep.amse) and rep.amse > 0
        report(
            "criterion 7: AMSE and external-dataset results not gated",
            ok,
            f"AMSE reported (sample value {rep.amse:.4g}) but carries no "
            "acceptance range; external weather data unavailable by design",
        )
        assert ok
