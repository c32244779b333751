"""Bonferroni and step-up FDR selection against brute-force definitions."""

import numpy as np
import pytest

from funcsel import default_q, selection_mask


def selected(method, p_values, q):
    """The predictors the rule selects from one row of p-values, in order."""
    return tuple(np.flatnonzero(selection_mask(method, p_values, q)).tolist())


def brute_force_bonferroni(p_values, q):
    m = len(p_values)
    return {i for i, p in enumerate(p_values) if p <= q / m}


def brute_force_fdr(p_values, q):
    """Literal evaluation of the step-up definition: s is the largest j whose
    j-th smallest p-value is at or below (j/M) * q / H_M."""
    m = len(p_values)
    harmonic = sum(1.0 / l for l in range(1, m + 1))
    order = sorted(range(m), key=lambda i: (p_values[i], i))
    s = 0
    for j in range(1, m + 1):
        if p_values[order[j - 1]] <= (j / m) * q / harmonic:
            s = j
    return set(order[:s]), s


EXAMPLE = [0.001, 0.002, 0.2, 0.5, 0.9, 0.95]


class TestBonferroni:
    def test_threshold_example(self):
        mask = selection_mask("bc", EXAMPLE, 0.05)
        assert mask.dtype == bool and mask.shape == (6,)
        assert selected("bc", EXAMPLE, 0.05) == (0, 1)  # threshold 0.05/6 = 0.008333...
        assert selected("bonferroni", EXAMPLE, 0.05) == (0, 1)

    def test_all_ones(self):
        assert selected("bc", [1.0] * 6, 0.05) == ()

    def test_all_zeros(self):
        assert selected("bc", [0.0] * 6, 0.05) == tuple(range(6))

    def test_invalid_q(self):
        with pytest.raises(ValueError, match="q"):
            selection_mask("bc", EXAMPLE, 0.0)
        with pytest.raises(ValueError, match="q"):
            selection_mask("bc", EXAMPLE, 1.0)

    def test_empty(self):
        with pytest.raises(ValueError, match="no tests"):
            selection_mask("bc", [], 0.05)


class TestFdr:
    def test_step_up_example(self):
        # H_6 = 2.45; thresholds j * 0.05 / (6 * 2.45): 0.003401, 0.006803,
        # 0.010204, ...; the two smallest p-values are rejected
        assert selected("fdr", EXAMPLE, 0.05) == (0, 1)

    def test_no_rejection(self):
        assert selected("fdr", [1.0] * 6, 0.05) == ()

    def test_single_hypothesis(self):
        assert selected("fdr", [0.025], 0.05) == (0,)

    def test_tie_breaking_deterministic(self):
        p = [0.002, 0.002, 0.9, 0.9, 0.9, 0.9]
        assert selected("fdr", p, 0.05) == (0, 1)

    def test_invalid_q(self):
        with pytest.raises(ValueError, match="q"):
            selection_mask("fdr", EXAMPLE, -0.1)

    def test_step_up_not_step_down(self):
        # a large p-value early in the sorted order must not stop the scan if
        # a later j satisfies its threshold
        m = 6
        harmonic = sum(1.0 / l for l in range(1, m + 1))
        q = 0.5
        # p_(1) above its own threshold, but p_(6) below the j=6 threshold
        t1 = 1.0 * q / (m * harmonic)
        t6 = 6.0 * q / (m * harmonic)
        p = [t1 * 1.5, t6 * 0.99, t6 * 0.99, t6 * 0.99, t6 * 0.99, t6 * 0.99]
        assert selected("fdr", p, q) == tuple(range(6))


class TestBruteForceOracle:
    def test_thousand_random_vectors(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            m = int(rng.integers(1, 12))
            style = rng.integers(0, 3)
            if style == 0:
                p = rng.uniform(0.0, 1.0, m)
            elif style == 1:
                p = rng.uniform(0.0, 0.02, m)  # cluster near the thresholds
            else:
                p = np.where(rng.random(m) < 0.5, rng.uniform(0, 0.01, m), rng.uniform(0, 1, m))
            q = float(rng.uniform(0.005, 0.3))
            assert set(selected("bc", p, q)) == brute_force_bonferroni(p, q)
            expected_set, expected_s = brute_force_fdr(list(p), q)
            got = selected("fdr", p, q)
            assert set(got) == expected_set
            assert len(got) == expected_s


class TestProperties:
    def test_monotone_in_q(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = rng.uniform(0.0, 0.2, 8)
            q1, q2 = sorted(rng.uniform(0.01, 0.5, 2))
            for method in ("bc", "fdr"):
                assert set(selected(method, p, q1)) <= set(selected(method, p, q2))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(0.0, 0.1, 7)
        perm = rng.permutation(7)
        for method in ("bc", "fdr"):
            base = set(selected(method, p, 0.1))
            permuted = set(selected(method, p[perm], 0.1))
            assert permuted == {int(np.where(perm == i)[0][0]) for i in base}

    def test_empirical_fdr_bound(self):
        # three true signals (p ~ 0), three nulls (p ~ Uniform): the mean
        # false-discovery proportion stays below q * (M - M0) / M + 3 SE
        rng = np.random.default_rng(5)
        q = 0.2
        m, m0 = 6, 3
        fdp = np.empty(1000)
        for i in range(1000):
            p = np.concatenate([rng.uniform(0, 1e-8, m0), rng.uniform(0, 1, m - m0)])
            chosen = set(selected("fdr", p, q))
            false = len(chosen - {0, 1, 2})
            fdp[i] = false / max(len(chosen), 1)
        bound = q * (m - m0) / m + 3 * fdp.std(ddof=1) / np.sqrt(fdp.size)
        assert fdp.mean() <= bound


class TestDefaultQ:
    def test_rule_arithmetic(self):
        assert default_q(100, 6) == pytest.approx(0.1)
        assert default_q(100, 50) == pytest.approx(0.02)
        assert default_q(10_000, 6) == pytest.approx(0.01)

    def test_boundary_uses_sqrt_rule(self):
        # M equal to sqrt(n) is not "large relative to n"
        assert default_q(100, 10) == pytest.approx(0.1)

    def test_always_in_unit_interval(self):
        for n in (2, 10, 1000, 10**8):
            for m in (1, 5, 500):
                assert 0.0 < default_q(n, m) < 1.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            default_q(1, 5)
        with pytest.raises(ValueError):
            default_q(100, 0)
