"""B-spline construction, evaluation, and Gram matrices against oracles."""

from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from funcsel import (
    BasisSpec,
    evaluate_basis_matrix,
    gram_matrix,
    make_uniform_basis,
)

from oracles import evaluate_basis, evaluate_basis_matrix_reference, uniform_knots_reference


def naive_bspline(knots, degree, j, t, domain_hi):
    """Textbook recursive B-spline definition; independent oracle.

    Uses the half-open-interval convention with the last basis function
    closed at the right endpoint.
    """
    if degree == 0:
        if knots[j] <= t < knots[j + 1]:
            return 1.0
        if t == domain_hi and knots[j] < knots[j + 1] == domain_hi:
            return 1.0
        return 0.0
    left = 0.0
    if knots[j + degree] > knots[j]:
        left = (t - knots[j]) / (knots[j + degree] - knots[j]) * naive_bspline(
            knots, degree - 1, j, t, domain_hi
        )
    right = 0.0
    if knots[j + degree + 1] > knots[j + 1]:
        right = (knots[j + degree + 1] - t) / (
            knots[j + degree + 1] - knots[j + 1]
        ) * naive_bspline(knots, degree - 1, j + 1, t, domain_hi)
    return left + right


def trapezoid_gram(spec, num_points=100_001):
    """Composite trapezoid oracle, applied span by span so the integrand is a
    polynomial on each panel; interior span ends are evaluated as left limits
    (the basis is right-continuous at breakpoints)."""
    bp = spec.breakpoints
    per_span = max(num_points // (bp.size - 1), 2)
    gram = np.zeros((spec.num_basis, spec.num_basis))
    for a, b in zip(bp[:-1], bp[1:]):
        ts = np.linspace(a, b, per_span)
        ts_eval = ts.copy()
        if b < spec.domain_hi:
            ts_eval[-1] = np.nextafter(b, a)
        basis = evaluate_basis_matrix(spec, ts_eval)
        weights = np.full(per_span, ts[1] - ts[0])
        weights[0] *= 0.5
        weights[-1] *= 0.5
        gram += (basis * weights[:, None]).T @ basis
    return gram


class TestMakeUniformBasis:
    def test_degree0_two_halves(self):
        spec = make_uniform_basis(0.0, 1.0, degree=0, num_basis=2)
        assert spec.knots == (0.0, 0.5, 1.0)

    def test_degree1_no_interior(self):
        spec = make_uniform_basis(0.0, 1.0, degree=1, num_basis=2)
        assert spec.knots == (0.0, 0.0, 1.0, 1.0)

    def test_cubic_six_functions(self):
        spec = make_uniform_basis(0.0, 1.0, degree=3, num_basis=6)
        assert spec.knots == pytest.approx(
            (0, 0, 0, 0, 1 / 3, 2 / 3, 1, 1, 1, 1), abs=1e-15
        )

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_uniform_basis(0.0, 1.0, degree=3, num_basis=3)
        with pytest.raises(ValueError):
            make_uniform_basis(1.0, 0.0, degree=1, num_basis=3)


class TestBasisSpecValidation:
    def test_interior_on_boundary(self):
        # 1e16 + 4 lies two doubles above 1e16, so the 5 equally spaced
        # interior knots round to 1e16, three times 1e16 + 2, and 1e16 + 4
        with pytest.raises(ValueError, match="strictly inside"):
            make_uniform_basis(1e16, 1e16 + 4, 3, 9)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0.0, 1.0, -1, 2), r"degree must be >= 0, got -1"),
            ((0.0, 1.0, 2, 2), r"num_basis \(2\) must exceed degree \(2\)"),
            ((1.0, 1.0, 1, 2), r"domain_lo \(1.0\) must be < domain_hi \(1.0\)"),
        ],
        ids=["negative_degree", "too_few_functions", "empty_domain"],
    )
    def test_degree_size_and_domain(self, args, message):
        with pytest.raises(ValueError, match=message):
            BasisSpec(*args)

    @pytest.mark.parametrize(
        "lo, hi",
        [(0.0, np.inf), (-np.inf, 0.0), (-np.inf, np.inf), (np.nan, 1.0), (0.0, np.nan)],
        ids=["inf_hi", "inf_lo", "inf_both", "nan_lo", "nan_hi"],
    )
    def test_non_finite_domain(self, lo, hi):
        with pytest.raises(ValueError, match="both finite"):
            make_uniform_basis(lo, hi, 3, 4)

    def test_knots_are_derived(self):
        spec = make_uniform_basis(0.0, 1.0, degree=2, num_basis=5)
        assert [f.name for f in fields(BasisSpec) if f.init] == [
            "domain_lo", "domain_hi", "degree", "num_basis",
        ]
        assert spec == BasisSpec(0.0, 1.0, 2, 5)
        assert hash(spec) == hash(BasisSpec(0.0, 1.0, 2, 5))
        with pytest.raises(FrozenInstanceError):
            spec.knots = (0.0,) * 8

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        st.integers(0, 5),
        st.integers(1, 30),
        st.floats(-6.0, 6.0),
        st.floats(-6.0, 6.0),
        st.sampled_from((-1.0, 0.0, 1.0)),
    )
    @example(5, 30, -6.0, 6.0, 1.0)  # the narrowest spans, far from zero
    def test_knots_match_reference_bit_for_bit(self, degree, extra, log_width, log_offset, sign):
        # widths and offsets from 1e-6 to 1e6, at and off zero
        lo = sign * 10.0**log_offset
        hi = lo + 10.0**log_width
        spec = make_uniform_basis(lo, hi, degree, degree + extra)
        expected = uniform_knots_reference(lo, hi, degree, degree + extra)
        assert np.array(spec.knots).tobytes() == np.array(expected).tobytes()
        assert all(type(knot) is float for knot in spec.knots)


class TestEvaluateBasis:
    def test_degree0_indicator(self):
        spec = make_uniform_basis(0.0, 1.0, degree=0, num_basis=2)
        assert evaluate_basis(spec, 0.25) == pytest.approx([1.0, 0.0])
        assert evaluate_basis(spec, 0.75) == pytest.approx([0.0, 1.0])

    def test_degree1_hats(self):
        spec = make_uniform_basis(0.0, 1.0, degree=1, num_basis=2)
        assert evaluate_basis(spec, 0.3) == pytest.approx([0.7, 0.3])

    def test_cubic_against_recursion_oracle(self):
        spec = make_uniform_basis(0.0, 1.0, degree=3, num_basis=6)
        for t in (0.0, 0.1, 1 / 3, 0.5, 0.77, 0.999, 1.0):
            got = evaluate_basis(spec, t)
            expected = [
                naive_bspline(spec.knots, 3, j, t, 1.0) for j in range(6)
            ]
            assert got == pytest.approx(expected, abs=1e-12)
            assert got.sum() == pytest.approx(1.0, abs=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        st.integers(0, 5),
        st.integers(1, 12),
        st.floats(-6.0, 6.0),
        st.floats(-6.0, 6.0),
        st.sampled_from((-1.0, 0.0, 1.0)),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    )
    @example(5, 12, -6.0, 6.0, 1.0, [0.5])  # the narrowest spans, far from zero
    def test_matches_reference_bit_for_bit(
        self, degree, extra, log_width, log_offset, sign, fractions
    ):
        # every knot, both ends and interior points of shifted and negative
        # domains, against the recurrence on fresh arrays: a change of
        # rounding fails here, where a tolerance would let it pass
        lo = sign * 10.0**log_offset
        spec = make_uniform_basis(lo, lo + 10.0**log_width, degree, degree + extra)
        lo, hi = spec.domain_lo, spec.domain_hi
        interior = np.clip(lo + np.array(fractions) * (hi - lo), lo, hi)
        ts = np.concatenate([spec.knot_array, [lo, hi], interior])
        got = evaluate_basis_matrix(spec, ts)
        expected = evaluate_basis_matrix_reference(spec, ts)
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_partition_of_unity_random_points(self):
        rng = np.random.default_rng(7)
        for degree in range(4):
            spec = make_uniform_basis(-1.5, 2.0, degree=degree, num_basis=degree + 4)
            ts = rng.uniform(-1.5, 2.0, 1000)
            sums = evaluate_basis_matrix(spec, ts).sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) < 1e-12

    @pytest.mark.parametrize("degree", range(4))
    def test_each_row_is_nonzero_on_its_span_only(self, degree):
        # a point in span j (knots[j] <= t < knots[j + 1], the last nonempty
        # span at the right end) has its degree + 1 values in columns
        # j - degree .. j, those of the recursion oracle, and zeros elsewhere
        for lo, hi, extra in [(0.0, 1.0, 1), (0.0, 1.0, 5), (-2.5, 0.75, 3), (10.0, 13.0, 8)]:
            spec = make_uniform_basis(lo, hi, degree, degree + extra)
            knots = spec.knots
            ts = np.unique(np.concatenate([knots, np.linspace(lo, hi, 41)]))
            for row, t in zip(evaluate_basis_matrix(spec, ts), ts):
                span = max(j for j in range(degree, spec.num_basis) if knots[j] <= t)
                assert np.all(np.delete(row, range(span - degree, span + 1)) == 0.0)
                expected = [
                    naive_bspline(knots, degree, j, t, hi) for j in range(spec.num_basis)
                ]
                assert row == pytest.approx(expected, abs=1e-12)

    def test_nonnegative(self):
        spec = make_uniform_basis(0.0, 1.0, degree=3, num_basis=8)
        ts = np.linspace(0.0, 1.0, 500)
        assert np.all(evaluate_basis_matrix(spec, ts) >= 0.0)

    def test_local_support(self):
        spec = make_uniform_basis(0.0, 1.0, degree=2, num_basis=7)
        kn = spec.knot_array
        ts = np.linspace(0.0, 1.0, 400)
        values = evaluate_basis_matrix(spec, ts)
        for j in range(spec.num_basis):
            lo, hi = kn[j], kn[j + spec.degree + 1]
            outside = (ts < lo) | (ts > hi)
            assert np.all(values[outside, j] == 0.0)

    def test_right_endpoint_left_limit(self):
        spec = make_uniform_basis(0.0, 1.0, degree=3, num_basis=6)
        at_end = evaluate_basis(spec, 1.0)
        assert at_end[-1] == pytest.approx(1.0)
        assert at_end[:-1] == pytest.approx(np.zeros(5), abs=1e-15)

    def test_out_of_domain_rejected(self):
        spec = make_uniform_basis(0.0, 1.0, degree=1, num_basis=3)
        with pytest.raises(ValueError, match="outside"):
            evaluate_basis(spec, 1.0001)
        with pytest.raises(ValueError, match="outside"):
            evaluate_basis_matrix(spec, np.array([0.5, -0.1]))


class TestGramMatrix:
    def test_degree0_halves(self):
        spec = make_uniform_basis(0.0, 1.0, degree=0, num_basis=2)
        assert gram_matrix(spec) == pytest.approx(np.diag([0.5, 0.5]))

    def test_degree1_hats(self):
        spec = make_uniform_basis(0.0, 1.0, degree=1, num_basis=2)
        expected = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
        assert gram_matrix(spec) == pytest.approx(expected, abs=1e-14)

    def test_cubic_against_trapezoid_oracle(self):
        spec = make_uniform_basis(0.0, 1.0, degree=3, num_basis=6)
        gap = np.abs(gram_matrix(spec) - trapezoid_gram(spec))
        assert gap.max() < 1e-8

    @pytest.mark.parametrize("degree,num_basis", [(0, 5), (1, 7), (2, 9), (3, 12)])
    def test_trapezoid_oracle_various_sizes(self, degree, num_basis):
        spec = make_uniform_basis(-2.0, 1.0, degree=degree, num_basis=num_basis)
        gap = np.abs(gram_matrix(spec) - trapezoid_gram(spec))
        assert gap.max() < 1e-8

    def test_symmetric_psd_banded(self):
        for degree in range(4):
            spec = make_uniform_basis(0.0, 2.5, degree=degree, num_basis=degree + 5)
            values = gram_matrix(spec)
            assert np.max(np.abs(values - values.T)) <= 1e-12
            assert np.linalg.eigvalsh(values).min() >= -1e-10
            i, j = np.indices(values.shape)
            assert np.all(values[np.abs(i - j) > degree] == 0.0)

    def test_total_mass_is_domain_length(self):
        spec = make_uniform_basis(-1.0, 3.0, degree=3, num_basis=9)
        assert gram_matrix(spec).sum() == pytest.approx(4.0, abs=1e-10)

    def test_cached_and_read_only(self):
        spec = make_uniform_basis(0.0, 1.0, degree=2, num_basis=5)
        gram = gram_matrix(spec)
        assert gram_matrix(make_uniform_basis(0.0, 1.0, degree=2, num_basis=5)) is gram
        with pytest.raises(ValueError):
            gram[0, 0] = 1.0
