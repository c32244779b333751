"""Least-squares smoothing of gridded curves and dataset assembly."""

import numpy as np
import pytest

from funcsel import (
    CurveBlock,
    DataError,
    RankDeficiencyError,
    SampleSizeError,
    build_dataset,
    evaluate_basis_matrix,
    make_uniform_basis,
    smooth_block,
)


@pytest.fixture
def cubic_basis():
    return make_uniform_basis(0.0, 1.0, degree=3, num_basis=6)


def smooth_curve(grid, values, spec):
    """Coefficients of one curve, smoothed as a one-row block."""
    return smooth_block(CurveBlock(grid=grid, values=np.asarray(values)[None, :]), spec)[0]


class TestRawCurve:
    """Validation of raw curves as they enter a :class:`CurveBlock`."""

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="length"):
            CurveBlock(grid=np.array([0.0, 1.0]), values=np.array([[1.0]]))

    def test_duplicate_grid_points(self):
        with pytest.raises(DataError, match="strictly increasing"):
            CurveBlock(grid=np.array([0.0, 0.5, 0.5]), values=np.zeros((2, 3)))

    def test_decreasing_grid(self):
        with pytest.raises(DataError, match="strictly increasing"):
            CurveBlock(grid=np.array([0.0, 0.7, 0.5]), values=np.zeros((1, 3)))

    def test_not_one_dimensional(self):
        with pytest.raises(DataError, match="one-dimensional"):
            CurveBlock(grid=np.zeros((2, 2)), values=np.zeros((1, 4)))
        with pytest.raises(DataError, match="two-dimensional"):
            CurveBlock(grid=np.zeros(4), values=np.zeros(4))


class TestSmoothCurve:
    """Least-squares smoothing of single curves and of shared-grid blocks."""

    def test_constant_curve(self, cubic_basis):
        grid = np.linspace(0.0, 1.0, 17)
        coef = smooth_curve(grid, np.full(17, 3.0), cubic_basis)
        # constants are exactly representable: every coefficient equals 3
        assert coef == pytest.approx(np.full(6, 3.0), abs=1e-10)

    def test_exact_recovery(self, cubic_basis):
        rng = np.random.default_rng(3)
        truth = rng.normal(0.0, 2.0, 6)
        grid = np.linspace(0.0, 1.0, 20)
        values = evaluate_basis_matrix(cubic_basis, grid) @ truth
        coef = smooth_curve(grid, values, cubic_basis)
        assert np.max(np.abs(coef - truth)) < 1e-10

    def test_reproduction_property(self, cubic_basis):
        rng = np.random.default_rng(11)
        grid = np.sort(rng.uniform(0.0, 1.0, 30))
        for _ in range(20):
            truth = rng.normal(0.0, 1.0, 6)
            values = evaluate_basis_matrix(cubic_basis, grid) @ truth
            coef = smooth_curve(grid, values, cubic_basis)
            assert np.max(np.abs(coef - truth)) < 1e-10

    def test_linearity(self, cubic_basis):
        rng = np.random.default_rng(5)
        grid = np.linspace(0.0, 1.0, 25)
        v1 = rng.normal(size=25)
        v2 = rng.normal(size=25)
        w1 = smooth_curve(grid, v1, cubic_basis)
        w2 = smooth_curve(grid, v2, cubic_basis)
        combo = smooth_curve(grid, 2.5 * v1 - 0.75 * v2, cubic_basis)
        assert np.max(np.abs(combo - (2.5 * w1 - 0.75 * w2))) < 1e-10

    def test_residual_orthogonal_to_basis(self, cubic_basis):
        rng = np.random.default_rng(9)
        grid = np.linspace(0.0, 1.0, 40)
        values = np.sin(5 * grid) + rng.normal(0.0, 0.1, 40)
        coef = smooth_curve(grid, values, cubic_basis)
        basis = evaluate_basis_matrix(cubic_basis, grid)
        residual = values - basis @ coef
        assert np.max(np.abs(basis.T @ residual)) < 1e-8 * np.linalg.norm(values)

    def test_noisy_curve_rmse(self, cubic_basis):
        # periodic curve observed with noise proportional to its range; the
        # smoothed fit should track the truth well below twice the noise level
        rng = np.random.default_rng(21)
        grid = np.linspace(0.0, 1.0, 50)
        a1, a2 = -4.0, 7.0
        truth = np.cos(2 * np.pi * (grid - a1)) + a2
        sd = 0.025 * (truth.max() - truth.min())
        values = truth + rng.normal(0.0, sd, 50)
        coef = smooth_curve(grid, values, cubic_basis)
        fine = np.linspace(0.0, 1.0, 2000)
        fitted = evaluate_basis_matrix(cubic_basis, fine) @ coef
        true_fine = np.cos(2 * np.pi * (fine - a1)) + a2
        rmse = np.sqrt(np.mean((fitted - true_fine) ** 2))
        assert rmse < 2 * sd

    def test_too_few_grid_points(self, cubic_basis):
        block = CurveBlock(grid=np.linspace(0.0, 1.0, 5), values=np.zeros((3, 5)))
        with pytest.raises(DataError, match="num_basis"):
            smooth_block(block, cubic_basis)

    def test_grid_outside_domain(self, cubic_basis):
        block = CurveBlock(grid=np.linspace(-0.2, 1.0, 10), values=np.zeros((3, 10)))
        with pytest.raises(DataError, match="domain"):
            smooth_block(block, cubic_basis)

    def test_empty_span_reported(self, cubic_basis):
        # all points in the first knot span: the last basis functions never
        # activate, so the fit is rank deficient and the span is named
        grid = np.linspace(0.0, 0.3, 8)
        with pytest.raises(RankDeficiencyError, match="knot span"):
            smooth_curve(grid, np.zeros(8), cubic_basis)


class TestBuildDataset:
    def _curves(self, n, bases, rng):
        """One block per predictor: n exact spline curves on a shared grid."""
        grid = np.linspace(0.0, 1.0, 20)
        return [
            (CurveBlock(grid=grid, values=rng.normal(size=(n, spec.num_basis))
                        @ evaluate_basis_matrix(spec, grid).T),)
            for spec in bases
        ]

    def _split(self, block, bad_rows, bad_grid):
        """The block's rows as three blocks, the middle one on ``bad_grid``."""
        first, last = bad_rows
        return [
            CurveBlock(grid=block.grid, values=block.values[:first]),
            CurveBlock(grid=bad_grid, values=np.zeros((last - first, bad_grid.size))),
            CurveBlock(grid=block.grid, values=block.values[last:]),
        ]

    def test_happy_path(self):
        rng = np.random.default_rng(2)
        bases = (
            make_uniform_basis(0.0, 1.0, degree=3, num_basis=6),
            make_uniform_basis(0.0, 1.0, degree=2, num_basis=4),
        )
        n = 30
        data = build_dataset(self._curves(n, bases, rng), rng.normal(size=n), bases)
        assert data.n == n
        assert data.num_predictors == 2
        assert data.coefs[0].shape == (n, 6)
        assert data.coefs[1].shape == (n, 4)

    def test_sample_size_guard(self):
        rng = np.random.default_rng(2)
        bases = (make_uniform_basis(0.0, 1.0, degree=3, num_basis=6),)
        with pytest.raises(SampleSizeError, match=r"n > k"):
            build_dataset(self._curves(1, bases, rng), np.array([5.0]), bases)

    def test_response_length_mismatch(self):
        rng = np.random.default_rng(2)
        bases = (make_uniform_basis(0.0, 1.0, degree=3, num_basis=6),)
        with pytest.raises(DataError, match="responses"):
            build_dataset(self._curves(10, bases, rng), np.zeros(9), bases)

    def test_ragged_row_rejected(self):
        # a predictor whose blocks cover fewer samples than there are
        # responses, and a curve list for the wrong number of predictors
        rng = np.random.default_rng(2)
        bases = (make_uniform_basis(0.0, 1.0, degree=3, num_basis=6),) * 2
        curves = self._curves(10, bases, rng)
        (block,) = curves[1]
        curves[1] = (CurveBlock(grid=block.grid, values=block.values[:9]),)
        with pytest.raises(DataError, match="predictor 1 has 9 curves"):
            build_dataset(curves, np.zeros(10), bases)
        with pytest.raises(DataError, match="expected 2"):
            build_dataset(curves[:1], np.zeros(10), bases)

    def test_error_names_sample_and_predictor(self):
        rng = np.random.default_rng(2)
        bases = (make_uniform_basis(0.0, 1.0, degree=3, num_basis=6),)
        (block,) = self._curves(10, bases, rng)[0]
        bad_grid = np.linspace(0.0, 1.0, 5)
        curves = [self._split(block, (4, 5), bad_grid)]
        with pytest.raises(DataError, match="sample 4, predictor 0: grid has 5 points"):
            build_dataset(curves, np.zeros(10), bases)

    def test_error_in_shared_block_names_its_samples(self):
        # a bad grid shared by samples 3-5, between two good blocks
        rng = np.random.default_rng(2)
        bases = (make_uniform_basis(0.0, 1.0, degree=3, num_basis=6),) * 2
        curves = self._curves(20, bases, rng)
        curves[1] = self._split(curves[1][0], (3, 6), np.linspace(0.0, 0.3, 8))
        with pytest.raises(
            RankDeficiencyError,
            match=r"sample 3, predictor 1 \(grid shared by samples 3-5\): .*knot span",
        ):
            build_dataset(curves, np.zeros(20), bases)
