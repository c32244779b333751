"""Least-squares smoothing of gridded curves and dataset assembly."""

from unittest import mock

import numpy as np
import pytest

from funcsel import smoothing
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

    def test_per_row_grids(self):
        grids = np.tile(np.linspace(0.0, 1.0, 5), (3, 1))
        assert CurveBlock(grid=grids, values=np.zeros((3, 5))).grid.shape == (3, 5)
        with pytest.raises(DataError, match="one grid per curve"):
            CurveBlock(grid=grids, values=np.zeros((2, 5)))
        grids[2, 3] = grids[2, 2]
        with pytest.raises(DataError, match="strictly increasing"):
            CurveBlock(grid=grids, values=np.zeros((3, 5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_name_their_row(self, bad):
        grids = np.tile(np.linspace(0.0, 1.0, 5), (3, 1))
        values = np.zeros((3, 5))
        values[2, 1] = bad
        with pytest.raises(DataError, match="values of row 2 has a non-finite entry"):
            CurveBlock(grid=grids[0], values=values)
        grids[1, 4] = bad
        with pytest.raises(DataError, match="grid of row 1 has a non-finite entry"):
            CurveBlock(grid=grids, values=np.zeros((3, 5)))
        with pytest.raises(DataError, match="grid shared by every row has a non-finite"):
            CurveBlock(grid=grids[1], values=np.zeros((3, 5)))

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
        # activate, so the fit is rank deficient and the span is named; the
        # criterion is the one the design's rank check uses
        grid = np.linspace(0.0, 0.3, 8)
        with pytest.raises(RankDeficiencyError, match=r"singular value .* < 1e-10; knot span"):
            smooth_curve(grid, np.zeros(8), cubic_basis)

    def test_near_coincident_points_reported(self, cubic_basis):
        # a point pair in each of the three knot spans, each pair 1e-13
        # apart: no span is empty, yet the six points span three dimensions
        grid = np.array([0.1, 0.5, 0.9])[:, None] + [0.0, 1e-13]
        with pytest.raises(RankDeficiencyError, match="no single knot span is empty"):
            smooth_curve(grid.ravel(), np.zeros(6), cubic_basis)


class TestPerRowBlock:
    """A block with one grid per row: one basis evaluation and one stacked
    QR of every row's [B | v] per chunk, whose R screens the rank check; the
    rows it cannot certify take the exact check, from their SVD."""

    def _grids(self, rows, points, rng):
        grids = np.tile(np.linspace(0.0, 1.0, points), (rows, 1))
        grids[:, 1:-1] += rng.uniform(-0.02, 0.02, (rows, points - 2))
        return grids

    def test_matches_one_row_blocks(self, cubic_basis):
        rng = np.random.default_rng(40)
        grids = self._grids(20, 12, rng)
        values = rng.normal(size=grids.shape)
        coefs = smooth_block(CurveBlock(grid=grids, values=values), cubic_basis)
        for grid, row, coef in zip(grids, values, coefs):
            one = smooth_curve(grid, row, cubic_basis)
            assert np.max(np.abs(coef - one)) <= 1e-12 * np.max(np.abs(one))

    @pytest.mark.parametrize(
        "fault, error, message",
        [
            ("outside", DataError, r"grid range \[0.0, 1.2\] exceeds"),
            ("empty_span", RankDeficiencyError, r"basis .* rank deficient.*knot span"),
        ],
        ids=["outside", "empty_span"],
    )
    def test_error_names_the_first_bad_row(self, cubic_basis, fault, error, message):
        rng = np.random.default_rng(41)
        grids = self._grids(20, 12, rng)
        bad = {"outside": np.linspace(0.0, 1.2, 12), "empty_span": np.linspace(0.0, 0.3, 12)}
        grids[7] = grids[12] = bad[fault]
        block = CurveBlock(grid=grids, values=rng.normal(size=grids.shape))
        with pytest.raises(error, match=message) as caught:
            smooth_block(block, cubic_basis)
        assert caught.value.row == 7
        # in a dataset, the block's rows are samples 30-49
        before = CurveBlock(grid=grids[0], values=np.zeros((30, 12)))
        with pytest.raises(error, match=rf"^sample 37, predictor 0: {message}"):
            build_dataset([[before, block]], np.zeros(50), [cubic_basis])

    def _pairs(self, gap):
        """A point pair in each of the three knot spans, ``gap`` apart."""
        return (np.array([0.1, 0.5, 0.9])[:, None] + [0.0, gap]).ravel()

    def test_near_coincident_rows_name_the_first(self, cubic_basis):
        # rows 7 and 12 hold pairs 1e-13 apart, as in the one-row test
        rng = np.random.default_rng(43)
        grids = self._grids(20, 6, rng)
        grids[7] = grids[12] = self._pairs(1e-13)
        block = CurveBlock(grid=grids, values=rng.normal(size=grids.shape))
        with pytest.raises(RankDeficiencyError, match="no single knot span is empty") as caught:
            smooth_block(block, cubic_basis)
        assert caught.value.row == 7

    def test_row_the_screen_flags_but_the_rank_check_passes(self, cubic_basis):
        # pairs 1.5e-10 apart: sigma_min/sigma_max of row 7's basis is about
        # 2e-10, above RANK_RTOL, but its QR bound is above 0.5/RANK_RTOL, so
        # that row alone takes the exact SVD check and is then smoothed
        rng = np.random.default_rng(44)
        grids = self._grids(20, 6, rng)
        grids[7] = self._pairs(1.5e-10)
        basis = evaluate_basis_matrix(cubic_basis, grids[7])
        sv = np.linalg.svd(basis, compute_uv=False)
        assert 1.5e-10 < sv[-1] / sv[0] < 3e-10
        truth = rng.normal(size=(20, 6))
        stacked = evaluate_basis_matrix(cubic_basis, grids).reshape(20, 6, 6)
        values = np.einsum("rgp,rp->rg", stacked, truth)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            coefs = smooth_block(CurveBlock(grid=grids, values=values), cubic_basis)
        assert [call.args[0].shape for call in svd.call_args_list] == [(1, 6, 6)]
        np.testing.assert_array_equal(svd.call_args.args[0][0], basis)
        expected, *_ = np.linalg.lstsq(basis, values[7], rcond=None)
        cond = sv[0] / sv[-1]
        gap = np.linalg.norm(coefs[7] - expected)
        assert gap <= 100 * cond * np.finfo(float).eps * np.linalg.norm(expected)

    def test_row_chunks_match_one_chunk(self, cubic_basis):
        # chunks of 3 rows: 0-2, 3-5, 6-8, ..., 18-19; row 7 is in the third
        rng = np.random.default_rng(42)
        grids = self._grids(20, 12, rng)
        values = rng.normal(size=grids.shape)
        whole = smooth_block(CurveBlock(grid=grids, values=values), cubic_basis)
        evaluate = mock.patch.object(
            smoothing, "evaluate_basis_matrix", wraps=smoothing.evaluate_basis_matrix
        )
        chunk = mock.patch.object(smoothing, "ROW_FLOATS", 3 * 12 * 6 + 5)
        with chunk, evaluate as calls:
            chunked = smooth_block(CurveBlock(grid=grids, values=values), cubic_basis)
            assert calls.call_count == 7
            grids[7] = grids[11] = np.linspace(0.0, 0.3, 12)
            with pytest.raises(RankDeficiencyError) as caught:
                smooth_block(CurveBlock(grid=grids, values=values), cubic_basis)
        np.testing.assert_array_equal(chunked, whole)
        assert caught.value.row == 7


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

    def test_two_dimensional_responses_rejected(self):
        rng = np.random.default_rng(2)
        bases = (make_uniform_basis(0.0, 1.0, degree=3, num_basis=6),)
        with pytest.raises(DataError, match="responses must be one-dimensional"):
            build_dataset(self._curves(10, bases, rng), np.zeros((10, 1)), bases)

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
