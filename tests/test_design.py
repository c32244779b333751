"""Design-matrix assembly: block layout, Gram blocks, integral identity."""

import numpy as np
import pytest

from funcsel import (
    FunctionalDataset,
    RankDeficiencyError,
    build_design,
    evaluate_basis_matrix,
    fit_ols,
    gram_matrix,
    make_uniform_basis,
)
from funcsel.simgen import SimScenario

from conftest import synthetic_design
from oracles import block_size, block_slice


def _dataset(bases, coefs, responses):
    return FunctionalDataset(
        bases=tuple(bases),
        coefs=tuple(np.asarray(c, dtype=float) for c in coefs),
        responses=np.asarray(responses, dtype=float),
    )


class TestBuildDesign:
    def test_identity_gram_passes_coefficients_through(self):
        # two unit-length constant pieces: the Gram matrix is exactly I
        spec = make_uniform_basis(0.0, 2.0, degree=0, num_basis=2)
        assert np.array_equal(gram_matrix(spec), np.eye(2))
        coefs = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0], [0.1, 0.2]])
        data = _dataset([spec], [coefs], np.zeros(4))
        design = build_design(data)
        assert design.values[0] == pytest.approx([1.0, 1.0, 2.0])
        assert design.block_offsets == (1, 3)
        assert design.k == 3

    def test_hat_gram_row(self):
        spec = make_uniform_basis(0.0, 1.0, degree=1, num_basis=2)
        coefs = np.array([[1.0, 1.0], [2.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
        data = _dataset([spec], [coefs], np.zeros(4))
        design = build_design(data)
        # W = (1, 1) against the hat Gram [[1/3,1/6],[1/6,1/3]] gives (1/2, 1/2)
        assert design.values[0, 1:] == pytest.approx([0.5, 0.5])

    def test_synthetic_scenario_full_rank(self):
        design, _, _, _ = synthetic_design(SimScenario(c=0.0, n=100, seed=4))
        assert design.values.shape == (100, 37)
        sv = np.linalg.svd(design.values, compute_uv=False)
        assert sv[-1] / sv[0] > 1e-10
        assert design.block_offsets == (1, 7, 13, 19, 25, 31, 37)
        assert np.all(design.values[:, 0] == 1.0)

    def test_block_slices(self):
        design, _, _, _ = synthetic_design(SimScenario(c=0.0, n=100, seed=4))
        assert design.num_predictors == 6
        assert block_slice(design, 0) == slice(1, 7)
        assert block_size(design, 5) == 6

    def test_integral_identity(self):
        # Z-block entries dot b_m must equal the quadrature integral of the
        # smoothed curve times the coefficient function b_m' phi
        rng = np.random.default_rng(13)
        spec = make_uniform_basis(-1.0, 2.0, degree=3, num_basis=7)
        n = 40
        coefs = rng.normal(size=(n, 7))
        data = _dataset([spec], [coefs], np.zeros(n))
        design = build_design(data)
        fine = np.linspace(-1.0, 2.0, 200_001)
        basis_fine = evaluate_basis_matrix(spec, fine)
        weights = np.full(fine.size, fine[1] - fine[0])
        weights[0] *= 0.5
        weights[-1] *= 0.5
        for _ in range(5):
            b = rng.normal(size=7)
            lhs = design.values[:, 1:] @ b
            integrand = (basis_fine @ coefs.T).T * (basis_fine @ b)
            rhs = integrand @ weights
            assert np.max(np.abs(lhs - rhs)) < 1e-8 * max(np.max(np.abs(rhs)), 1.0)

    def test_rank_deficiency_detected(self):
        # assembly leaves the rank to the fit, which rejects a duplicated block
        rng = np.random.default_rng(8)
        spec = make_uniform_basis(0.0, 1.0, degree=3, num_basis=6)
        shared = rng.normal(size=(40, 6))
        data = _dataset([spec, spec], [shared, shared], np.zeros(40))
        design = build_design(data)
        with pytest.raises(RankDeficiencyError, match="singular"):
            fit_ols(design, rng.normal(size=40))

    def test_values_are_read_only(self):
        design, _, _, _ = synthetic_design(SimScenario(c=0.0, n=100, seed=4))
        with pytest.raises(ValueError):
            design.values[0, 0] = 2.0
