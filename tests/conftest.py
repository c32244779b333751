"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np

from funcsel import (
    CurveBlock,
    build_dataset,
    build_design,
    evaluate_basis_matrix,
    gram_matrix,
    make_uniform_basis,
)
from funcsel.simgen import DOMAINS, generate_replication

from oracles import block_slice


def standard_bases(degree: int = 3, num_basis: int = 6):
    """One cubic six-function basis per synthetic-scenario domain."""
    return tuple(
        make_uniform_basis(lo, hi, degree=degree, num_basis=num_basis)
        for lo, hi in DOMAINS
    )


def synthetic_design(scenario, rep: int = 0):
    """Full pipeline for one synthetic replication: (design, y, dataset, truth)."""
    curves, y, truth = generate_replication(scenario, rep)
    bases = standard_bases()
    data = build_dataset(curves, y, bases)
    design = build_design(data)
    return design, y, data, truth


def project_coefficients(bases, betas) -> np.ndarray:
    """Stacked coefficient vector (intercept 0) whose blocks are the
    least-squares basis representations of the given coefficient functions:
    block m solves J_m b_m = integral of phi_m * beta_m."""
    blocks = [np.zeros(1)]
    nodes, weights = np.polynomial.legendre.leggauss(80)
    for spec, beta in zip(bases, betas):
        half = 0.5 * (spec.domain_hi - spec.domain_lo)
        ts = 0.5 * (spec.domain_hi + spec.domain_lo) + half * nodes
        phi = evaluate_basis_matrix(spec, ts)
        v = phi.T @ (half * weights * beta(ts))
        blocks.append(np.linalg.solve(gram_matrix(spec), v))
    return np.concatenate(blocks)


def random_design(rng: np.random.Generator, n: int, block_sizes: tuple[int, ...]):
    """A well-conditioned design with the package's block layout, built from
    random curves smoothed onto per-predictor bases."""
    bases = tuple(
        make_uniform_basis(0.0, 1.0, degree=3, num_basis=p) for p in block_sizes
    )
    grid = np.linspace(0.0, 1.0, 24)
    # drawn sample by sample, then predictor by predictor
    draws = [[rng.normal(0.0, 1.0, spec.num_basis) for spec in bases] for _ in range(n)]
    curves = [
        (CurveBlock(grid=grid, values=np.array([row[m] for row in draws])
                    @ evaluate_basis_matrix(spec, grid).T),)
        for m, spec in enumerate(bases)
    ]
    y = rng.normal(0.0, 1.0, n)
    data = build_dataset(curves, y, bases)
    design = build_design(data)
    return design, y


def orthonormal_test_basis(design, r: int) -> np.ndarray:
    """Orthonormal basis U_r of the span of block r orthogonalized against the
    remaining columns, so that RSS0 - RSS = ||U_r' y||^2."""
    z = design.values
    sl = block_slice(design, r)
    keep = np.ones(design.k, dtype=bool)
    keep[sl] = False
    q0, _ = np.linalg.qr(z[:, keep])
    block = z[:, sl] - q0 @ (q0.T @ z[:, sl])
    u, _ = np.linalg.qr(block)
    return u
