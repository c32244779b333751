"""End-to-end selection on one synthetic dataset.

Generates a single replication of the six-predictor synthetic scenario (one
shared-grid block of curves per predictor), smooths the noisy curves onto
cubic bases, fits the functional linear model, tests each predictor, and
applies both selection rules.
"""

import numpy as np

from funcsel import (
    build_dataset,
    build_design,
    fit_ols,
    make_uniform_basis,
    selection_mask,
    test_all,
)
from funcsel.simgen import DOMAINS, SimScenario, generate_replication


def main() -> None:
    scenario = SimScenario(c=0.8, n=300, seed=0)
    curves, y, truth = generate_replication(scenario, 0)
    print(f"scenario: c={scenario.c}, n={scenario.n}; "
          f"relevant predictors: {sorted(truth.true_indices)}")
    # one block per predictor: a shared grid and one row of values per sample
    for m, (block,) in enumerate(curves):
        print(f"  predictor {m}: {block.num_curves} curves on "
              f"{block.grid.size} points in [{block.grid[0]:.3f}, {block.grid[-1]:.3f}]")

    bases = tuple(
        make_uniform_basis(lo, hi, degree=3, num_basis=6) for lo, hi in DOMAINS
    )
    data = build_dataset(curves, y, bases)
    design = build_design(data)
    print(f"design: n={design.n}, k={design.k} "
          f"(intercept + {design.num_predictors} blocks of 6)")

    full = fit_ols(design, y)
    print(f"RSS = {design.n * full.sigma2_tilde:.4f}, sigma2_tilde = {full.sigma2_tilde:.6f}")

    statistics, p_values = test_all(design, y)
    print("\nper-predictor likelihood-ratio tests:")
    for m, (statistic, p) in enumerate(zip(statistics, p_values)):
        print(f"  predictor {m}: T = {statistic:10.2f}  p = {p:.3e}")

    q = 1.0 / np.sqrt(design.n)
    for method in ("bonferroni", "fdr"):
        selected = np.flatnonzero(selection_mask(method, p_values, q)).tolist()
        print(f"\n{method} at q = {q:.4f}: selected {selected}")


if __name__ == "__main__":
    main()
