"""End-to-end selection on one synthetic dataset.

Generates a single replication of the six-predictor synthetic scenario (one
shared-grid block of curves per predictor), smooths the noisy curves onto
cubic bases, fits the functional linear model, tests each predictor, and
applies both selection rules.
"""

import warnings

import numpy as np

from funcsel import (
    ConditionWarning,
    build_dataset,
    build_design,
    fit_ols,
    gram_matrix,
    make_uniform_basis,
    select_bonferroni,
    select_fdr,
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
    grams = tuple(gram_matrix(spec) for spec in bases)
    data = build_dataset(curves, y, bases)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditionWarning)
        design = build_design(data, grams)
    print(f"design: n={design.n}, k={design.k} "
          f"(intercept + {design.num_predictors} blocks of 6)")

    full = fit_ols(design, y)
    print(f"RSS = {full.rss:.4f}, sigma2_tilde = {full.sigma2_tilde:.6f}")

    tests = test_all(design, y)
    print("\nper-predictor likelihood-ratio tests:")
    for t in tests:
        print(f"  predictor {t.predictor_index}: T = {t.statistic:10.2f}  "
              f"p = {t.p_value:.3e}")

    q = 1.0 / np.sqrt(design.n)
    for result in (select_bonferroni(tests, q), select_fdr(tests, q)):
        print(f"\n{result.method} at q = {q:.4f}: selected {result.selected}")


if __name__ == "__main__":
    main()
