"""B-spline bases and their Gram matrices.

Builds a cubic basis on [-1, 1], shows the partition-of-unity property, and
prints the banded Gram matrix of pairwise basis-function inner products.
"""

import numpy as np

from funcsel import evaluate_basis_matrix, gram_matrix, make_uniform_basis


def main() -> None:
    spec = make_uniform_basis(-1.0, 1.0, degree=3, num_basis=6)
    print(f"basis: degree {spec.degree}, {spec.num_basis} functions "
          f"on [{spec.domain_lo}, {spec.domain_hi}]")
    print(f"knots: {np.round(spec.knot_array, 3)}")

    ts = np.linspace(-1.0, 1.0, 9)
    phi = evaluate_basis_matrix(spec, ts)
    print("\nbasis values on a coarse grid (rows: t, columns: phi_j):")
    for t, row in zip(ts, phi):
        print(f"  t={t:+.2f}  " + "  ".join(f"{v:.4f}" for v in row))
    print(f"\nrow sums (partition of unity): {np.round(phi.sum(axis=1), 12)}")

    gram = gram_matrix(spec)
    print("\nGram matrix J (inner products of basis functions):")
    for row in gram:
        print("  " + "  ".join(f"{v:.5f}" for v in row))
    print(f"total mass sum(J) = {gram.sum():.6f} "
          f"(equals the domain length {spec.domain_hi - spec.domain_lo})")


if __name__ == "__main__":
    main()
