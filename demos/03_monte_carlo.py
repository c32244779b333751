"""A small Monte Carlo selection experiment.

Runs 25 replications of each scenario/method combination and prints the
correct-selection counts and per-predictor selection frequencies. Increase
`REPS` to 100 and add n=300 rows to reproduce the full experiment.
"""

from funcsel.simgen import SimScenario, run_monte_carlo

REPS = 25


def main() -> None:
    print(f"{REPS} replications per cell, seed 0\n")
    header = f"{'c':>4} {'n':>4} {'method':>7} {'q':>5} {'correct':>8}  frequencies"
    print(header)
    print("-" * len(header))
    rules = [(method, q) for method in ("bc", "fdr") for q in (0.01, 0.05)]
    for c in (0.0, 0.4, 0.8):
        scenario = SimScenario(c=c, n=100, seed=0)
        # one pass over the replications gives the report of every rule
        for report in run_monte_carlo(scenario, rules, REPS):
            freqs = " ".join(f"{f:.2f}" for f in report.selection_frequencies)
            print(f"{c:>4} {100:>4} {report.method:>7} {report.q:>5} "
                  f"{report.correct_count:>5}/{REPS}  {freqs}")


if __name__ == "__main__":
    main()
