"""Synthetic-data generators and the Monte Carlo selection experiment.

Six functional predictors are generated from closed-form random curves on
fixed domains, observed with noise on an equally spaced grid per predictor,
and emitted as one :class:`~funcsel.smoothing.CurveBlock` per predictor: the
grid plus an (n, G) value matrix, so no object is built per curve. The scalar
response is a sum of integrals of the true curves against closed-form
coefficient functions plus noise. A scenario is (c, n, seed); the grid size
and the two noise multipliers are the module constants ``GRID_SIZE``,
``NOISE_X_MULT`` and ``NOISE_Y_MULT``. What a replication shares with every
other replication of the same c (the grids, the quadrature nodes and the
quadrature weights times the coefficient functions) is computed once per c
and cached, read-only; a replication draws its parameters and noise and
evaluates the six curve formulas.

The Monte Carlo driver runs the full smoothing / design / testing pipeline
once per replication, one replication after another, and applies any number
of (method, q) selection rules to the one set of p-values, with one report
per rule of correct-selection counts, selection frequencies, and
out-of-sample AMSE.

Randomness follows the seed rule of :mod:`funcsel.seeds`: replication j
draws from the Philox stream (seed, j) for its training set and
(seed, j + 2^32) for its test set, so each replication's data is independent
of how many replications run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .bspline import make_uniform_basis
from .design import build_design
from .errors import DataError, NumericalError
from .inference import test_all
from .seeds import check_seed, rng_for
from .selection import check_method, check_q, selection_mask
from .smoothing import CurveBlock, build_dataset

__all__ = [
    "NUM_PREDICTORS",
    "DOMAINS",
    "GRID_SIZE",
    "NOISE_X_MULT",
    "NOISE_Y_MULT",
    "SimScenario",
    "SimTruth",
    "MonteCarloReport",
    "coefficient_functions",
    "true_index_set",
    "generate_replication",
    "run_monte_carlo",
]

NUM_PREDICTORS = 6

DOMAINS: tuple[tuple[float, float], ...] = (
    (0.0, 1.0),
    (0.0, math.pi / 3),
    (-1.0, 1.0),
    (0.0, math.pi / 3),
    (-2.0, 1.0),
    (-1.0, 1.0),
)

# points of every predictor's equally spaced grid
GRID_SIZE = 50
# standard deviations of the curve and response noise, as fractions of the
# realized range of the noise-free curves and responses of a replication
NOISE_X_MULT = 0.025
NOISE_Y_MULT = 0.05

_TEST_STREAM_OFFSET = 2**32
_QUAD_ORDER = 64
_NUM_BASIS = 6  # cubic B-spline functions per predictor in the Monte Carlo fit


@dataclass(frozen=True)
class SimScenario:
    """One synthetic-data setting: signal strength, sample size, seed."""

    c: float
    n: int
    seed: int

    def __post_init__(self):
        if self.n < 50:
            raise ValueError(f"n must be >= 50, got {self.n}")
        check_seed(self.seed)
        # the AMSE squares errors of the size of c, which overflow by c = 1e200
        if not abs(self.c) <= 1e100:
            raise ValueError(
                f"signal strength c must be finite with |c| <= 1e100, got {self.c}"
            )


@dataclass(frozen=True)
class SimTruth:
    """Ground truth of a replication: the set of relevant predictors."""

    true_indices: frozenset[int]


@dataclass(frozen=True)
class MonteCarloReport:
    """Aggregate of a Monte Carlo selection experiment."""

    method: str
    q: float
    c: float
    n: int
    seed: int
    replications: int
    failed: int
    correct_count: int
    amse: float
    selection_frequencies: tuple[float, ...]


def coefficient_functions(
    c: float,
) -> tuple[Callable[[np.ndarray], np.ndarray], ...]:
    """The six true coefficient functions for signal strength ``c``."""
    return (
        np.sin,
        lambda t: np.sin(2.0 * t),
        lambda t: -c * t**2,
        lambda t: np.sin(2.0 * t),
        lambda t: c * np.sin(np.pi * t),
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    )


def true_index_set(c: float) -> frozenset[int]:
    """0-based indices of predictors with a nonzero coefficient function."""
    if c == 0:
        return frozenset({0, 1, 3})
    return frozenset({0, 1, 2, 3, 4})


def _draw_curve_params(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    # drawn in a fixed, documented order to pin the random stream layout
    return {
        "a1": rng.normal(-4.0, 3.0, n),
        "a2": rng.normal(7.0, 1.5, n),
        "b1": rng.uniform(3.0, 7.0, n),
        "b2": rng.normal(0.0, 1.0, n),
        "c1": rng.normal(-3.0, 1.2, n),
        "c2": rng.normal(2.0, 0.5, n),
        "c3": rng.normal(-2.0, 1.0, n),
        "d1": rng.normal(-2.0, 1.0, n),
        "d2": rng.normal(3.0, 1.5, n),
        "e1": rng.uniform(2.0, 7.0, n),
        "e2": rng.normal(2.0, 0.4, n),
        "f1": rng.normal(4.0, 2.0, n),
        "f2": rng.normal(-3.0, 0.5, n),
        "f3": rng.normal(1.0, 1.0, n),
    }


def _quad_rule(lo: float, hi: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (hi - lo)
    return 0.5 * (hi + lo) + half * nodes, half * weights


@dataclass(frozen=True, eq=False)
class _PredictorPlan:
    """What one predictor's curves share across replications: its grid, its
    quadrature nodes, and the quadrature weights times its coefficient
    function at the nodes. Every array is read-only.

    ``weighted_beta`` is None where the coefficient function is zero: the
    predictor's integral then adds exactly 0 to every response, so its
    curves at the nodes are not needed.
    """

    grid: np.ndarray
    nodes: np.ndarray
    weighted_beta: np.ndarray | None


@lru_cache(maxsize=32)
def _plan(c: float) -> tuple[_PredictorPlan, ...]:
    betas = coefficient_functions(c)
    plans = []
    for m, (lo, hi) in enumerate(DOMAINS):
        grid = np.linspace(lo, hi, GRID_SIZE)
        nodes, weights = _quad_rule(lo, hi, _QUAD_ORDER)
        weighted_beta = weights * betas[m](nodes)
        for array in (grid, nodes, weighted_beta):
            array.setflags(write=False)
        if not weighted_beta.any():
            weighted_beta = None
        plans.append(_PredictorPlan(grid, nodes, weighted_beta))
    return tuple(plans)


def _curves(params: dict[str, np.ndarray], m: int, points: np.ndarray) -> np.ndarray:
    """True curves of predictor m for all samples at ``points``, (n, P),
    from each sample's parameters a1 .. f3."""
    def col(key: str) -> np.ndarray:
        return params[key][:, None]

    t = points[None, :]
    if m == 0:
        return np.cos(2.0 * np.pi * (t - col("a1"))) + col("a2")
    if m == 1:
        return col("b1") * np.sin(np.pi * t) + col("b2")
    if m == 2:
        return col("c1") * t**3 + col("c2") * t**2 + col("c3") * t
    if m == 3:
        return np.sin(2.0 * (t - col("d1"))) + col("d2") * t
    if m == 4:
        return col("e1") * np.cos(2.0 * t) + col("e2") * t
    return col("f1") * np.exp(-t / 3.0) + col("f2") * t + col("f3")


def generate_replication(
    scenario: SimScenario, rep_index: int
) -> tuple[tuple[tuple[CurveBlock], ...], np.ndarray, SimTruth]:
    """One synthetic dataset: noisy gridded curves, responses, and the truth.

    ``curves[m]`` is a one-element tuple holding predictor m's block: all n
    curves on that predictor's equally spaced grid of ``GRID_SIZE`` points,
    in the layout :func:`~funcsel.smoothing.build_dataset` takes. The grid
    is shared by every replication of the scenario and is read-only; the
    values are a fresh array per call.

    The response is built from exact integrals of the noise-free curves
    against the coefficient functions (Gauss-Legendre, accurate to well below
    1e-10 for these smooth integrands); both noise layers are scaled by the
    realized ranges of the noise-free signals, times ``NOISE_X_MULT`` and
    ``NOISE_Y_MULT``, which are read on each call.

    What does not depend on the draws (the grids, the quadrature nodes and
    the quadrature weights times the coefficient functions) comes from a
    plan cached per c. Each call draws the curve parameters and evaluates
    the six curve formulas at the grid and, for a nonzero coefficient
    function, at the nodes. Of a call's time at n = 300, about 40% is the
    Philox normal draws and about a quarter the cos and sin of the
    (n, GRID_SIZE) and (n, 64) arrays of predictors 0 and 3; neither can
    shrink while the random stream layout and the bits of the reports stay
    fixed.
    """
    rng = rng_for(scenario.seed, rep_index)
    n = scenario.n
    params = _draw_curve_params(rng, n)
    plan = _plan(scenario.c)

    curves = []
    integrals = np.zeros(n)
    for m, predictor in enumerate(plan):
        values = _curves(params, m, predictor.grid)
        signal_range = float(values.max() - values.min())
        values += NOISE_X_MULT * signal_range * rng.standard_normal(values.shape)
        curves.append((CurveBlock(grid=predictor.grid, values=values),))
        if predictor.weighted_beta is not None:
            integrals += _curves(params, m, predictor.nodes) @ predictor.weighted_beta

    response_range = float(integrals.max() - integrals.min())
    integrals += NOISE_Y_MULT * response_range * rng.standard_normal(n)

    truth = SimTruth(true_indices=true_index_set(scenario.c))
    return tuple(curves), integrals, truth


def _reduced_prediction(
    z_train: np.ndarray,
    y_train: np.ndarray,
    z_test: np.ndarray,
    columns: np.ndarray,
) -> np.ndarray:
    coef, *_ = np.linalg.lstsq(z_train[:, columns], y_train, rcond=None)
    return z_test[:, columns] @ coef


def _run_one_replication(
    scenario: SimScenario, rules: tuple[tuple[str, float], ...], rep: int, bases
) -> list[tuple[bool, np.ndarray, float]]:
    """Each rule's (correct, mask, test-set MSE) on replication ``rep``."""
    curves, y, truth = generate_replication(scenario, rep)
    design = build_design(build_dataset(curves, y, bases))
    p_values = test_all(design, y)[1]
    masks = [selection_mask(method, p_values, q) for method, q in rules]

    # out-of-sample MSE of the model refit on the selected predictors only,
    # once per distinct selection
    curves_test, y_test, _ = generate_replication(scenario, rep + _TEST_STREAM_OFFSET)
    design_test = build_design(build_dataset(curves_test, y_test, bases))
    block_widths = np.diff([0, *design.block_offsets])
    mse_by_mask = {}
    outcomes = []
    for mask in masks:
        key = mask.tobytes()
        if key not in mse_by_mask:
            # the intercept column, then the columns of each selected block
            columns = np.repeat([True, *mask], block_widths)
            predicted = _reduced_prediction(design.values, y, design_test.values, columns)
            mse_by_mask[key] = float(np.mean((y_test - predicted) ** 2))
        correct = set(np.flatnonzero(mask).tolist()) == truth.true_indices
        outcomes.append((correct, mask, mse_by_mask[key]))
    return outcomes


def run_monte_carlo(
    scenario: SimScenario,
    rules: Sequence[tuple[str, float]],
    replications: int,
) -> tuple[MonteCarloReport, ...]:
    """Monte Carlo selection experiment over independent replications, one
    report per selection rule.

    ``rules`` is a sequence of (method, q) pairs. Each replication generates
    data, smooths it with cubic six-function bases per predictor, builds the
    design and tests every predictor once; then each rule selects from the
    one vector of p-values, and the test-set refit runs once per distinct
    selection. So the reports of several rules cost about one pass, and each
    equals the report of a run with that rule alone. The replications run
    one after another, in index order. A replication counts as correct when
    the selected set equals the true relevant set exactly.
    Failed replications (numerically degenerate data) are skipped and
    counted, for every rule.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    rules = tuple((check_method(method), check_q(q)) for method, q in rules)
    if not rules:
        raise ValueError("rules must hold at least one (method, q) pair")
    bases = tuple(
        make_uniform_basis(lo, hi, degree=3, num_basis=_NUM_BASIS) for lo, hi in DOMAINS
    )

    succeeded = []
    for rep in range(replications):
        try:
            succeeded.append(_run_one_replication(scenario, rules, rep, bases))
        except (NumericalError, DataError):
            pass
    failed = replications - len(succeeded)
    denom = max(len(succeeded), 1)
    reports = []
    for r, (method, q) in enumerate(rules):
        counts = np.zeros(NUM_PREDICTORS)
        correct_count = 0
        mse_sum = 0.0
        for correct, mask, mse in (out[r] for out in succeeded):
            correct_count += int(correct)
            counts += mask
            mse_sum += mse
        reports.append(
            MonteCarloReport(
                method=method,
                q=q,
                c=scenario.c,
                n=scenario.n,
                seed=scenario.seed,
                replications=replications,
                failed=failed,
                correct_count=correct_count,
                amse=mse_sum / denom,
                selection_frequencies=tuple(counts / denom),
            )
        )
    return tuple(reports)
