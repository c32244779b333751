"""Synthetic-data generators and the Monte Carlo selection experiment.

Six functional predictors are generated from closed-form random curves on
fixed domains, observed with noise on an equally spaced grid per predictor,
and emitted as one :class:`~funcsel.smoothing.CurveBlock` per predictor: the
grid plus an (n, G) value matrix, so no object is built per curve. The scalar
response is a sum of integrals of the true curves against closed-form
coefficient functions plus noise. The Monte Carlo driver runs the full
smoothing / design / testing / selection pipeline per replication and reports
correct-selection counts, selection frequencies, and out-of-sample AMSE.

Randomness uses the counter-based Philox generator keyed by (seed, stream):
replication j draws from stream j (training) and stream j + 2^32 (test set),
so each replication's data is independent of how many replications run.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .bspline import make_uniform_basis
from .design import build_design, check_parameter_count
from .errors import DataError, NumericalError
from .inference import test_all
from .selection import check_method, check_q, selection_mask
from .smoothing import CurveBlock, build_dataset

__all__ = [
    "NUM_PREDICTORS",
    "DOMAINS",
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

_TEST_STREAM_OFFSET = 2**32
_QUAD_ORDER = 64


@dataclass(frozen=True)
class SimScenario:
    """Configuration of one synthetic-data setting."""

    c: float
    n: int
    seed: int
    grid_size: int = 50
    noise_x_mult: float = 0.025
    noise_y_mult: float = 0.05

    def __post_init__(self):
        if self.n < 50:
            raise ValueError(f"n must be >= 50, got {self.n}")
        if self.grid_size < 1:
            raise ValueError(f"grid_size must be >= 1, got {self.grid_size}")
        if self.noise_x_mult < 0 or self.noise_y_mult < 0:
            raise ValueError("noise multipliers must be nonnegative")
        if not 0 <= self.seed < 2**64:  # the Philox key is a uint64
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if not math.isfinite(self.c):
            raise ValueError(f"signal strength c must be finite, got {self.c}")


@dataclass(frozen=True)
class SimTruth:
    """Ground truth of a replication: the set of relevant predictors."""

    true_indices: frozenset[int]

    @property
    def m0(self) -> int:
        return len(self.true_indices)


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

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "q": self.q,
            "c": self.c,
            "n": self.n,
            "seed": self.seed,
            "replications": self.replications,
            "failed": self.failed,
            "correct_count": self.correct_count,
            "amse": self.amse,
            "selection_frequencies": list(self.selection_frequencies),
        }


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


def _curve_values(params: dict[str, np.ndarray], m: int, t: np.ndarray) -> np.ndarray:
    """True curves of predictor m for all samples, shape (n, len(t))."""
    t = np.asarray(t, dtype=float)[None, :]
    p = {key: val[:, None] for key, val in params.items()}
    if m == 0:
        return np.cos(2.0 * np.pi * (t - p["a1"])) + p["a2"]
    if m == 1:
        return p["b1"] * np.sin(np.pi * t) + p["b2"]
    if m == 2:
        return p["c1"] * t**3 + p["c2"] * t**2 + p["c3"] * t
    if m == 3:
        return np.sin(2.0 * (t - p["d1"])) + p["d2"] * t
    if m == 4:
        return p["e1"] * np.cos(2.0 * t) + p["e2"] * t
    if m == 5:
        return p["f1"] * np.exp(-t / 3.0) + p["f2"] * t + p["f3"]
    raise ValueError(f"predictor index {m} out of range")


@lru_cache(maxsize=32)
def _quad_rule(lo: float, hi: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (hi - lo)
    return 0.5 * (hi + lo) + half * nodes, half * weights


def _rng_for(scenario: SimScenario, stream: int) -> np.random.Generator:
    key = np.array([scenario.seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def generate_replication(
    scenario: SimScenario, rep_index: int
) -> tuple[tuple[tuple[CurveBlock], ...], np.ndarray, SimTruth]:
    """One synthetic dataset: noisy gridded curves, responses, and the truth.

    ``curves[m]`` is a one-element tuple holding predictor m's block: all n
    curves on that predictor's equally spaced grid of ``grid_size`` points,
    in the layout :func:`~funcsel.smoothing.build_dataset` takes.

    The response is built from exact integrals of the noise-free curves
    against the coefficient functions (Gauss-Legendre, accurate to well below
    1e-10 for these smooth integrands); both noise layers are scaled by the
    realized ranges of the noise-free signals.
    """
    rng = _rng_for(scenario, rep_index)
    n = scenario.n
    params = _draw_curve_params(rng, n)
    betas = coefficient_functions(scenario.c)

    grids = [
        np.linspace(lo, hi, scenario.grid_size) for lo, hi in DOMAINS
    ]
    curves = []
    integrals = np.zeros(n)
    for m in range(NUM_PREDICTORS):
        true_on_grid = _curve_values(params, m, grids[m])
        signal_range = float(true_on_grid.max() - true_on_grid.min())
        noisy = true_on_grid + rng.normal(
            0.0, scenario.noise_x_mult * signal_range, size=true_on_grid.shape
        )
        curves.append((CurveBlock(grid=grids[m], values=noisy),))
        nodes, weights = _quad_rule(*DOMAINS[m], _QUAD_ORDER)
        integrals += _curve_values(params, m, nodes) @ (weights * betas[m](nodes))

    response_range = float(integrals.max() - integrals.min())
    responses = integrals + rng.normal(
        0.0, scenario.noise_y_mult * response_range, size=n
    )

    truth = SimTruth(true_indices=true_index_set(scenario.c))
    return tuple(curves), responses, truth


def _reduced_prediction(
    z_train: np.ndarray,
    y_train: np.ndarray,
    z_test: np.ndarray,
    columns: np.ndarray,
) -> np.ndarray:
    coef, *_ = np.linalg.lstsq(z_train[:, columns], y_train, rcond=None)
    return z_test[:, columns] @ coef


def _run_one_replication(scenario: SimScenario, method: str, q: float, rep: int, bases):
    curves, y, truth = generate_replication(scenario, rep)
    design = build_design(build_dataset(curves, y, bases))
    mask = selection_mask(method, test_all(design, y)[1], q)
    correct = set(np.flatnonzero(mask).tolist()) == truth.true_indices

    # out-of-sample MSE of the model refit on the selected predictors only
    curves_test, y_test, _ = generate_replication(scenario, rep + _TEST_STREAM_OFFSET)
    design_test = build_design(build_dataset(curves_test, y_test, bases))
    # the intercept column, then the columns of each selected block
    columns = np.repeat([True, *mask], np.diff([0, *design.block_offsets]))
    predicted = _reduced_prediction(design.values, y, design_test.values, columns)
    mse = float(np.mean((y_test - predicted) ** 2))
    return correct, mask, mse


def run_monte_carlo(
    scenario: SimScenario,
    method: str,
    q: float,
    replications: int,
    threads: int = 1,
) -> MonteCarloReport:
    """Monte Carlo selection experiment over independent replications.

    Each replication generates data, smooths it with cubic six-function bases
    per predictor, builds the design, tests every predictor, and applies the
    selection rule. A replication counts as correct when the selected set
    equals the true relevant set exactly. Failed replications (numerically
    degenerate resamples) are skipped and counted. The parameter count is
    checked once, before the replications, so a run emits
    :class:`~funcsel.errors.ConditionWarning` at most once.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    method = check_method(method)
    check_q(q)
    bases = tuple(make_uniform_basis(lo, hi, degree=3, num_basis=6) for lo, hi in DOMAINS)
    check_parameter_count(scenario.n, 1 + sum(spec.num_basis for spec in bases))

    def worker(rep: int):
        try:
            return _run_one_replication(scenario, method, q, rep, bases)
        except (NumericalError, DataError):
            return None

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(worker, range(replications)))
    else:
        outcomes = [worker(rep) for rep in range(replications)]

    failed = sum(1 for out in outcomes if out is None)
    succeeded = [out for out in outcomes if out is not None]
    counts = np.zeros(NUM_PREDICTORS)
    correct_count = 0
    mse_sum = 0.0
    for correct, mask, mse in succeeded:
        correct_count += int(correct)
        counts += mask
        mse_sum += mse
    denom = max(len(succeeded), 1)
    return MonteCarloReport(
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
