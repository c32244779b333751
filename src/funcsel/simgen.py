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
and cached, read-only; a data set makes all its draws first, its parameters
and its noise, and then evaluates the six curve formulas in place. The Monte
Carlo driver has the curves of every training set of a run written into one
array and those of every test set into another, so that no replication
faults the pages of its curves in again.

The Monte Carlo driver runs the full smoothing / design / testing pipeline
once per replication, the replications one after another, and applies any
number of (method, q) selection rules to the one set of p-values, with one
report per rule of correct-selection counts, selection frequencies, and
out-of-sample AMSE. The draws of each data set are made while the data set
before it is used: on a helper thread when the process may use two CPUs,
else inline. No bit of a report depends on which.

Randomness follows the seed rule of :mod:`funcsel.seeds`: replication j
draws from the Philox stream (seed, j) for its training set and
(seed, j + 2^32) for its test set, so each replication's data is independent
of how many replications run.
"""

from __future__ import annotations

import math
import os
import threading
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


def _curves(
    params: dict[str, np.ndarray], m: int, points: np.ndarray, out: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """True curves of predictor m for all samples at ``points``, written into
    ``out``, (n, P), from each sample's parameters a1 .. f3; ``tmp`` is
    scratch of the same shape. Each formula runs one operation at a time into
    ``out``, in the order of its written expression, so the bits are those of
    that expression evaluated on fresh arrays."""
    def col(key: str) -> np.ndarray:
        return params[key][:, None]

    t = points[None, :]
    if m == 0:  # cos(2 pi (t - a1)) + a2
        np.subtract(t, col("a1"), out=out)
        out *= 2.0 * np.pi
        np.cos(out, out=out)
        out += col("a2")
    elif m == 1:  # b1 sin(pi t) + b2
        np.multiply(col("b1"), np.sin(np.pi * t), out=out)
        out += col("b2")
    elif m == 2:  # c1 t^3 + c2 t^2 + c3 t
        np.multiply(col("c1"), t**3, out=out)
        out += np.multiply(col("c2"), t**2, out=tmp)
        out += np.multiply(col("c3"), t, out=tmp)
    elif m == 3:  # sin(2 (t - d1)) + d2 t
        np.subtract(t, col("d1"), out=out)
        out *= 2.0
        np.sin(out, out=out)
        out += np.multiply(col("d2"), t, out=tmp)
    elif m == 4:  # e1 cos(2 t) + e2 t
        np.multiply(col("e1"), np.cos(2.0 * t), out=out)
        out += np.multiply(col("e2"), t, out=tmp)
    else:  # f1 exp(-t / 3) + f2 t + f3
        np.multiply(col("f1"), np.exp(-t / 3.0), out=out)
        out += np.multiply(col("f2"), t, out=tmp)
        out += col("f3")
    return out


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
    plan cached per c. Each call first makes every draw of the data set
    (:func:`_draw`: the curve parameters, the curve noise and the response
    noise, in the order of the random stream layout), then evaluates the six
    curve formulas at the grid and, for a nonzero coefficient function, at
    the nodes, and scales and adds the noise (:func:`_generate`). Of a
    call's time at n = 300, about 45% is the draws and about a quarter the
    cos and sin of the (n, GRID_SIZE) and (n, 64) arrays of predictors 0
    and 3, which the random stream layout and the bits of the reports fix.

    Each call writes its curves into a fresh (NUM_PREDICTORS, n, GRID_SIZE)
    array, predictor m's block values being its row m: the draws write the
    curve noise there, and each curve is added to its noise in place.
    :func:`run_monte_carlo` instead writes every training set of a run into
    one such array and every test set into another: allocating and freeing
    the curve arrays for each data set let the C allocator hand their pages
    back to the system and fault them in again, about 5,800-7,300 minor page
    faults in a 16-replication run at n = 300, against none with arrays
    kept for the run.
    """
    values = np.empty((NUM_PREDICTORS, scenario.n, GRID_SIZE))
    return _generate(scenario, *_draw(scenario, rep_index, values), values)


def _draw(
    scenario: SimScenario, stream: int, noise: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Every draw of the data set of stream ``stream``, in the order of the
    random stream layout: the curve parameters, which are returned; the curve
    noise of predictors 0 to 5, written into ``noise``, (NUM_PREDICTORS, n,
    GRID_SIZE), in one fill that gives the bits of six fills of (n,
    GRID_SIZE) one after another; and the n response normals, returned
    unscaled. No call here reaches BLAS, and numpy's fills release the GIL."""
    rng = rng_for(scenario.seed, stream)
    params = _draw_curve_params(rng, scenario.n)
    rng.standard_normal(out=noise)
    return params, rng.standard_normal(scenario.n)


def _generate(
    scenario: SimScenario,
    params: dict[str, np.ndarray],
    response_noise: np.ndarray,
    values: np.ndarray,
) -> tuple[tuple[tuple[CurveBlock], ...], np.ndarray, SimTruth]:
    """The data set of what :func:`_draw` drew into ``params``,
    ``response_noise`` and ``values``. Predictor m's noise in ``values[m]``
    is scaled in place and its true curves are added in, so ``values[m]``
    becomes its block's values: noise + curve, which has the bits of
    curve + noise, as IEEE addition commutes. The responses are
    ``response_noise``, scaled in place, plus the integrals: a fresh array."""
    n = scenario.n
    plan = _plan(scenario.c)
    # a predictor's curves and the formulas' scratch, at the nodes and, in
    # the same memory, at the grid: each grid curve is read before the nodes'
    work = np.empty((2, n * max(GRID_SIZE, _QUAD_ORDER)))
    at_nodes, node_scratch = (row[: n * _QUAD_ORDER].reshape(n, _QUAD_ORDER) for row in work)
    curve, scratch = (row[: n * GRID_SIZE].reshape(n, GRID_SIZE) for row in work)
    curves = []
    integrals = np.zeros(n)
    for m, predictor in enumerate(plan):
        _curves(params, m, predictor.grid, curve, scratch)
        block = values[m]
        block *= NOISE_X_MULT * float(curve.max() - curve.min())
        block += curve
        curves.append((CurveBlock(grid=predictor.grid, values=block),))
        if predictor.weighted_beta is not None:
            _curves(params, m, predictor.nodes, at_nodes, node_scratch)
            integrals += at_nodes @ predictor.weighted_beta

    response_range = float(integrals.max() - integrals.min())
    response_noise *= NOISE_Y_MULT * response_range
    integrals += response_noise

    truth = SimTruth(true_indices=true_index_set(scenario.c))
    return tuple(curves), integrals, truth


def _use_helper() -> bool:
    """Whether :class:`_DrawAhead` draws on a helper thread: only where the
    process may use two CPUs or more, so that the helper can have a CPU of
    its own."""
    return len(os.sched_getaffinity(0)) >= 2


class _DrawAhead:
    """The data sets of a run in stream order (replication 0's training
    set, its test set, replication 1's training set, ...), each one's draws
    made while the data set before it is used.

    :meth:`take` requests the draws of the data set after the one it
    returns, then builds the one it returns. On a helper thread, started by
    ``with`` when :func:`_use_helper` allows it, those draws run beside the
    caller's work on the returned data set; otherwise the same calls run
    inline at the point of the request. The helper runs only :func:`_draw`,
    so it calls no BLAS. It is stopped and joined on leaving the ``with``,
    on errors too, and an exception it raises is raised by the next
    :meth:`take` or :meth:`skip`.

    Training sets draw their curve noise into one array kept for the run,
    test sets into another. So data set i's array is written again when data
    set i + 2 is requested, by the :meth:`take` of data set i + 1, and by
    then data set i has been smoothed into its design and its curves are
    not read again.
    """

    def __init__(self, scenario: SimScenario, replications: int):
        self._scenario = scenario
        self._count = 2 * replications
        self._values = np.empty((2, NUM_PREDICTORS, scenario.n, GRID_SIZE))
        self._drawn: dict[int, tuple[dict[str, np.ndarray], np.ndarray]] = {}
        self.taken = 0
        self._helper = None
        self._error: BaseException | None = None
        self._stop = False

    def __enter__(self) -> _DrawAhead:
        # data set 0 is drawn on the calling thread: a process's first Philox
        # generator takes about 0.8 MB, which on a helper would come from a
        # malloc arena of the helper's own and stay resident beside the heap
        self._draw_data_set(0)
        if _use_helper():
            self._requested = threading.Semaphore(0)
            self._ready = threading.Semaphore(1)  # for data set 0
            self._helper = threading.Thread(target=self._draw_requested, daemon=True)
            self._helper.start()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._helper is not None:
            self._stop = True
            self._requested.release()
            self._helper.join()

    def _draw_data_set(self, i: int) -> None:
        rep, test = divmod(i, 2)
        stream = rep + test * _TEST_STREAM_OFFSET
        self._drawn[i] = _draw(self._scenario, stream, self._values[test])

    def _draw_requested(self) -> None:
        for i in range(1, self._count):
            self._requested.acquire()
            if self._stop:
                return
            try:
                self._draw_data_set(i)
            except BaseException as exc:
                self._error = exc
                return
            finally:
                self._ready.release()

    def _request(self, i: int) -> None:
        if i >= self._count:
            return
        if self._helper is None:
            self._draw_data_set(i)
        else:
            self._requested.release()

    def _next_draws(self) -> tuple[int, tuple[dict[str, np.ndarray], np.ndarray]]:
        i = self.taken
        self.taken += 1
        self._request(i + 1)
        if self._helper is not None:
            if self._error is None:
                self._ready.acquire()
            if self._error is not None:
                raise self._error
        return i, self._drawn.pop(i)

    def take(self) -> tuple[tuple[tuple[CurveBlock], ...], np.ndarray, SimTruth]:
        """The next data set, as :func:`generate_replication` returns it."""
        i, (params, response_noise) = self._next_draws()
        return _generate(self._scenario, params, response_noise, self._values[i % 2])

    def skip(self) -> None:
        """Pass over the next data set: its draws are made, and dropped."""
        self._next_draws()


def _reduced_prediction(
    z_train: np.ndarray,
    y_train: np.ndarray,
    z_test: np.ndarray,
    columns: np.ndarray,
) -> np.ndarray:
    coef, *_ = np.linalg.lstsq(z_train[:, columns], y_train, rcond=None)
    return z_test[:, columns] @ coef


def _run_one_replication(
    rules: tuple[tuple[str, float], ...], bases, data_sets: _DrawAhead
) -> list[tuple[bool, np.ndarray, float]]:
    """Each rule's (correct, mask, test-set MSE) on the replication whose
    training set and then test set ``data_sets`` gives next."""
    curves, y, truth = data_sets.take()
    design = build_design(build_dataset(curves, y, bases))
    p_values = test_all(design, y)[1]
    masks = [selection_mask(method, p_values, q) for method, q in rules]

    # out-of-sample MSE of the model refit on the selected predictors only,
    # once per distinct selection
    curves_test, y_test, _ = data_sets.take()
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
    one after another, in index order, and each data set's draws are made
    while the data set before it is used: on a helper thread when the
    process may use two CPUs, else inline (see :class:`_DrawAhead`). Either
    way every report has the same bits. A replication counts as correct
    when the selected set equals the true relevant set exactly.
    Failed replications (numerically degenerate data) are skipped and
    counted, for every rule; a failed training set's test set is not built.
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
    with _DrawAhead(scenario, replications) as data_sets:
        for _ in range(replications):
            try:
                succeeded.append(_run_one_replication(rules, bases, data_sets))
            except (NumericalError, DataError):
                if data_sets.taken % 2:  # the training set failed
                    data_sets.skip()
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
