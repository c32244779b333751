"""Reference kernel that measures how fast the machine is running right now.

On a shared machine the same job can take 1.5 times longer in one minute
than in the next, because other tenants compete for the cores and caches.
Workers run :func:`reference_kernel` between jobs and rescale each job's
wall time by ``KERNEL_REF_S`` over the kernel's time measured next to it, so
reported times read as seconds on a machine where the kernel takes
``KERNEL_REF_S``. The kernel is fixed benchmark code that never calls the
package, so a change to the package cannot move it; a change of Python,
numpy, scipy or BLAS can, which is why results carry an environment record.

Its parts mirror the kinds of work in the three workloads: a scalar
Cox-de Boor recursion, per-curve calls on small arrays, small dense QR and
solves, and parsing of CSV-like text into a dict.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

KERNEL_REF_S = 0.1

_RNG = np.random.default_rng(20150611)
_KNOTS = np.array([0.0, 0.0, 0.0, 0.0, 1 / 3, 2 / 3, 1.0, 1.0, 1.0, 1.0])
_POINTS = _RNG.uniform(0.0, 1.0, 1500)
_GRID = np.linspace(0.0, 1.0, 50)
_PINV = _RNG.normal(size=(6, 50))
_CURVES = _RNG.normal(size=(1500, 50))
_DESIGN = _RNG.normal(size=(300, 37))
_RESPONSE = _RNG.normal(size=300)
_LINES = [
    f"s{i % 300:04d},X{i % 6},{t!r},{v!r}"
    for i, (t, v) in enumerate(_RNG.normal(size=(8000, 2)).tolist())
]


def _cox_de_boor() -> float:
    total = 0.0
    for t in _POINTS:
        span = min(max(int(np.searchsorted(_KNOTS, t, side="right")) - 1, 3), 5)
        values, left, right = np.empty(4), np.empty(4), np.empty(4)
        values[0] = 1.0
        for j in range(1, 4):
            left[j] = t - _KNOTS[span + 1 - j]
            right[j] = _KNOTS[span + j] - t
            saved = 0.0
            for r in range(j):
                tmp = values[r] / (right[r + 1] + left[j - r])
                values[r] = saved + right[r + 1] * tmp
                saved = left[j - r] * tmp
            values[j] = saved
        total += values[0]
    return total


def _small_arrays() -> float:
    total = 0.0
    for values in _CURVES:
        grid = np.asarray(_GRID, dtype=float)
        if np.any(np.diff(grid) <= 0):
            raise AssertionError("grid is not increasing")
        total += float((_PINV @ np.asarray(values, dtype=float))[0])
    return total


def _dense() -> float:
    total = 0.0
    for _ in range(150):
        q, r = np.linalg.qr(_DESIGN)
        total += scipy.linalg.solve_triangular(r, q.T @ _RESPONSE)[0]
        total += np.linalg.solve(_DESIGN.T @ _DESIGN, _DESIGN.T @ _RESPONSE)[0]
    return total


def _parse() -> int:
    points: dict = {}
    for line in _LINES:
        sample, predictor, t, value = line.split(",")
        points.setdefault((sample, predictor), []).append((float(t), float(value)))
    return len(points)


def reference_kernel() -> float:
    """Run the fixed reference computation once; return its wall time in seconds."""
    start = time.perf_counter()
    _cox_de_boor()
    _small_arrays()
    _dense()
    _parse()
    return time.perf_counter() - start
