"""Benchmark inputs: long-format curve and response CSVs made from a seed.

The data are drawn with the benchmark's own numpy code, never through
``funcsel.simgen``, so a change to the generator in the package cannot
change what the ``select_ragged`` and ``bootstrap`` workloads read.

Six predictors, each observed at ``POINTS`` points per curve, on the
domains below. Each curve is a random smooth function plus noise; the
response is a sum of exact integrals of the smooth parts against fixed
coefficient functions plus noise, so some predictors are clearly active,
one is weak and the rest are null.
"""

from __future__ import annotations

import os

import numpy as np

SAMPLES = 300
POINTS = 50
DOMAINS = ((0.0, 1.0), (0.0, 2.0), (-1.0, 1.0), (0.0, 3.0), (-2.0, 1.0), (1.0, 4.0))
PREDICTOR_IDS = tuple(f"X{m + 1}" for m in range(len(DOMAINS)))
# The package's default basis: cubic, six functions, i.e. three knot spans.
KNOT_SPANS = 3
# Interior points move by at most this share of the grid spacing, so the
# jittered grid stays strictly increasing and keeps points in every span.
JITTER = 0.45
_QUAD_ORDER = 48


def _beta(m: int, t: np.ndarray) -> np.ndarray:
    # predictors 0, 1 and 3 are strong, 4 is weak, 2 and 5 are null
    if m == 0:
        return 2.0 * np.sin(np.pi * t)
    if m == 1:
        return 1.5 * np.cos(t)
    if m == 3:
        return t - 1.5
    if m == 4:
        return 0.08 * (t + 0.5)
    return np.zeros_like(t)


def _smooth_part(params: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Curves a0 + a1*sin(w*t + phase) + a2*t^2 for t of shape (samples or 1, G)."""
    a0, a1, a2, w, phase = (params[:, j : j + 1] for j in range(5))
    return a0 + a1 * np.sin(w * t + phase) + a2 * t**2


def _grids(rng: np.random.Generator, lo: float, hi: float, ragged: bool) -> np.ndarray:
    base = np.linspace(lo, hi, POINTS)
    grids = np.repeat(base[None, :], SAMPLES, axis=0)
    if ragged:
        step = (hi - lo) / (POINTS - 1)
        shift = rng.uniform(-JITTER, JITTER, size=(SAMPLES, POINTS - 2)) * step
        grids[:, 1:-1] += shift
        edges = np.linspace(lo, hi, KNOT_SPANS + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            inside = (grids >= a) & (grids <= b)
            if not inside.any(axis=1).all():
                raise RuntimeError(f"a jittered grid has no point in [{a}, {b}]")
        if not (np.diff(grids, axis=1) > 0).all():
            raise RuntimeError("a jittered grid is not strictly increasing")
    return grids


def make_dataset(seed: int, ragged: bool):
    """Grids, values and responses: ``(grids[m], values[m], y)`` per predictor m."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 7], dtype=np.uint64)))
    nodes, weights = np.polynomial.legendre.leggauss(_QUAD_ORDER)
    grids, values = [], []
    signal = np.zeros(SAMPLES)
    for m, (lo, hi) in enumerate(DOMAINS):
        params = np.column_stack(
            [
                rng.normal(0.0, 1.0, SAMPLES),
                rng.uniform(0.5, 2.0, SAMPLES),
                rng.normal(0.0, 0.5, SAMPLES),
                rng.uniform(1.0, 4.0, SAMPLES),
                rng.uniform(0.0, 2.0 * np.pi, SAMPLES),
            ]
        )
        grid = _grids(rng, lo, hi, ragged)
        smooth = _smooth_part(params, grid)
        noise = rng.normal(0.0, 0.05 * float(smooth.max() - smooth.min()), smooth.shape)
        grids.append(grid)
        values.append(smooth + noise)
        half = 0.5 * (hi - lo)
        t = 0.5 * (hi + lo) + half * nodes
        signal += _smooth_part(params, t[None, :]) @ (half * weights * _beta(m, t))
    y = signal + rng.normal(0.0, 0.1 * float(signal.max() - signal.min()), SAMPLES)
    return grids, values, y


def write_csvs(directory: str, dataset) -> dict:
    """Write a dataset as ``curves.csv`` and ``responses.csv``; return paths, rows, bytes."""
    os.makedirs(directory, exist_ok=True)
    grids, values, y = dataset
    sample_ids = [f"s{i:04d}" for i in range(SAMPLES)]
    lines = ["sample_id,predictor_id,t,value"]
    for i, sample in enumerate(sample_ids):
        for m, pid in enumerate(PREDICTOR_IDS):
            lines.extend(
                f"{sample},{pid},{t!r},{v!r}"
                for t, v in zip(grids[m][i].tolist(), values[m][i].tolist())
            )
    curves = os.path.join(directory, "curves.csv")
    responses = os.path.join(directory, "responses.csv")
    with open(curves, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    with open(responses, "w", encoding="utf-8", newline="") as handle:
        handle.write("sample_id,y\n")
        handle.writelines(f"{s},{v!r}\n" for s, v in zip(sample_ids, y.tolist()))
    return {
        "curves": curves,
        "responses": responses,
        "curves_rows": len(lines) - 1,
        "curves_bytes": os.path.getsize(curves),
        "responses_rows": SAMPLES,
        "responses_bytes": os.path.getsize(responses),
    }
