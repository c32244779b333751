"""Property-based checks of the likelihood-ratio statistics from ``test_all``
and of the selection rules.

The statistics are read off the single full fit; these properties hold for
every design and response, so they are checked on random instances rather
than at fixed points. ``derandomize=True`` keeps the examples, and so the
suite, the same from run to run.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from funcsel import HypothesisTest, select_bonferroni, select_fdr
from funcsel.design import DesignMatrix
from funcsel.inference import test_all as run_test_all

from conftest import random_design
from oracles import column_deletion_rss

REL_TOL = 1e-8

instances = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(30, 80),
    st.lists(st.integers(4, 6), min_size=1, max_size=3),
)
property_settings = settings(derandomize=True, deadline=None, max_examples=50)


def _statistics(design, y) -> np.ndarray:
    return np.array([t.statistic for t in run_test_all(design, y)])


def _relative_gap(got: np.ndarray, expected: np.ndarray) -> float:
    return float(np.max(np.abs(got - expected) / np.abs(expected)))


def _build(instance):
    seed, n, sizes = instance
    rng = np.random.default_rng(seed)
    design, y = random_design(rng, n, tuple(sizes))
    return rng, design, y


@property_settings
@given(instances)
def test_statistics_match_column_deletion_oracle(instance):
    _, design, y = _build(instance)
    z = design.values
    coef, *_ = np.linalg.lstsq(z, y, rcond=None)
    rss = float(np.sum((y - z @ coef) ** 2))
    oracle = np.array(
        [
            (column_deletion_rss(design, y, r) - rss) / (rss / design.n)
            for r in range(design.num_predictors)
        ]
    )
    assert _relative_gap(_statistics(design, y), oracle) < REL_TOL


@property_settings
@given(instances)
def test_invariant_to_sample_order(instance):
    rng, design, y = _build(instance)
    perm = rng.permutation(design.n)
    shuffled = DesignMatrix(
        values=design.values[perm], block_offsets=design.block_offsets
    )
    base = _statistics(design, y)
    assert _relative_gap(_statistics(shuffled, y[perm]), base) < REL_TOL


@property_settings
@given(
    instances,
    st.floats(1e-2, 1e2),
    st.sampled_from((-1.0, 1.0)),
    st.floats(-100.0, 100.0),
)
def test_invariant_to_affine_response_map(instance, magnitude, sign, shift):
    _, design, y = _build(instance)
    base = _statistics(design, y)
    mapped = _statistics(design, sign * magnitude * y + shift)
    assert _relative_gap(mapped, base) < REL_TOL


@property_settings
@given(instances, st.integers(0, 2))
def test_invariant_to_invertible_map_within_block(instance, block):
    rng, design, y = _build(instance)
    r = block % design.num_predictors
    sl = design.block_slice(r)
    p = design.block_size(r)
    # diagonally dominant, hence invertible and well conditioned
    transform = rng.normal(size=(p, p)) + 2.0 * p * np.eye(p)
    values = design.values.copy()
    values[:, sl] = values[:, sl] @ transform
    mapped = DesignMatrix(values=values, block_offsets=design.block_offsets)
    base = _statistics(design, y)
    assert _relative_gap(_statistics(mapped, y), base) < REL_TOL


p_value_vectors = st.lists(
    st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 0.05)), min_size=1, max_size=12
)


@property_settings
@given(p_value_vectors, st.floats(1e-6, 1.0))
# Bonferroni at q=0.05 selects {0} here while the FDR rule at the same q
# selects nothing, so containment needs the level scaled by H_M
@example([0.0075] + [0.9] * 5, 0.05)
def test_fdr_at_harmonic_level_contains_bonferroni(p_values, q):
    num_tests = len(p_values)
    harmonic = sum(1.0 / l for l in range(1, num_tests + 1))
    assume(q * harmonic < 1.0)
    tests = [
        HypothesisTest(predictor_index=m, statistic=math.nan, dof=1, p_value=p)
        for m, p in enumerate(p_values)
    ]
    bonferroni = set(select_bonferroni(tests, q).selected)
    fdr = set(select_fdr(tests, q * harmonic).selected)
    assert bonferroni <= fdr
