"""Property-based checks of the likelihood-ratio statistics from ``test_all``,
of the selection rules, one row of p-values or many at once, of the
smoothing of blocks with one grid per row, and of the bootstrap's batched
resample fits on data with repeated rows; and of the statistics and the
bootstrap on designs with a near-collinear column.

The statistics are read off the single full fit; these properties hold for
every design and response, so they are checked on random instances rather
than at fixed points. ``derandomize=True`` keeps the examples, and so the
suite, the same from run to run.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from funcsel import (
    CurveBlock,
    RankDeficiencyError,
    fit_ols,
    evaluate_basis_matrix,
    make_uniform_basis,
    smooth_block,
)
from funcsel.bootstrap import bootstrap_counts, sample_qr
from funcsel.bootstrap import test_resamples as run_test_resamples
from funcsel.cli import main
from funcsel.design import DesignMatrix
from funcsel.errors import check_rank
from funcsel.inference import test_all as run_test_all
from funcsel.selection import selection_mask

from conftest import random_design
from oracles import (
    block_size,
    block_slice,
    bootstrap_loop,
    column_deletion_rss,
    selected_by_loop,
    smooth_rows_lstsq,
)

REL_TOL = 1e-8

instances = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(30, 80),
    st.lists(st.integers(4, 6), min_size=1, max_size=3),
)
property_settings = settings(derandomize=True, deadline=None, max_examples=50)


def _statistics(design, y) -> np.ndarray:
    return run_test_all(design, y)[0]


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


# seed, rows, block sizes, the column made near-collinear (taken modulo the
# columns past the second), whether it is a near copy of its left neighbour
# or scaled, and where on a log scale its noise sd (1e-9 to 1e-2) or its
# scale (1e-13 to 1e-2) lies
collinear_instances = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(40, 200),
    st.lists(st.integers(2, 5), min_size=2, max_size=4),
    st.integers(0, 2**16),
    st.booleans(),
    st.floats(0.0, 1.0),
)
COLLINEAR_TOL = 1e-6


def _collinear_design(instance):
    """A random design with one column a near copy of its left neighbour or
    scaled toward zero, and a response with signal in some columns; rejects
    the draw unless the design passes the rank check of fit_ols."""
    seed, n, sizes, column, duplicate, level = instance
    rng = np.random.default_rng(seed)
    offsets = tuple(np.cumsum([1, *sizes]).tolist())
    k = offsets[-1]
    z = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
    j = 2 + column % (k - 2)
    if duplicate:
        z[:, j] = z[:, j - 1] + 10.0 ** (-9.0 + 7.0 * level) * rng.normal(size=n)
    else:
        z[:, j] *= 10.0 ** (-13.0 + 11.0 * level)
    y = z @ (rng.normal(size=k) * rng.integers(0, 2, size=k)) + rng.normal(size=n)
    design = DesignMatrix(values=z, block_offsets=offsets)
    try:
        fit_ols(design, y)
    except RankDeficiencyError:
        assume(False)
    return rng, design, y


def _deletion_statistics(design, y) -> np.ndarray:
    """Every predictor's statistic from lstsq refits with and without it."""
    z = design.values
    coef, *_ = np.linalg.lstsq(z, y, rcond=None)
    rss = float(np.sum((y - z @ coef) ** 2))
    return np.array([
        (column_deletion_rss(design, y, r) - rss) / (rss / design.n)
        for r in range(design.num_predictors)
    ])


def _assert_close(got, expected, tol):
    assert np.all(np.abs(got - expected) <= tol * np.maximum(np.abs(expected), 1.0))


@property_settings
@given(collinear_instances)
def test_near_collinear_statistics_match_column_deletion_oracle(instance):
    # the statistics of a design anywhere below the rank check's threshold
    # keep their digits: the Wald form lost them with the square of the
    # condition number, and returned 0.0 against a positive oracle
    _, design, y = _collinear_design(instance)
    _assert_close(_statistics(design, y), _deletion_statistics(design, y), COLLINEAR_TOL)


@property_settings
@given(collinear_instances, st.sampled_from(("bc", "fdr")))
def test_near_collinear_resamples_match_their_own_tests(instance, method):
    # every resample's statistics, whether from the certified count fit or
    # refitted on its own rows, agree with test_all on its rows; and the
    # selection counts equal one explicit test per resample
    rng, design, y = _collinear_design(instance)
    qr = sample_qr(design, y)
    idx = rng.integers(0, design.n, size=(min(qr.batch, 20), design.n))
    statistics, _ = run_test_resamples(qr, idx)
    for rows, got in zip(idx, statistics):
        resampled = DesignMatrix(values=design.values[rows], block_offsets=design.block_offsets)
        try:
            expected = _statistics(resampled, y[rows])
        except RankDeficiencyError:
            assert np.isnan(got).all()
            continue
        _assert_close(got, expected, COLLINEAR_TOL)
    seed = instance[0]
    selected, failed = bootstrap_counts(design, y, method, 0.05, 40, seed)
    expected_counts, expected_failed = bootstrap_loop(design, y, method, 0.05, 40, seed)
    assert failed == expected_failed
    np.testing.assert_array_equal(selected, expected_counts)


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
    sl = block_slice(design, r)
    p = block_size(design, r)
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
    bonferroni = selection_mask("bc", p_values, q)
    fdr = selection_mask("fdr", p_values, q * harmonic)
    assert not np.any(bonferroni & ~fdr)


@st.composite
def p_value_matrices(draw):
    """(p-value matrix, q): rows drawn from a small pool that holds every
    Bonferroni and step-up threshold exactly, so rows tie and sit on them."""
    num_tests = draw(st.integers(1, 8))
    q = draw(st.sampled_from((0.01, 0.05, 0.2, 0.5)))
    harmonic = sum(1.0 / l for l in range(1, num_tests + 1))
    pool = [q / num_tests, 0.0, 1.0]
    pool += [(j / num_tests) * (q / harmonic) for j in range(1, num_tests + 1)]
    pool += draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    row = st.lists(st.sampled_from(pool), min_size=num_tests, max_size=num_tests)
    return np.array(draw(st.lists(row, min_size=1, max_size=6))), q


@property_settings
@given(p_value_matrices())
def test_array_rule_matches_per_row_selection(matrix_and_q):
    p_values, q = matrix_and_q
    for method in ("bc", "fdr"):
        mask = selection_mask(method, p_values, q)
        assert mask.shape == p_values.shape
        for row, chosen in zip(p_values, mask):
            expected = selected_by_loop(method, list(row), q)
            assert set(np.flatnonzero(chosen)) == expected
            # one row alone is the same rule
            np.testing.assert_array_equal(selection_mask(method, row, q), chosen)


# seed, rows, points per curve, and {row: log10 of its point gap} for the
# rows whose points come in near-coincident clusters (rows taken modulo the
# row count)
per_row_instances = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.integers(6, 12),
    st.dictionaries(st.integers(0, 11), st.floats(-14.0, -4.0), max_size=4),
)


@property_settings
@given(per_row_instances)
# rows 1 and 3 are well enough conditioned to pass the rank check but not to
# pass the QR screen, so they take the exact check
@example((1, 5, 8, {1: -9.8, 3: -9.7}))
def test_per_row_block_matches_row_by_row_rank_check_and_lstsq(instance):
    # A clustered row has its points in three clusters, one per knot span,
    # each of points 10**exponent apart: no span is empty, and the ratio
    # sigma_min/sigma_max of its basis falls with the gap, past RANK_RTOL
    # below gaps of about 1e-10. The block must raise for exactly the blocks
    # with a row that fails check_rank on its own SVD, naming the first such
    # row, and otherwise give each row's least-squares coefficients.
    seed, rows, points, gaps = instance
    spec = make_uniform_basis(0.0, 1.0, degree=3, num_basis=6)
    rng = np.random.default_rng(seed)
    grids = np.tile(np.linspace(0.0, 1.0, points), (rows, 1))
    grids[:, 1:-1] += rng.uniform(-0.02, 0.02, (rows, points - 2))
    for row, exponent in gaps.items():
        centres = rng.uniform([0.02, 0.36, 0.69], [0.3, 0.63, 0.97])
        sizes = (points + 2 - np.arange(3)) // 3
        grids[row % rows] = np.concatenate(
            [c + 10.0**exponent * np.arange(size) for c, size in zip(centres, sizes)]
        )
    basis = evaluate_basis_matrix(spec, grids).reshape(rows, points, spec.num_basis)
    truth = rng.normal(size=(rows, spec.num_basis))
    values = (basis @ truth[:, :, None])[:, :, 0]
    block = CurveBlock(grid=grids, values=values)
    sv = [np.linalg.svd(b, full_matrices=False)[1] for b in basis]
    failing = []
    for row, s in enumerate(sv):
        try:
            check_rank(s, "basis")
        except RankDeficiencyError:
            failing.append(row)
    if failing:
        with pytest.raises(RankDeficiencyError) as caught:
            smooth_block(block, spec)
        assert caught.value.row == failing[0]
        return
    coefs = smooth_block(block, spec)
    oracle = smooth_rows_lstsq(grids, values, spec)
    # both solves are backward stable on data fitted exactly, so each is
    # within a few cond * eps of the truth
    cond = np.array([s[0] / s[-1] for s in sv])
    gap = np.linalg.norm(coefs - oracle, axis=1)
    assert np.all(gap <= 100 * cond * np.finfo(float).eps * np.linalg.norm(oracle, axis=1))


# seed, rows, block sizes, the share of rows that repeat an earlier row (of
# Z and y both), the batches that the resamples span, and how many
# resamples short of full the last one is (taken modulo the batch)
repeated_row_instances = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(20, 40),
    st.lists(st.integers(4, 5), min_size=1, max_size=2),
    st.floats(0.0, 0.5),
    st.integers(1, 3),
    st.integers(0, 2**16),
)


@property_settings
@given(repeated_row_instances, st.sampled_from(("bc", "fdr")))
def test_bootstrap_on_repeated_rows_matches_per_resample_loop(instance, method):
    # The batches reuse one workspace, and the screen for resamples of at
    # most k distinct rows counts rows, not indices. A small RESAMPLE_FLOATS
    # makes batches of 3 to 12 resamples, so B stays small
    seed, n, sizes, repeated, batches, short = instance
    rng = np.random.default_rng(seed)
    design, y = random_design(rng, n, tuple(sizes))
    values = design.values.copy()
    for i in np.sort(rng.choice(np.arange(1, n), int(repeated * n), replace=False)):
        source = rng.integers(0, i)
        values[i], y[i] = values[source], y[source]
    design = DesignMatrix(values=values, block_offsets=design.block_offsets)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("funcsel.bootstrap.RESAMPLE_FLOATS", 2**11)
        batch = sample_qr(design, y).batch
        b = batches * batch - short % batch
        selected, failed = bootstrap_counts(design, y, method, 0.05, b, seed)
    expected_counts, expected_failed = bootstrap_loop(design, y, method, 0.05, b, seed)
    assert failed == expected_failed
    np.testing.assert_array_equal(selected, expected_counts)


# End to end through the command line: a select job's statistics and
# p-values do not depend on how a predictor's curves are measured (an
# offset or a unit of the values, an affine map of t with the domain
# inferred from the file), on the ids' names, or on the order of the
# samples; and the order of the rows does not change the report at all.
# This holds as well when the altered predictor's curves are lines plus
# noise of sd 1e-7, whose smoothed block is close to rank 2: there, to
# COLLINEAR_TOL times the larger of the statistic and 1, and the p-values
# to that times the statistic relative, since d log p / d T is about -1/2.
ALTERATIONS = ("shift", "scale", "affine t", "flip t", "rename")
E2E_REL_TOL = 1e-9

cli_instances = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from(("shared", "ragged", "varying")),
    st.integers(2, 3),
    st.integers(0, 2),
    st.lists(st.sampled_from(ALTERATIONS), min_size=1, max_size=3, unique=True),
    st.booleans(),
    st.booleans(),
)


def _long_rows(rng, layout, num_predictors, linear=None, n=40):
    """(sample, predictor, t, value) rows of n samples, and their responses:
    smooth curves of five random parameters plus noise, on grids of 8-15
    points that spread over each predictor's domain, and a response linear
    in the parameters plus noise. The curves of predictor ``linear`` (an
    index) are lines a_0 + a_1 u plus noise of sd 1e-7 instead."""
    rows = []
    y = rng.normal(scale=0.5, size=n)
    for m in range(num_predictors):
        lo = rng.uniform(-2.0, 2.0)
        hi = lo + rng.uniform(0.5, 3.0)
        params = rng.normal(size=(n, 5))
        y += params @ rng.normal(scale=0.3, size=5)
        size = rng.integers(8, 16)
        shared = (np.arange(size) + rng.uniform(size=size)) / size
        for i in range(n):
            if layout == "varying":
                size = rng.integers(8, 16)
            u = shared if layout == "shared" else (np.arange(size) + rng.uniform(size=size)) / size
            a = params[i]
            if m == linear:
                values = a[0] + a[1] * u + rng.normal(scale=1e-7, size=u.size)
            else:
                values = (a[0] + a[1] * u + a[2] * u**2 + a[3] * np.sin(np.pi * u)
                          + a[4] * np.cos(2.0 * np.pi * u) + rng.normal(scale=0.05, size=u.size))
            rows += [(f"s{i:02d}", f"p{m + 1}", lo + (hi - lo) * t, v) for t, v in zip(u, values)]
    return rows, y


def _select_report(directory, name, rows, responses):
    """The ``--out`` report of a select job on these rows, as bytes."""
    curves, ys, out = (directory / f"{name}.{kind}" for kind in ("c.csv", "r.csv", "jsonl"))
    curves.write_text("sample_id,predictor_id,t,value\n" + "".join(
        f"{s},{p},{float(t)!r},{float(v)!r}\n" for s, p, t, v in rows))
    ys.write_text("sample_id,y\n" + "".join(f"{s},{float(v)!r}\n" for s, v in responses))
    code = main(["--mode", "select", "--curves", str(curves), "--responses", str(ys),
                 "--basis-size", "5", "--q", "0.05", "--out", str(out)])
    assert code == 0
    return out.read_bytes()


def _by_predictor(report: bytes) -> dict:
    records = [json.loads(line) for line in report.splitlines()]
    return {r["predictor"]: (r["statistic"], r["p_value"]) for r in records[:-1]}


@settings(derandomize=True, deadline=None, max_examples=30)
@given(cli_instances)
def test_select_report_invariant_to_units_ids_and_row_order(instance):
    seed, layout, num_predictors, target, changes, rename_samples, near_linear = instance
    rng = np.random.default_rng(seed)
    target = target % num_predictors
    rows, y = _long_rows(rng, layout, num_predictors, target if near_linear else None)
    target = f"p{target + 1}"
    renamed = "a" + target  # sorts before every other predictor id
    sample_names = {f"s{i:02d}": f"s{j:02d}" for i, j in enumerate(
        rng.permutation(y.size) if rename_samples else range(y.size))}

    def alter(row):
        s, p, t, v = row
        if p == target:
            v = v + 5.0 if "shift" in changes else v
            v = v * 1000.0 if "scale" in changes else v
            t = 2.0 * t + 1.0 if "affine t" in changes else t
            t = -t if "flip t" in changes else t
            p = renamed if "rename" in changes else p
        return sample_names[s], p, t, v

    responses = [(f"s{i:02d}", v) for i, v in enumerate(y)]
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        base = _select_report(directory, "base", rows, responses)
        altered = _select_report(
            directory, "altered", [alter(row) for row in rows],
            [(sample_names[s], v) for s, v in responses],
        )
        shuffled = _select_report(
            directory, "shuffled", [rows[i] for i in rng.permutation(len(rows))], responses
        )
    assert shuffled == base
    expected = _by_predictor(base)
    got = {
        (target if p == renamed else p): values for p, values in _by_predictor(altered).items()
    }
    assert got.keys() == expected.keys()
    for predictor, (statistic, p_value) in expected.items():
        if near_linear:
            _assert_close(got[predictor][0], statistic, COLLINEAR_TOL)
            tol = COLLINEAR_TOL * max(statistic, 1.0)
            np.testing.assert_allclose(got[predictor][1], p_value, rtol=tol, atol=0)
        else:
            np.testing.assert_allclose(
                got[predictor], (statistic, p_value), rtol=E2E_REL_TOL, atol=0
            )
