"""CLI: CSV ingestion, selection, bootstrap, simulation, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import funcsel
from funcsel import (
    DataError,
    NumericalError,
    build_dataset,
    build_design,
    make_uniform_basis,
    selection_mask,
    smooth_block,
)
from funcsel.bootstrap import _resample_indices, bootstrap_counts, sample_qr
from funcsel.bootstrap import test_resamples as run_test_resamples
from funcsel.cli import _build_config, _selection_pipeline, ingest_long_csv, main
from funcsel.design import DesignMatrix
from funcsel.errors import quoted_id, quoted_text
from funcsel.inference import test_all as run_test_all
from funcsel.seeds import rng_for
from funcsel.simgen import SimScenario, generate_replication
from funcsel.smoothing import CurveBlock, FunctionalDataset

from conftest import standard_bases
from oracles import bootstrap_loop, column_deletion_rss, smooth_lstsq

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import inputs  # noqa: E402  (bench/inputs.py, the benchmark's input files)


def write_curves(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("sample_id,predictor_id,t,value\n")
        for sample, predictor, t, value in rows:
            handle.write(f"{sample},{predictor},{t},{value}\n")


def write_responses(path, pairs):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("sample_id,y\n")
        for sample, y in pairs:
            handle.write(f"{sample},{y}\n")


def small_files(directory, t_max=1.0):
    """Curves and responses of 12 samples and one predictor on 8 points of
    [0, t_max]."""
    rng = np.random.default_rng(34)
    grid = np.linspace(0.0, t_max, 8)
    paths = {"curves": directory / "c.csv", "responses": directory / "r.csv"}
    write_curves(
        paths["curves"],
        [(f"s{i:02d}", "p0", repr(float(t)), repr(float(rng.normal())))
         for i in range(12) for t in grid],
    )
    write_responses(
        paths["responses"], [(f"s{i:02d}", repr(float(rng.normal()))) for i in range(12)]
    )
    return paths


@pytest.fixture(scope="module")
def sim_files(tmp_path_factory):
    """A synthetic c=0.8, n=300 dataset written to the CSV interchange format."""
    directory = tmp_path_factory.mktemp("simdata")
    scenario = SimScenario(c=0.8, n=300, seed=0)
    curves, y, _ = generate_replication(scenario, 0)
    curve_rows = []
    for i in range(scenario.n):
        sid = f"s{i:03d}"
        for m, (block,) in enumerate(curves):
            for t, value in zip(block.grid, block.values[i]):
                curve_rows.append((sid, f"p{m}", repr(float(t)), repr(float(value))))
    curves_path = directory / "curves.csv"
    responses_path = directory / "responses.csv"
    write_curves(curves_path, curve_rows)
    write_responses(
        responses_path, [(f"s{i:03d}", repr(float(v))) for i, v in enumerate(y)]
    )
    return str(curves_path), str(responses_path), curves, y


class TestIngest:
    def test_happy_path(self, tmp_path):
        curves_path = tmp_path / "c.csv"
        responses_path = tmp_path / "r.csv"
        write_curves(
            curves_path,
            [
                ("a", "x", 0.0, 1.0),
                ("a", "x", 0.5, 2.0),
                ("a", "x", 1.0, 3.0),
                ("b", "x", 0.0, 4.0),
                ("b", "x", 0.5, 5.0),
                ("b", "x", 1.0, 6.0),
            ],
        )
        write_responses(responses_path, [("a", 1.5), ("b", 2.5)])
        curves, y, sample_ids, predictor_ids = ingest_long_csv(
            str(curves_path), str(responses_path)
        )
        assert sample_ids == ["a", "b"]
        assert predictor_ids == ["x"]
        # one predictor; both samples share a grid, so one two-row block
        assert len(curves) == 1 and len(curves[0]) == 1
        assert curves[0][0].grid == pytest.approx([0.0, 0.5, 1.0])
        assert curves[0][0].values.shape == (2, 3)
        assert curves[0][0].values[1] == pytest.approx([4.0, 5.0, 6.0])
        assert y == pytest.approx([1.5, 2.5])

    def test_rows_sorted_by_t(self, tmp_path):
        curves_path = tmp_path / "c.csv"
        responses_path = tmp_path / "r.csv"
        write_curves(
            curves_path,
            [("a", "x", 1.0, 3.0), ("a", "x", 0.0, 1.0), ("a", "x", 0.5, 2.0)],
        )
        write_responses(responses_path, [("a", 1.5)])
        curves, _, _, _ = ingest_long_csv(
            str(curves_path), str(responses_path)
        )
        assert curves[0][0].values.shape == (1, 3)
        assert curves[0][0].values[0] == pytest.approx([1.0, 2.0, 3.0])

    def test_missing_response_names_sample(self, tmp_path):
        curves_path = tmp_path / "c.csv"
        responses_path = tmp_path / "r.csv"
        write_curves(curves_path, [("a", "x", 0.0, 1.0), ("b", "x", 0.0, 1.0)])
        write_responses(responses_path, [("a", 1.0)])
        with pytest.raises(DataError, match="missing response for sample_id 'b'"):
            ingest_long_csv(str(curves_path), str(responses_path))

    def test_bad_header(self, tmp_path):
        curves_path = tmp_path / "c.csv"
        responses_path = tmp_path / "r.csv"
        curves_path.write_text("id,pred,t,value\na,x,0,1\n")
        write_responses(responses_path, [("a", 1.0)])
        with pytest.raises(DataError, match="line 1"):
            ingest_long_csv(str(curves_path), str(responses_path))

    def test_duplicate_point(self, tmp_path):
        curves_path = tmp_path / "c.csv"
        responses_path = tmp_path / "r.csv"
        write_curves(curves_path, [("a", "x", 0.5, 1.0), ("a", "x", 0.5, 2.0)])
        write_responses(responses_path, [("a", 1.0)])
        with pytest.raises(DataError, match="line 3.*duplicate"):
            ingest_long_csv(str(curves_path), str(responses_path))

    def test_non_numeric_field(self, tmp_path):
        curves_path = tmp_path / "c.csv"
        responses_path = tmp_path / "r.csv"
        write_curves(curves_path, [("a", "x", 0.5, "oops")])
        write_responses(responses_path, [("a", 1.0)])
        with pytest.raises(DataError, match="line 2.*'value'"):
            ingest_long_csv(str(curves_path), str(responses_path))

    @pytest.mark.parametrize(
        "target, row",
        [
            ("curves", ("a", "x", 0.5, "nan")),
            ("curves", ("a", "x", "inf", 1.0)),
            ("responses", ("b", "inf")),
        ],
    )
    def test_non_finite_field_is_data_error(self, tmp_path, capsys, target, row):
        curves_path = tmp_path / "c.csv"
        responses_path = tmp_path / "r.csv"
        curves = [("a", "x", 0.0, 1.0), ("b", "x", 0.0, 2.0)]
        responses = [("a", 1.0), ("b", 2.0)]
        if target == "curves":
            curves.insert(1, row)
        else:
            responses[1] = row
        write_curves(curves_path, curves)
        write_responses(responses_path, responses)
        code = main(
            ["--mode", "select", "--curves", str(curves_path),
             "--responses", str(responses_path)]
        )
        assert code == 2
        path = curves_path if target == "curves" else responses_path
        assert f"{path} line 3: field" in capsys.readouterr().err

    def test_orphan_response(self, tmp_path):
        curves_path = tmp_path / "c.csv"
        responses_path = tmp_path / "r.csv"
        write_curves(curves_path, [("a", "x", 0.5, 1.0)])
        write_responses(responses_path, [("a", 1.0), ("z", 2.0)])
        with pytest.raises(DataError, match="'z' has no curves"):
            ingest_long_csv(str(curves_path), str(responses_path))

    def test_missing_predictor_for_sample(self, tmp_path):
        curves_path = tmp_path / "c.csv"
        responses_path = tmp_path / "r.csv"
        write_curves(
            curves_path,
            [("a", "x", 0.5, 1.0), ("a", "w", 0.5, 1.0), ("b", "x", 0.5, 1.0)],
        )
        write_responses(responses_path, [("a", 1.0), ("b", 2.0)])
        with pytest.raises(DataError, match="sample 'b' has no rows for predictor 'w'"):
            ingest_long_csv(str(curves_path), str(responses_path))

    # (curves, grid dimensions) of each block of p0: each run of samples
    # with the same point count is one block, with a shared grid when all of
    # its curves have the same grid
    @pytest.mark.parametrize(
        "layout, run_lengths",
        [
            ("shared", [(40, 1)]),
            # 15 points each: one block with a grid per row
            ("ragged", [(40, 2)]),
            # the regular grid interrupted by an 18-point grid (sample 10) and
            # by five 15-point curves on grids of their own (20-24): samples
            # 11-39 all have 15 points, so they form one block of per-row grids
            ("mixed", [(10, 1), (1, 1), (29, 2)]),
        ],
    )
    def test_grouped_smoothing_matches_per_curve_oracle(self, tmp_path, layout, run_lengths):
        # predictor p0 follows the layout, p1 is always on the regular grid
        rng = np.random.default_rng(34)
        n = 40
        regular = np.linspace(0.0, 1.0, 15)
        other = np.linspace(0.0, 1.0, 18)

        def jittered():
            grid = regular.copy()
            grid[1:-1] += rng.uniform(-0.02, 0.02, grid.size - 2)
            return grid

        if layout == "shared":
            grids = [regular] * n
        elif layout == "ragged":
            grids = [jittered() for _ in range(n)]
        else:
            grids = [regular] * n
            grids[10] = other
            grids[20:25] = [jittered() for _ in range(5)]
        observed = {}
        rows = []
        for i in range(n):
            for pid, grid in (("p0", grids[i]), ("p1", regular)):
                values = rng.normal(size=grid.size)
                observed[i, pid] = (grid, values)
                for t, v in zip(grid, values):
                    rows.append((f"s{i:02d}", pid, repr(float(t)), repr(float(v))))
        curves_path = tmp_path / "c.csv"
        responses_path = tmp_path / "r.csv"
        write_curves(curves_path, rows)
        write_responses(responses_path, [(f"s{i:02d}", 0.0) for i in range(n)])

        curves, y, _, predictor_ids = ingest_long_csv(
            str(curves_path), str(responses_path)
        )
        assert predictor_ids == ["p0", "p1"]
        assert [(block.num_curves, block.grid.ndim) for block in curves[0]] == run_lengths
        assert [block.num_curves for block in curves[1]] == [n]
        basis = make_uniform_basis(0.0, 1.0, degree=3, num_basis=6)
        data = build_dataset(curves, y, [basis, basis])
        for m, pid in enumerate(predictor_ids):
            for i in range(n):
                oracle = smooth_lstsq(*observed[i, pid], basis)
                gap = np.max(np.abs(data.coefs[m][i] - oracle))
                assert gap <= 1e-12 * np.max(np.abs(oracle))

    def test_bad_grid_inside_a_run_names_the_sample(self, tmp_path, capsys):
        # sample 4 of 20 has too few points for the basis; samples 0-3 and
        # 5-19 share the regular grid
        rng = np.random.default_rng(35)
        rows = []
        for i in range(20):
            grid = np.linspace(0.0, 1.0, 4 if i == 4 else 12)
            for t, v in zip(grid, rng.normal(size=grid.size)):
                rows.append((f"s{i:02d}", "p0", repr(float(t)), repr(float(v))))
        curves_path = tmp_path / "c.csv"
        responses_path = tmp_path / "r.csv"
        write_curves(curves_path, rows)
        write_responses(responses_path, [(f"s{i:02d}", float(i)) for i in range(20)])
        code = main(
            ["--mode", "select", "--curves", str(curves_path),
             "--responses", str(responses_path), "--method", "bc", "--q", "0.05"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{curves_path}: sample 's04', predictor 'p0': grid has 4 points" in err

    @pytest.mark.parametrize(
        "fault, code, message",
        [
            # sample st007 alone has 4 points for RAIN
            ("few_points", 2, "sample 'st007', predictor 'RAIN': grid has 4 points; "
             "need at least num_basis = 6"),
            # every TEMP curve has no point in the knot span [1/3, 2/3)
            ("empty_span", 3, "sample 'st000', predictor 'TEMP' (grid shared by "
             "samples 'st000'-'st059'): basis matrix at the grid points is "
             "numerically rank deficient"),
        ],
        ids=["few_points", "empty_span"],
    )
    def test_smoothing_error_names_file_and_ids(self, tmp_path, capsys, fault, code, message):
        rng = np.random.default_rng(37)
        grids = {"RAIN": np.linspace(0.0, 1.0, 20), "TEMP": np.linspace(0.0, 1.0, 20)}
        if fault == "empty_span":
            grids["TEMP"] = np.append(np.linspace(0.0, 0.3, 19), 1.0)
        rows = []
        for i in range(60):
            for pid, grid in grids.items():
                if (fault, i, pid) == ("few_points", 7, "RAIN"):
                    grid = np.linspace(0.0, 1.0, 4)
                rows += [(f"st{i:03d}", pid, repr(float(t)), repr(float(rng.normal())))
                         for t in grid]
        curves_path, responses_path = tmp_path / "c.csv", tmp_path / "r.csv"
        write_curves(curves_path, rows)
        write_responses(responses_path, [(f"st{i:03d}", float(i)) for i in range(60)])
        assert code == main(
            ["--mode", "select", "--curves", str(curves_path),
             "--responses", str(responses_path)]
        )
        assert f"error: {curves_path}: {message}" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "fault, blocks, message",
        [
            ("few_points", [7, 1, 12], "grid has 4 points"),
            ("outside", [20], r"grid range \[0.0, 1.2\] exceeds basis domain"),
            ("empty_span", [20], r"basis .* rank deficient.*knot span\(s\) without grid"),
        ],
        ids=["few_points", "outside", "empty_span"],
    )
    def test_fault_in_a_ragged_run_names_the_sample(self, tmp_path, fault, blocks, message):
        # 20 curves on jittered grids of 12 points; sample 7 alone is faulty
        rng = np.random.default_rng(36)
        rows = []
        for i in range(20):
            grid = np.linspace(0.0, 1.0, 12)
            grid[1:-1] += rng.uniform(-0.02, 0.02, 10)
            if i == 7:
                grid = {
                    "few_points": np.linspace(0.0, 1.0, 4),
                    "outside": np.linspace(0.0, 1.2, 12),
                    "empty_span": np.linspace(0.0, 0.3, 12),
                }[fault]
            for t, v in zip(grid, rng.normal(size=grid.size)):
                rows.append((f"s{i:02d}", "p0", repr(float(t)), repr(float(v))))
        curves_path = tmp_path / "c.csv"
        responses_path = tmp_path / "r.csv"
        write_curves(curves_path, rows)
        write_responses(responses_path, [(f"s{i:02d}", float(i)) for i in range(20)])
        curves, y, _, _ = ingest_long_csv(str(curves_path), str(responses_path))
        assert [block.num_curves for block in curves[0]] == blocks
        basis = make_uniform_basis(0.0, 1.0, degree=3, num_basis=6)
        expected = rf"^sample 7, predictor 0: {message}"
        with pytest.raises((DataError, NumericalError), match=expected):
            build_dataset(curves, y, [basis])

    def test_constant_grid_predictor_is_data_error(self, tmp_path, capsys):
        # every point of predictor "w" is at t = 0.5
        rows = [(f"s{i:02d}", pid, t, float(i) + t) for i in range(40)
                for pid, ts in (("v", (0.0, 0.5, 1.0)), ("w", (0.5,))) for t in ts]
        curves_path = tmp_path / "c.csv"
        responses_path = tmp_path / "r.csv"
        write_curves(curves_path, rows)
        write_responses(responses_path, [(f"s{i:02d}", float(i)) for i in range(40)])
        code = main(
            ["--mode", "select", "--curves", str(curves_path),
             "--responses", str(responses_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"data error: {curves_path}: every point of predictor 'w' has t = 0.5" in err

    def test_subnormal_domain_is_data_error(self, tmp_path):
        # t in [0, 1e-310]: knots 5e-311 apart made the basis recurrence
        # overflow, so numpy's RuntimeWarnings reached stderr before exit 3,
        # "SVD did not converge"
        paths = small_files(tmp_path, t_max=1e-310)
        argv = ["--mode", "select", "--curves", str(paths["curves"]),
                "--responses", str(paths["responses"]), "--basis-size", "5"]
        env = {**os.environ, "PYTHONPATH": str(Path(funcsel.__file__).resolve().parents[1])}
        result = subprocess.run(
            [sys.executable, "-m", "funcsel.cli", *argv], env=env, capture_output=True, text=True
        )
        assert result.returncode == 2
        assert result.stderr == (
            f"data error: {paths['curves']}: predictor 'p0': knot spacing (1e-310 - 0.0) / 2"
            f" = 5e-311 is below the smallest normal float, {np.finfo(float).tiny}\n"
        )


def _append(path, lines):
    with open(path, "a", encoding="utf-8") as handle:
        handle.writelines(line + "\n" for line in lines)


class TestLongIds:
    """An id of up to 80 characters prints whole in a message; a longer one
    as its first 80 characters and its length, so a 1 MB id cannot make a
    1 MB line."""

    # each fault's exit code and message, with {id} where the id shows;
    # _alter puts the fault into the files of small_files
    FAULTS = {
        "missing_response": (2, "missing response for sample_id {id}"),
        "duplicate_response": (2, "line 15: duplicate sample_id {id}"),
        "no_curves": (2, "sample_id {id} has no curves in"),
        "no_rows": (2, "sample 's01' has no rows for predictor {id}"),
        "duplicate_point": (2, "line 99: duplicate point for sample {id}, predictor 'p0', t=0.5"),
        "constant_t": (2, "every point of predictor {id} has t = 0.5"),
        "bad_grid": (2, "sample {id}, predictor 'p0': grid has 4 points"),
        "absent_override": (1, "no predictor {id} in"),
    }

    @staticmethod
    def _alter(paths, fault, name, config):
        curves, responses = paths["curves"], paths["responses"]
        if fault == "missing_response":
            _append(curves, [f"{name},p0,0.5,1.0"])
        elif fault == "duplicate_response":
            _append(responses, [f"{name},1.0", f"{name},2.0"])
        elif fault == "no_curves":
            _append(responses, [f"{name},1.0"])
        elif fault == "no_rows":
            _append(curves, [f"s00,{name},0.5,1.0"])
        elif fault == "duplicate_point":
            _append(curves, [f"{name},p0,0.5,1.0", f"{name},p0,0.5,2.0"])
            _append(responses, [f"{name},1.0"])
        elif fault == "constant_t":
            _append(curves, [f"s{i:02d},{name},0.5,1.0" for i in range(12)])
        elif fault == "bad_grid":
            _append(curves, [f"{name},p0,{t},1.0" for t in (0.0, 0.25, 0.5, 1.0)])
            _append(responses, [f"{name},1.0"])
        else:
            config.write_text(f"degree.{name} = 2\n")
            return ["--config", str(config)]
        return []

    # a 1 MB id in the responses file exceeds csv.field_size_limit();
    # 1,000 characters are cut the same way, and a 1 MB id reaches the
    # message through a config key or the curves file
    @pytest.mark.parametrize("length", [80, 1000])
    @pytest.mark.parametrize("fault", FAULTS)
    def test_id_in_message(self, tmp_path, capsys, fault, length):
        paths = small_files(tmp_path)
        name = "s" * length
        extra = self._alter(paths, fault, name, tmp_path / "job.cfg")
        code = main(["--mode", "select", "--curves", str(paths["curves"]),
                     "--responses", str(paths["responses"]), *extra])
        err = capsys.readouterr().err
        expected_code, message = self.FAULTS[fault]
        shown = f"'{name}'" if length <= 80 else f"'{'s' * 80}...' (1000 characters)"
        assert code == expected_code
        assert message.format(id=shown) in err
        assert len(err) < 1000

    def test_1mb_id(self, tmp_path, capsys):
        paths = small_files(tmp_path)
        extra = self._alter(paths, "absent_override", "s" * 1_000_000, tmp_path / "job.cfg")
        assert main(["--mode", "select", "--curves", str(paths["curves"]),
                     "--responses", str(paths["responses"]), *extra]) == 1
        err = capsys.readouterr().err
        assert f"no predictor '{'s' * 80}...' (1000000 characters) in" in err
        assert len(err) < 1000
        assert quoted_id("s" * 1_000_000) == f"'{'s' * 80}...' (1000000 characters)"

    @pytest.mark.parametrize("column", ["sample", "predictor"])
    def test_1mb_id_in_curves(self, tmp_path, capsys, column):
        # a sample id on one row, without a response; or a predictor id on
        # 12 rows in a run, each at t = 0.5
        paths = small_files(tmp_path)
        name = "s" * 1_000_000
        if column == "sample":
            _append(paths["curves"], [f"{name},p0,0.5,1.0"])
        else:
            _append(paths["curves"], [f"s{i:02d},{name},0.5,1.0" for i in range(12)])
        assert main(["--mode", "select", "--curves", str(paths["curves"]),
                     "--responses", str(paths["responses"])]) == 2
        err = capsys.readouterr().err
        message = {"sample": "missing response for sample_id {id}",
                   "predictor": "every point of predictor {id} has t = 0.5"}[column]
        assert message.format(id=f"'{'s' * 80}...' (1000000 characters)") in err
        assert len(err) < 1000


class TestLongNumberTexts:
    """A faulty number's text prints as repr shows it up to 80 characters,
    and longer as its first 80 characters and its length."""

    @pytest.mark.parametrize("length", [80, 1_000_000])
    def test_bad_t(self, tmp_path, capsys, length):
        paths = small_files(tmp_path)
        _append(paths["curves"], [f"s00,p0,{'x' * length},1.0"])
        assert main(["--mode", "select", "--curves", str(paths["curves"]),
                     "--responses", str(paths["responses"])]) == 2
        err = capsys.readouterr().err
        shown = repr("x" * 80) if length <= 80 else f"'{'x' * 80}...' (1000000 characters)"
        assert f"c.csv line 98: field 't' is not numeric: {shown}" in err
        assert len(err) < 1000

    def test_bad_y(self, tmp_path, capsys):
        # past the default csv.field_size_limit(), which would reject the
        # field before it is read as a number
        paths = small_files(tmp_path)
        text = "1" * 199_999 + "x"
        lines = paths["responses"].read_text().splitlines()
        lines[3] = f"s02,{text}"
        paths["responses"].write_text("\n".join(lines) + "\n")
        limit = csv.field_size_limit(1_000_000)
        try:
            code = main(["--mode", "select", "--curves", str(paths["curves"]),
                         "--responses", str(paths["responses"])])
        finally:
            csv.field_size_limit(limit)
        assert code == 2
        err = capsys.readouterr().err
        assert f"r.csv line 4: field 'y' is not numeric: '{'1' * 80}...' (200000 characters)" in err
        assert len(err) < 1000
        assert quoted_text("'\n") == repr("'\n")


class TestRoundTrip:
    def test_smoothed_coefficients_survive_the_csv_format(self, tmp_path):
        # 79 samples x 6 predictors x 12 monthly points
        rng = np.random.default_rng(30)
        n, num_pred, points = 79, 6, 12
        grid = np.linspace(0.0, 12.0, points)
        basis = make_uniform_basis(0.0, 12.0, degree=3, num_basis=6)
        rows = []
        originals = []
        for i in range(n):
            per_sample = []
            for m in range(num_pred):
                values = np.polynomial.polynomial.polyval(
                    grid / 12.0, rng.normal(size=4)
                ) + 0.05 * rng.normal(size=points)
                per_sample.append(values)
                for t, v in zip(grid, values):
                    rows.append((f"s{i:02d}", f"p{m}", repr(float(t)), repr(float(v))))
            originals.append(per_sample)
        y = rng.normal(size=n)
        curves_path = tmp_path / "c.csv"
        responses_path = tmp_path / "r.csv"
        write_curves(curves_path, rows)
        write_responses(responses_path, [(f"s{i:02d}", repr(float(v))) for i, v in enumerate(y)])

        curves, y_read, _, _ = ingest_long_csv(
            str(curves_path), str(responses_path)
        )
        data = build_dataset(curves, y_read, [basis] * num_pred)
        assert data.n == n
        for i in range(0, n, 13):
            for m in range(num_pred):
                direct = smooth_block(
                    CurveBlock(grid=grid, values=np.asarray(originals[i][m])[None, :]), basis
                )[0]
                assert np.max(np.abs(data.coefs[m][i] - direct)) < 1e-12


class TestRunSelect:
    def test_end_to_end_matches_in_process_pipeline(self, sim_files, tmp_path, capsys):
        curves_path, responses_path, curves, y = sim_files
        out = tmp_path / "select.jsonl"
        code = main(
            [
                "--mode", "select",
                "--curves", curves_path,
                "--responses", responses_path,
                "--method", "fdr",
                "--q", "auto",
                "--out", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "selected set: p0, p1, p2, p3, p4" in captured

        # in-process reference on the same data
        bases = standard_bases()
        data = build_dataset(curves, y, bases)
        design = build_design(data)
        statistics, p_values = run_test_all(design, y)

        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert lines[-1]["selected"] == ["p0", "p1", "p2", "p3", "p4"]
        assert lines[-1]["q"] == pytest.approx(1 / np.sqrt(300))
        assert len(lines[:-1]) == 6
        for record, statistic, p in zip(lines[:-1], statistics, p_values):
            assert record["statistic"] == pytest.approx(statistic, rel=1e-12)
            assert record["p_value"] == pytest.approx(p, rel=1e-12)

    def test_single_strong_predictor(self, tmp_path, capsys):
        rng = np.random.default_rng(31)
        n, points = 20, 9
        grid = np.linspace(0.0, 1.0, points)
        rows = []
        y = []
        for i in range(n):
            # rough curves so the smoothed coefficients span the whole basis
            values = rng.normal(0.0, 1.0) + grid * rng.normal(0.0, 1.0) + rng.normal(
                0.0, 0.3, points
            )
            for t, v in zip(grid, values):
                rows.append((f"s{i:02d}", "p0", repr(float(t)), repr(float(v))))
            y.append(float(np.mean(values)) * 3.0 + 0.01 * rng.normal())
        curves_path = tmp_path / "c.csv"
        responses_path = tmp_path / "r.csv"
        write_curves(curves_path, rows)
        write_responses(responses_path, [(f"s{i:02d}", repr(v)) for i, v in enumerate(y)])
        code = main(
            [
                "--mode", "select",
                "--curves", str(curves_path),
                "--responses", str(responses_path),
                "--method", "bc",
                "--q", "0.05",
                "--basis-size", "4",
            ]
        )
        assert code == 0
        assert "selected set: p0" in capsys.readouterr().out

    def test_null_responses_rarely_select(self):
        # with pure-noise responses the selected set is empty in at least
        # 1 - q*M of runs; exercised at the library layer for speed using the
        # same fit/test/select path run_select drives
        rng = np.random.default_rng(32)
        bases = (
            make_uniform_basis(0.0, 1.0, degree=3, num_basis=6),
            make_uniform_basis(0.0, 1.0, degree=3, num_basis=6),
        )
        q, runs, n = 0.05, 200, 400
        empty = 0
        for _ in range(runs):
            data = FunctionalDataset(
                bases=bases,
                coefs=(rng.normal(size=(n, 6)), rng.normal(size=(n, 6))),
                responses=rng.normal(size=n),
            )
            design = build_design(data)
            _, p_values = run_test_all(design, data.responses)
            if not selection_mask("bc", p_values, q).any():
                empty += 1
        assert empty / runs >= 1 - q * 2


@pytest.fixture(scope="module")
def near_linear_files(tmp_path_factory):
    """The benchmark's regular input files of seed 3 with predictor X3's
    curves replaced by lines a_i + b_i t plus noise of sd 1e-7: X3's smoothed
    block is close to rank 2, and the design passes the rank check with
    sigma_max/sigma_min 2.4e9."""
    grids, values, y = inputs.make_dataset(3, False)
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(2, inputs.SAMPLES, 1))
    values[2] = a + b * grids[2] + 1e-7 * rng.normal(size=grids[2].shape)
    directory = tmp_path_factory.mktemp("near_linear")
    return inputs.write_csvs(str(directory), (grids, values, y))


class TestNearLinearPredictor:
    def _argv(self, files, mode):
        return ["--mode", mode, "--curves", files["curves"], "--responses", files["responses"]]

    def test_select_statistics_match_column_deletion_oracle(self, near_linear_files, tmp_path):
        # the Wald form b_r'(V_rr)^-1 b_r read X3 as 3.986 against the
        # oracle's 4.054
        out = tmp_path / "select.jsonl"
        argv = self._argv(near_linear_files, "select")
        assert main([*argv, "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()[:-1]]
        design, y, predictor_ids = _selection_pipeline(_build_config(argv))
        sv = np.linalg.svd(design.values, compute_uv=False)
        assert 1e9 < sv[0] / sv[-1] < 1e10
        coef, *_ = np.linalg.lstsq(design.values, y, rcond=None)
        rss = float(np.sum((y - design.values @ coef) ** 2))
        assert [record["predictor"] for record in records] == predictor_ids
        for r, record in enumerate(records):
            oracle = (column_deletion_rss(design, y, r) - rss) / (rss / design.n)
            assert abs(record["statistic"] - oracle) <= 1e-6 * max(abs(oracle), 1.0)

    def test_bootstrap_matches_per_resample_loop(self, near_linear_files):
        # while test_all took the Wald form too, 10 of these 200 resamples
        # failed on a singular V_rr (87 of 2,000 in a bootstrap job with
        # --seed 3)
        design, y, _ = _selection_pipeline(_build_config(self._argv(near_linear_files, "select")))
        q = 1 / np.sqrt(design.n)
        selected, failed = bootstrap_counts(design, y, "bc", q, 200, 3)
        expected_counts, expected_failed = bootstrap_loop(design, y, "bc", q, 200, 3)
        assert failed == expected_failed == 0
        np.testing.assert_array_equal(selected, expected_counts)


class TestRunBootstrap:
    def test_single_resample_matches_direct_computation(self, sim_files, tmp_path):
        curves_path, responses_path, curves, y = sim_files
        out = tmp_path / "boot.jsonl"
        seed = 123
        code = main(
            [
                "--mode", "bootstrap",
                "--curves", curves_path,
                "--responses", responses_path,
                "--method", "fdr",
                "--q", "0.01",
                "--seed", str(seed),
                "--bootstrap-b", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())

        bases = standard_bases()
        data = build_dataset(curves, y, bases)
        design = build_design(data)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
        idx = rng.integers(0, design.n, size=design.n)
        resampled = DesignMatrix(values=design.values[idx], block_offsets=design.block_offsets)
        _, p_values = run_test_all(resampled, y[idx])
        expected = np.flatnonzero(selection_mask("fdr", p_values, 0.01))
        for m in range(6):
            assert report["ratios"][f"p{m}"] == (1.0 if m in expected else 0.0)

    def test_bootstrap_ratios_on_strong_signals(self, sim_files, tmp_path):
        curves_path, responses_path, _, _ = sim_files
        out = tmp_path / "boot100.jsonl"
        code = main(
            [
                "--mode", "bootstrap",
                "--curves", curves_path,
                "--responses", responses_path,
                "--method", "fdr",
                "--q", "0.01",
                "--seed", "5",
                "--bootstrap-b", "100",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["b"] == 100
        for m in range(5):
            assert report["ratios"][f"p{m}"] >= 0.9
        assert report["ratios"]["p5"] <= 0.15


    # chunks of 45 (the bench's size) and 300 leave uneven last chunks of
    # 20 and 200
    @pytest.mark.parametrize("chunk", [45, 300])
    def test_chunked_draws_equal_per_resample_draws(self, chunk):
        seed, n, b = 7, 300, 2000
        chunks = list(_resample_indices(rng_for(seed, 0), n, b, chunk))
        assert len(chunks[-1]) == b % chunk
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
        expected = np.array([rng.integers(0, n, size=n) for _ in range(b)])
        np.testing.assert_array_equal(np.concatenate(chunks), expected)

    def test_resample_statistics_match_explicit_fits(self, sim_files):
        _, _, curves, y = sim_files
        design = build_design(build_dataset(curves, y, standard_bases()))
        idx = next(_resample_indices(rng_for(4, 0), design.n, 5, 5))
        statistics, p_values = run_test_resamples(sample_qr(design, y), idx)
        for j, rows in enumerate(idx):
            resampled = DesignMatrix(
                values=design.values[rows], block_offsets=design.block_offsets
            )
            expected, expected_p = run_test_all(resampled, y[rows])
            np.testing.assert_allclose(statistics[j], expected, rtol=1e-10, atol=0)
            np.testing.assert_allclose(p_values[j], expected_p, rtol=1e-8)

    @pytest.mark.parametrize("n", [60, 45, 37, 30])
    @pytest.mark.parametrize("method", ["bc", "fdr"])
    def test_failed_resamples_match_per_resample_oracle(self, n, method):
        # k = 37 columns: at n = 60 a resample often has fewer distinct rows
        # than columns and fails its rank check; at n = 45 every one does;
        # at n = 37 and 30 no resample has more rows than columns
        rng = np.random.default_rng(60)
        z = np.column_stack([np.ones(n), rng.normal(size=(n, 36))])
        y = z[:, 1:7].sum(axis=1) + rng.normal(size=n)
        design = DesignMatrix(values=z, block_offsets=(1, 7, 13, 19, 25, 31, 37))
        selected, failed = bootstrap_counts(design, y, method, 0.05, 200, 3)
        expected_counts, expected_failed = bootstrap_loop(design, y, method, 0.05, 200, 3)
        assert failed == expected_failed
        np.testing.assert_array_equal(selected, expected_counts)
        if n == 60:
            assert 0 < failed < 200
        else:
            assert failed == 200

    @pytest.mark.parametrize("method", ["bc", "fdr"])
    def test_raising_batch_falls_back_to_explicit_fits(self, monkeypatch, method):
        # a batch with an exactly singular H_zz is refitted resample by
        # resample; no test design here makes one reliably, so every batch
        # is made to raise
        def singular(qr, idx):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr("funcsel.bootstrap.fit_resamples", singular)
        rng = np.random.default_rng(60)
        z = np.column_stack([np.ones(60), rng.normal(size=(60, 36))])
        y = z[:, 1:7].sum(axis=1) + rng.normal(size=60)
        design = DesignMatrix(values=z, block_offsets=(1, 7, 13, 19, 25, 31, 37))
        selected, failed = bootstrap_counts(design, y, method, 0.05, 200, 3)
        expected_counts, expected_failed = bootstrap_loop(design, y, method, 0.05, 200, 3)
        assert 0 < failed == expected_failed < 200
        np.testing.assert_array_equal(selected, expected_counts)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_rejected(self, seed):
        # the Philox key is a uint64: 2**64 used to raise OverflowError
        rng = np.random.default_rng(60)
        design = DesignMatrix(values=rng.normal(size=(60, 7)), block_offsets=(1, 7))
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            bootstrap_counts(design, rng.normal(size=60), "bc", 0.05, 2, seed)

    @pytest.mark.parametrize(
        "b, method, q, reason",
        [
            (0, "bc", 0.05, r"b must be >= 1, got 0"),
            (-5, "bc", 0.05, r"b must be >= 1, got -5"),
            (10, "lasso", 0.05, r"unknown method 'lasso'"),
            (10, "fdr", 1.5, r"q must lie in \(0, 1\), got 1.5"),
        ],
    )
    def test_arguments_checked_on_entry(self, monkeypatch, b, method, q, reason):
        # every argument is checked on entry, before the QR
        def reached(*args):
            raise AssertionError("sample_qr reached")

        monkeypatch.setattr("funcsel.bootstrap.sample_qr", reached)
        rng = np.random.default_rng(60)
        design = DesignMatrix(values=rng.normal(size=(60, 7)), block_offsets=(1, 7))
        with pytest.raises(ValueError, match=reason):
            bootstrap_counts(design, rng.normal(size=60), method, q, b, 0)

    @pytest.mark.parametrize("defect", ["zero", "tiny", "near threshold", "near repeat"])
    def test_singular_design_fails_every_resample(self, defect):
        # a zero column leaves an exactly zero pivot in the full sample's R;
        # a tiny or a nearly repeated one leaves sigma_min/sigma_max of every
        # resample below RANK_RTOL. Near the threshold (about 6e-11 for the
        # full design) the certification bound reads 3.5e10 to 5.6e10, so a
        # bound a few times looser would pass resamples that fail their fit
        rng = np.random.default_rng(80)
        z = np.column_stack([np.ones(80), rng.normal(size=(80, 12))])
        z[:, 5] = {
            "zero": 0.0,
            "tiny": 1e-11 * z[:, 5],
            "near threshold": 1e-10 * z[:, 5],
            "near repeat": z[:, 4] + 1e-12 * z[:, 6],
        }[defect]
        y = rng.normal(size=80)
        design = DesignMatrix(values=z, block_offsets=(1, 7, 13))
        selected, failed = bootstrap_counts(design, y, "fdr", 0.05, 120, 2)
        assert failed == 120
        np.testing.assert_array_equal(selected, [0, 0])

    # 45 samples: every resample fails its fit; 30 samples: no more samples
    # than the k = 37 columns, which the job rejects before resampling
    @pytest.mark.parametrize("n, code", [(45, 0), (30, 3)])
    def test_job_where_every_resample_fails(self, tmp_path, capsys, n, code):
        rng = np.random.default_rng(45)
        grid = np.linspace(0.0, 1.0, 20)
        rows = [
            (f"s{i:02d}", f"p{m}", repr(float(t)), repr(float(v)))
            for i in range(n)
            for m in range(6)
            for t, v in zip(grid, rng.normal(size=grid.size))
        ]
        curves_path, responses_path = tmp_path / "c.csv", tmp_path / "r.csv"
        write_curves(curves_path, rows)
        write_responses(
            responses_path, [(f"s{i:02d}", repr(float(rng.normal()))) for i in range(n)]
        )
        out = tmp_path / "boot.jsonl"
        assert code == main(
            ["--mode", "bootstrap", "--curves", str(curves_path),
             "--responses", str(responses_path), "--method", "fdr", "--q", "0.05",
             "--bootstrap-b", "60", "--out", str(out)]
        )
        if code:
            assert "need n > k" in capsys.readouterr().err
            return
        report = json.loads(out.read_text())
        assert report["failed"] == 60
        assert report["ratios"] == {f"p{m}": 0.0 for m in range(6)}


def test_cli_import_leaves_scipy_linalg_unloaded():
    # numpy and scipy each bundle a BLAS with its own thread pool, and calls
    # that alternate between the two slow each other down when unpinned
    code = "import sys, funcsel.cli; sys.exit('scipy.linalg' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(funcsel.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("mode", ["select", "simulate", "bootstrap"])
def test_cli_job_loads_no_scipy(tmp_path, mode):
    # the package needs numpy only; importing scipy.special alone took
    # 0.23-0.33 s on a 2-vCPU machine, more than a select job on a 300x6 CSV.
    # No job needs numpy.ma, and a select job draws no random numbers; each
    # took 10-16 ms to import after numpy
    paths = small_files(tmp_path)
    files = ["--curves", str(paths["curves"]), "--responses", str(paths["responses"]),
             "--basis-size", "5"]
    argv = {
        "select": ["--mode", "select", *files, "--q", "0.1"],
        "simulate": ["--mode", "simulate", "--c", "0.4", "--n", "100", "--reps", "2",
                     "--q", "0.05", "--seed", "1"],
        "bootstrap": ["--mode", "bootstrap", *files, "--q", "0.1",
                      "--bootstrap-b", "20", "--seed", "1"],
    }[mode]
    # the second worker of simulate and bootstrap is a threading.Thread:
    # concurrent.futures took about 7 ms to import, logging among it
    unneeded = ["scipy", "numpy.ma", "concurrent.futures", "logging"] + ["numpy.random"] * (
        mode == "select"
    )
    code = f"""
import sys
import funcsel.cli

def unneeded_modules():
    return sorted(
        name for name in sys.modules
        if any(name == top or name.startswith(top + ".") for top in {unneeded!r})
    )

if unneeded_modules():
    sys.exit(f"import funcsel.cli loaded {{unneeded_modules()}}")
if funcsel.cli.main({argv!r}) != 0:
    sys.exit("{mode} job failed")
if unneeded_modules():
    sys.exit(f"{mode} job loaded {{unneeded_modules()}}")
"""
    env = {**os.environ, "PYTHONPATH": str(Path(funcsel.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()  # the job printed its report


@pytest.fixture(scope="module")
def wide_files(tmp_path_factory):
    """The benchmark's ragged input files of seed 3 made wide: its six
    domains four times over, 200 samples and 12 points a curve, so k = 145."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inputs, "DOMAINS", inputs.DOMAINS * 4)
        patch.setattr(inputs, "PREDICTOR_IDS", tuple(f"X{m + 1}" for m in range(24)))
        patch.setattr(inputs, "SAMPLES", 200)
        patch.setattr(inputs, "POINTS", 12)
        directory = tmp_path_factory.mktemp("wide")
        return inputs.write_csvs(str(directory), inputs.make_dataset(3, True))


@pytest.mark.parametrize("mode", ["simulate", "select", "bootstrap"])
def test_same_report_at_one_and_two_blas_threads(tmp_path, wide_files, sim_files, mode):
    # simulate's replications and bootstrap's batches run on two workers
    # beside one BLAS thread, where the process may use two CPUs, and on one
    # worker beside two BLAS threads and in a child restricted to one CPU;
    # select at k = 145 is below the k = 253 at which the QR of [Z | y]
    # moves with the thread count (README, Determinism)
    argv = {
        "simulate": ["--mode", "simulate", "--c", "0.4", "--n", "100", "--reps", "10",
                     "--seed", "3"],
        "select": ["--mode", "select", "--curves", wide_files["curves"],
                   "--responses", wide_files["responses"]],
        "bootstrap": ["--mode", "bootstrap", "--curves", sim_files[0],
                      "--responses", sim_files[1], "--bootstrap-b", "200", "--seed", "3"],
    }[mode]
    code = (
        "import sys\n"
        "from funcsel import cli, workers\n"
        "print(workers.two_workers(), file=sys.stderr)\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )

    def run(name, threads, preexec_fn=None):
        out = tmp_path / f"{name}.jsonl"
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": str(Path(funcsel.__file__).resolve().parents[1]),
        }
        done = subprocess.run(
            [sys.executable, "-c", code, *argv, "--out", str(out)],
            env=env, capture_output=True, preexec_fn=preexec_fn,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout, out.read_bytes(), done.stderr

    one, two = run("threads1", "1"), run("threads2", "2")
    assert one[:2] == two[:2]
    assert one[1]  # a report was written
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    assert one[2] == f"{cpus >= 2}\n".encode()
    assert two[2] == b"False\n"
    if mode != "select" and hasattr(os, "sched_setaffinity"):
        # the affinity is set in the child alone, before it runs Python
        cpu = min(os.sched_getaffinity(0))
        alone = run("one_cpu", "1", lambda: os.sched_setaffinity(0, {cpu}))
        assert alone == (*one[:2], b"False\n")


@pytest.mark.parametrize("mode", ["select", "simulate", "bootstrap"])
def test_clean_job_writes_nothing_to_stderr(tmp_path, mode):
    # stderr is for errors: a job that succeeds prints its report on stdout
    # and nothing else, whatever its parameter count k against n
    paths = small_files(tmp_path)
    files = ["--curves", str(paths["curves"]), "--responses", str(paths["responses"]),
             "--basis-size", "5"]
    argv = {
        "select": ["--mode", "select", *files, "--q", "0.1"],
        "simulate": ["--mode", "simulate", "--c", "0.4", "--n", "100", "--reps", "2"],
        "bootstrap": ["--mode", "bootstrap", *files, "--q", "0.1", "--bootstrap-b", "20"],
    }[mode]
    env = {**os.environ, "PYTHONPATH": str(Path(funcsel.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "funcsel.cli", *argv], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    assert result.stderr == ""


class TestRunSimulate:
    def test_same_report_without_sched_getaffinity(self, tmp_path, monkeypatch, capsys):
        # macOS and Windows have no os.sched_getaffinity: the CPU count
        # stands in for the process's CPUs, and the report is Linux's. BLAS
        # is pinned, so that the CPU count decides the second worker
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        argv = ["--mode", "simulate", "--n", "60", "--reps", "2"]
        runs = []
        for name in ("linux", "no_affinity"):
            if name == "no_affinity":
                monkeypatch.delattr(os, "sched_getaffinity")
            out = tmp_path / f"{name}.json"
            assert main([*argv, "--out", str(out)]) == 0
            runs.append((capsys.readouterr(), out.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][1]
        assert funcsel.workers.two_workers() is ((os.cpu_count() or 1) >= 2)

    def test_smoke_and_determinism(self, tmp_path):
        out1 = tmp_path / "sim1.json"
        out2 = tmp_path / "sim2.json"
        args = [
            "--mode", "simulate",
            "--c", "0",
            "--n", "100",
            "--reps", "3",
            "--method", "bc",
            "--q", "0.05",
            "--seed", "11",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["replications"] == 3
        assert report["n"] == 100

    @pytest.mark.parametrize("value", ["77", "abc"])
    def test_env_seed_ignored(self, tmp_path, monkeypatch, value):
        # the seed comes from --seed, the config file or the default only;
        # a <PACKAGE>_SEED variable, a seed or junk, leaves the default 0
        monkeypatch.setenv(funcsel.__name__.upper() + "_SEED", value)
        out = tmp_path / "sim.json"
        code = main(
            ["--mode", "simulate", "--c", "0", "--n", "100", "--reps", "1",
             "--method", "bc", "--q", "0.05", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["seed"] == 0


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        config_path = tmp_path / "job.cfg"
        out = tmp_path / "sim.json"
        config_path.write_text(
            "# simulation job\n"
            "mode = simulate\n"
            "method = bc\n"
            "q = 0.05\n"
            "reps = 2\n"
            "n = 100\n"
            "seed = 9\n"
        )
        code = main(["--config", str(config_path), "--seed", "4", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["seed"] == 4  # flag beats config file
        assert report["method"] == "bc"
        assert report["replications"] == 2

    def test_config_supplies_seed(self, tmp_path):
        config_path = tmp_path / "job.cfg"
        config_path.write_text("seed = 9\n")
        out = tmp_path / "sim.json"
        code = main(["--config", str(config_path), "--mode", "simulate", "--c", "0",
                     "--n", "100", "--reps", "1", "--method", "bc", "--q", "0.05",
                     "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["seed"] == 9

    @pytest.mark.parametrize("mode", ["select", "bootstrap"])
    @pytest.mark.parametrize(
        "line", ["basis_size.X9 = 8", "degree.X9 = 2", "domain.Y = 0:5"],
        ids=["basis_size", "degree", "domain"],
    )
    def test_override_of_absent_predictor_is_usage_error(self, tmp_path, capsys, mode, line):
        # the curves file holds predictor p0 only
        paths = small_files(tmp_path)
        config_path = tmp_path / "job.cfg"
        config_path.write_text(line + "\n")
        assert main(["--config", str(config_path), "--mode", mode, "--curves",
                     str(paths["curves"]), "--responses", str(paths["responses"])]) == 1
        key = line.split(" = ")[0]
        predictor = key.split(".")[1]
        assert (f"error: config key '{key}': no predictor '{predictor}' in "
                f"{paths['curves']}") in capsys.readouterr().err

    def test_override_keeps_predictor_id_as_written(self, tmp_path):
        # '-' in the option name reads as '_', but not in the predictor id
        rng = np.random.default_rng(36)
        grid = np.linspace(0.0, 1.0, 9)
        rows = []
        for i in range(20):
            for t, v in zip(grid, rng.normal(size=grid.size)):
                rows.append((f"s{i:02d}", "TEMP-MAX", repr(float(t)), repr(float(v))))
        curves_path = tmp_path / "c.csv"
        responses_path = tmp_path / "r.csv"
        write_curves(curves_path, rows)
        write_responses(responses_path, [(f"s{i:02d}", float(i)) for i in range(20)])
        config_path = tmp_path / "job.cfg"
        config_path.write_text(
            "basis-size.TEMP-MAX = 4\n"
            "degree.TEMP-MAX = 2\n"
            "domain.TEMP-MAX = 0:1\n"
            "bootstrap-b = 7\n"
        )
        argv = ["--config", str(config_path), "--mode", "select", "--curves",
                str(curves_path), "--responses", str(responses_path)]
        config = _build_config(argv)
        assert config.basis_size_overrides == {"TEMP-MAX": 4}
        assert config.degree_overrides == {"TEMP-MAX": 2}
        assert config.domain_overrides == {"TEMP-MAX": (0.0, 1.0)}
        assert config.bootstrap_b == 7
        out = tmp_path / "select.jsonl"
        assert main(argv + ["--method", "bc", "--q", "0.05", "--out", str(out)]) == 0
        record = json.loads(out.read_text().splitlines()[0])
        assert record["predictor"] == "TEMP-MAX" and record["dof"] == 4

    def test_config_with_byte_order_mark(self, tmp_path):
        # saved with a byte order mark, as the CSV files may be
        config_path = tmp_path / "job.cfg"
        config_path.write_bytes(b"\xef\xbb\xbfmode = simulate\n")
        assert main(["--config", str(config_path), "--c", "0", "--n", "100",
                     "--reps", "1", "--method", "bc", "--q", "0.05"]) == 0

    def test_malformed_config_is_usage_error(self, tmp_path):
        config_path = tmp_path / "job.cfg"
        config_path.write_text("mode simulate\n")
        assert main(["--config", str(config_path)]) == 1


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        assert main(["--mode", "simulate", "--c", "0", "--n", "100",
                     "--reps", "1", "--method", "bc", "--q", "0.05"]) == 0

    def test_usage_errors(self):
        assert main(["--mode", "nonsense"]) == 1
        assert main([]) == 1  # mode missing
        assert main(["--mode", "select"]) == 1  # curves/responses missing

    @pytest.mark.parametrize(
        "flags, reason",
        [
            (["--method", "xyz"], "argument --method: invalid choice: 'xyz'"),
            (["--reps", "abc"], "argument --reps: invalid int value: 'abc'"),
            # no prefix matching: a flag must be spelled in full
            (["--rep", "1"], "unrecognized arguments: --rep 1"),
            (["--boot", "5"], "unrecognized arguments: --boot 5"),
            (["--threads", "2"], "unrecognized arguments: --threads 2"),
        ],
    )
    def test_parse_error_prints_usage_and_reason(self, capsys, flags, reason):
        assert main(["--mode", "simulate", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: funcsel")
        assert f"error: {reason}" in err

    def test_invalid_q_is_usage_error(self):
        assert main(["--mode", "simulate", "--q", "1.5", "--reps", "1",
                     "--n", "100", "--method", "bc"]) == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--reps", "0"],
            ["--bootstrap-b", "0"],
            ["--degree", "-1"],
            ["--basis-size", "3"],
            ["--basis-size", "2", "--degree", "2"],
            # per-predictor overrides: config file lines, then the message
            ["--config", "degree.p0 = -1", "degree.p0 must be >= 0"],
            ["--config", "basis_size.p0 = 3", "basis_size.p0 must be >= 4"],
            ["--config", "degree.p0 = 6", "basis_size.p0 must be >= 7"],
            ["--config", "basis_size.p0 = 3\ndegree.p0 = 3", "basis_size.p0 must be >= 4"],
            ["--config", "domain.p0 = 1:0", "domain.p0 must be finite with lo < hi"],
            ["--config", "domain.p0 = 0:inf", "domain.p0 must be finite with lo < hi"],
            ["--config", "domain.p0 = nan:1", "domain.p0 must be finite with lo < hi"],
            ["--q", "0"],
            ["--q", "1"],
            ["--q", "1.5"],
            ["--q", "abc"],
            ["--config", "q = abc", "--q must be a number in (0, 1) or 'auto', got 'abc'"],
            ["--n", "10"],
            ["--c", "nan"],
            # unknown keys, and values that fail the flag's own conversion
            ["--config", "repz = 50", "job.cfg line 1: unknown key 'repz'"],
            ["--config", "# comment\n\nbasis-sise = 8", "job.cfg line 3: unknown key 'basis-sise'"],
            ["--config", "reps.p0 = 5", "job.cfg line 1: unknown key 'reps.p0'"],
            ["--config", "config = other.cfg", "job.cfg line 1: unknown key 'config'"],
            ["--config", "threads = 2", "job.cfg line 1: unknown key 'threads'"],
            ["--config", "reps = abc", "job.cfg line 1: argument --reps: invalid int value"],
            ["--config", "method = xyz", "job.cfg line 1: argument --method: invalid choice"],
            ["--config", "degree.p0 = 2.5", "job.cfg line 1: argument --degree: invalid int value"],
            # a domain that is not two numbers, and a finite c too large
            ["--config", "domain.p0 = abc:1",
             "job.cfg line 1: domain.p0 must be 'lo:hi', two numbers around a colon, got 'abc:1'"],
            ["--config", "domain.p0 = 5",
             "job.cfg line 1: domain.p0 must be 'lo:hi', two numbers around a colon, got '5'"],
            ["--c", "1e200"],
            ["--c=-1e200"],
        ],
    )
    def test_out_of_range_option_is_usage_error(self, tmp_path, capsys, flags):
        # the files do not exist: exit 1 rather than 2 shows that the option
        # is rejected before any input is read
        if flags[0] == "--config":
            config_path = tmp_path / "job.cfg"
            config_path.write_text(flags[1] + "\n")
            expected = flags[2]
            flags = ["--config", str(config_path)]
        elif flags == ["--q", "abc"]:
            expected = "--q must be a number in (0, 1) or 'auto', got 'abc'"
        elif flags[0] == "--q":
            expected = "q must lie in (0, 1)"
        elif flags[0] == "--n":
            expected = "n must be >= 50"
        elif flags[0].split("=")[0] == "--c":
            expected = "signal strength c must be finite"
        else:
            expected = f"{flags[0]} must be >="
        for mode in ("simulate", "bootstrap"):
            code = main(
                ["--mode", mode, "--curves", str(tmp_path / "nope.csv"),
                 "--responses", str(tmp_path / "nope2.csv"), *flags]
            )
            assert code == 1
            assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("c", ["nan", "inf"])
    def test_non_finite_signal_strength_is_usage_error(self, capsys, c):
        code = main(["--mode", "simulate", "--c", c, "--reps", "2", "--n", "60"])
        assert code == 1
        assert "signal strength c must be finite" in capsys.readouterr().err

    def test_closed_stdout_exits_141_quietly(self, monkeypatch, capsys):
        # the reader of stdout went away, as in `funcsel ... | head -1`: not
        # a data error, and a later flush must not meet the closed pipe again
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", encoding="utf-8") as closed_pipe:
            monkeypatch.setattr(sys, "stdout", closed_pipe)
            assert main(["--mode", "simulate", "--n", "60", "--reps", "1"]) == 141
            closed_pipe.write("left in the buffer\n")
            closed_pipe.flush()  # into os.devnull: no BrokenPipeError
            monkeypatch.undo()
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("dev_mode", [False, True])
    def test_closed_stdout_pipe_in_a_process(self, dev_mode):
        # every write to the pipe fails, its read end being closed already;
        # the job's few lines reach the pipe only when stdout is flushed. In
        # Python's development mode an unclosed file or a second failed
        # flush at exit would print a warning on stderr.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": str(Path(funcsel.__file__).resolve().parents[1])}
        env.pop("PYTHONDEVMODE", None)
        if dev_mode:
            env["PYTHONDEVMODE"] = "1"
        try:
            done = subprocess.run(
                [sys.executable, "-m", "funcsel.cli", "--mode", "simulate", "--n", "60",
                 "--reps", "1"],
                env=env, stdout=write_end, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, b"")

    def test_escaping_linalg_error_is_numerical_error(self, monkeypatch):
        # numpy's LinAlgError subclasses ValueError, the usage-error type
        def fail(config):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr("funcsel.cli.run_simulate", fail)
        assert main(["--mode", "simulate", "--reps", "1"]) == 3

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_uint64_is_usage_error(self, tmp_path, capsys, seed):
        # the Philox key is a uint64; the files do not exist, so exit 1
        # shows that the seed is rejected before any input is read
        files = ["--curves", str(tmp_path / "nope.csv"),
                 "--responses", str(tmp_path / "nope2.csv")]
        for mode in ("simulate", "bootstrap"):
            assert main(["--mode", mode, *files, "--seed", seed]) == 1
            err = capsys.readouterr().err
            assert f"error: seed must lie in [0, 2**64), got {seed}" in err

    def test_impossible_parameter_count_fails_before_the_bases(self, tmp_path, capsys):
        # k = 200,001 against n = 12: the count is checked before a basis of
        # 200,000 functions, whose knots alone are MBs of Python floats, is built
        paths = small_files(tmp_path)
        tracemalloc.start()
        try:
            code = main(["--mode", "select", "--curves", str(paths["curves"]),
                         "--responses", str(paths["responses"]),
                         "--basis-size", "200000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical error: need n > k = 1 + sum(p_m): got n=12, k=200001" in err
        assert peak < 10e6

    def test_duplicate_response_is_data_error(self, tmp_path, capsys):
        # lines 2-13 hold samples s00-s11; line 14 repeats s03
        paths = small_files(tmp_path)
        with open(paths["responses"], "a", encoding="utf-8") as handle:
            handle.write("s03,1.5\n")
        assert main(["--mode", "select", "--curves", str(paths["curves"]),
                     "--responses", str(paths["responses"])]) == 2
        err = capsys.readouterr().err
        assert f"data error: {paths['responses']} line 14: duplicate sample_id 's03'" in err

    def test_largest_seed_runs(self, sim_files):
        curves_path, responses_path, _, _ = sim_files
        assert main(
            ["--mode", "bootstrap", "--curves", curves_path, "--responses",
             responses_path, "--bootstrap-b", "2", "--seed", str(2**64 - 1)]
        ) == 0

    @pytest.mark.parametrize("target", ["curves", "responses"])
    def test_non_utf8_file_is_data_error(self, tmp_path, capsys, target):
        paths = small_files(tmp_path)
        path = paths[target]
        path.write_bytes(path.read_bytes().replace(b"s01,", b"s\xe901,", 1))
        assert main(["--mode", "select", "--curves", str(paths["curves"]),
                     "--responses", str(paths["responses"])]) == 2
        assert f"data error: {path}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["t", "value"])
    def test_non_utf8_number_is_data_error(self, tmp_path, capsys, field):
        # the bad byte sits inside a t or value field of line 10, not an id
        paths = small_files(tmp_path)
        path = paths["curves"]
        lines = path.read_bytes().split(b"\n")
        cells = lines[9].split(b",")
        column = 2 if field == "t" else 3
        cells[column] = cells[column][:2] + b"\xff" + cells[column][2:]
        lines[9] = b",".join(cells)
        path.write_bytes(b"\n".join(lines))
        assert main(["--mode", "select", "--curves", str(path),
                     "--responses", str(paths["responses"])]) == 2
        assert (f"data error: {path}: not UTF-8 text: cannot decode byte 0xff "
                "(invalid start byte)") in capsys.readouterr().err

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        config_path = tmp_path / "job.cfg"
        config_path.write_bytes(b"mode = simulate\n# caf\xe9\n")
        assert main(["--config", str(config_path)]) == 1
        assert f"cannot read config file {config_path}" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["curves", "responses"])
    def test_oversized_quoted_field_is_data_error(self, tmp_path, capsys, target):
        # longer than csv.field_size_limit(), 131,072 characters by default
        paths = small_files(tmp_path)
        path = paths[target]
        name = '"' + "x" * 140_000 + '"'
        path.write_text(path.read_text().replace("s01,", name + ",", 1))
        rows = path.read_text().split("\n")
        line = next(i for i, row in enumerate(rows, 1) if row.startswith(name))
        assert main(["--mode", "select", "--curves", str(paths["curves"]),
                     "--responses", str(paths["responses"])]) == 2
        assert (
            f"data error: {path} line {line}: field larger than field limit"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("mode", ["select", "simulate"])
    @pytest.mark.parametrize("where", ["missing_directory", "directory"])
    def test_unwritable_out_is_data_error_before_any_work(self, tmp_path, capsys, mode, where):
        # nothing is printed: the path is rejected before the job starts
        paths = small_files(tmp_path)
        out = tmp_path / "nope" / "r.jsonl" if where == "missing_directory" else tmp_path
        assert main(["--mode", mode, "--curves", str(paths["curves"]), "--responses",
                     str(paths["responses"]), "--basis-size", "4", "--method", "bc",
                     "--q", "0.05", "--reps", "4", "--n", "100", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"data error: --out {out}")

    def test_failed_job_leaves_existing_report_untouched(self, tmp_path):
        paths = small_files(tmp_path)
        paths["responses"].write_text("sample_id,y\n")
        out = tmp_path / "r.jsonl"
        out.write_text("earlier report\n")
        assert main(["--mode", "select", "--curves", str(paths["curves"]),
                     "--responses", str(paths["responses"]), "--out", str(out)]) == 2
        assert out.read_text() == "earlier report\n"

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(
            ["--mode", "select", "--curves", str(tmp_path / "nope.csv"),
             "--responses", str(tmp_path / "nope2.csv")]
        ) == 2

    def test_malformed_csv_is_data_error(self, tmp_path):
        curves_path = tmp_path / "c.csv"
        responses_path = tmp_path / "r.csv"
        curves_path.write_text("wrong,header\n")
        write_responses(responses_path, [("a", 1.0)])
        assert main(
            ["--mode", "select", "--curves", str(curves_path),
             "--responses", str(responses_path)]
        ) == 2

    def test_rank_deficient_design_is_numerical_error(self, tmp_path):
        # two byte-identical predictors make the design singular
        rng = np.random.default_rng(33)
        n, points = 12, 8
        grid = np.linspace(0.0, 1.0, points)
        rows = []
        for i in range(n):
            values = rng.normal(size=points)
            for pid in ("a", "b"):
                for t, v in zip(grid, values):
                    rows.append((f"s{i:02d}", pid, repr(float(t)), repr(float(v))))
        curves_path = tmp_path / "c.csv"
        responses_path = tmp_path / "r.csv"
        write_curves(curves_path, rows)
        write_responses(
            responses_path, [(f"s{i:02d}", repr(float(rng.normal()))) for i in range(n)]
        )
        code = main(
            ["--mode", "select", "--curves", str(curves_path),
             "--responses", str(responses_path), "--basis-size", "4",
             "--method", "bc", "--q", "0.05"]
        )
        assert code == 3
