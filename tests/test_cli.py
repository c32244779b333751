"""CLI: CSV ingestion, selection, bootstrap, simulation, exit codes."""

import json

import numpy as np
import pytest

from funcsel import (
    DataError,
    build_dataset,
    build_design,
    gram_matrix,
    make_uniform_basis,
    select_bonferroni,
    smooth_block,
)
from funcsel.cli import JobConfig, _build_config, _make_parser, ingest_long_csv, main
from funcsel.design import DesignMatrix
from funcsel.inference import test_all as run_test_all
from funcsel.simgen import SimScenario, generate_replication
from funcsel.smoothing import CurveBlock, FunctionalDataset

from conftest import quiet, standard_bases
from oracles import smooth_lstsq


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
        config = JobConfig(mode="select")
        curves, y, sample_ids, predictor_ids = ingest_long_csv(
            str(curves_path), str(responses_path), config
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
            str(curves_path), str(responses_path), JobConfig(mode="select")
        )
        assert curves[0][0].values.shape == (1, 3)
        assert curves[0][0].values[0] == pytest.approx([1.0, 2.0, 3.0])

    def test_missing_response_names_sample(self, tmp_path):
        curves_path = tmp_path / "c.csv"
        responses_path = tmp_path / "r.csv"
        write_curves(curves_path, [("a", "x", 0.0, 1.0), ("b", "x", 0.0, 1.0)])
        write_responses(responses_path, [("a", 1.0)])
        with pytest.raises(DataError, match="missing response for sample_id 'b'"):
            ingest_long_csv(str(curves_path), str(responses_path), JobConfig(mode="select"))

    def test_bad_header(self, tmp_path):
        curves_path = tmp_path / "c.csv"
        responses_path = tmp_path / "r.csv"
        curves_path.write_text("id,pred,t,value\na,x,0,1\n")
        write_responses(responses_path, [("a", 1.0)])
        with pytest.raises(DataError, match="line 1"):
            ingest_long_csv(str(curves_path), str(responses_path), JobConfig(mode="select"))

    def test_duplicate_point(self, tmp_path):
        curves_path = tmp_path / "c.csv"
        responses_path = tmp_path / "r.csv"
        write_curves(curves_path, [("a", "x", 0.5, 1.0), ("a", "x", 0.5, 2.0)])
        write_responses(responses_path, [("a", 1.0)])
        with pytest.raises(DataError, match="line 3.*duplicate"):
            ingest_long_csv(str(curves_path), str(responses_path), JobConfig(mode="select"))

    def test_non_numeric_field(self, tmp_path):
        curves_path = tmp_path / "c.csv"
        responses_path = tmp_path / "r.csv"
        write_curves(curves_path, [("a", "x", 0.5, "oops")])
        write_responses(responses_path, [("a", 1.0)])
        with pytest.raises(DataError, match="line 2.*'value'"):
            ingest_long_csv(str(curves_path), str(responses_path), JobConfig(mode="select"))

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
            ingest_long_csv(str(curves_path), str(responses_path), JobConfig(mode="select"))

    def test_missing_predictor_for_sample(self, tmp_path):
        curves_path = tmp_path / "c.csv"
        responses_path = tmp_path / "r.csv"
        write_curves(
            curves_path,
            [("a", "x", 0.5, 1.0), ("a", "w", 0.5, 1.0), ("b", "x", 0.5, 1.0)],
        )
        write_responses(responses_path, [("a", 1.0), ("b", 2.0)])
        with pytest.raises(DataError, match="sample 'b' has no rows for predictor 'w'"):
            ingest_long_csv(str(curves_path), str(responses_path), JobConfig(mode="select"))

    @pytest.mark.parametrize(
        "layout, run_lengths",
        [
            ("shared", [40]),
            ("ragged", [1] * 40),
            # runs of the regular grid interrupted by one other shared grid
            # (sample 10) and by five curves on grids of their own (20-24)
            ("mixed", [10, 1, 9, 1, 1, 1, 1, 1, 15]),
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
            str(curves_path), str(responses_path), JobConfig(mode="select")
        )
        assert predictor_ids == ["p0", "p1"]
        assert [block.num_curves for block in curves[0]] == run_lengths
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
        assert "sample 4, predictor 0: grid has 4 points" in capsys.readouterr().err


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
            str(curves_path), str(responses_path), JobConfig(mode="select")
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
        grams = tuple(gram_matrix(spec) for spec in bases)
        design = quiet(build_design, data, grams)
        expected = run_test_all(design, y)

        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert lines[-1]["selected"] == ["p0", "p1", "p2", "p3", "p4"]
        assert lines[-1]["q"] == pytest.approx(1 / np.sqrt(300))
        for record, ref in zip(lines[:-1], expected):
            assert record["statistic"] == pytest.approx(ref.statistic, rel=1e-12)
            assert record["p_value"] == pytest.approx(ref.p_value, rel=1e-12)

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
        grams = tuple(gram_matrix(spec) for spec in bases)
        q, runs, n = 0.05, 200, 400
        empty = 0
        for _ in range(runs):
            data = FunctionalDataset(
                bases=bases,
                coefs=(rng.normal(size=(n, 6)), rng.normal(size=(n, 6))),
                responses=rng.normal(size=n),
            )
            design = quiet(build_design, data, grams)
            tests = run_test_all(design, data.responses)
            if not select_bonferroni(tests, q).selected:
                empty += 1
        assert empty / runs >= 1 - q * 2


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
        grams = tuple(gram_matrix(spec) for spec in bases)
        design = quiet(build_design, data, grams)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
        idx = rng.integers(0, design.n, size=design.n)
        resampled = DesignMatrix(values=design.values[idx], block_offsets=design.block_offsets)
        tests = run_test_all(resampled, y[idx])
        from funcsel import select_fdr

        expected = select_fdr(tests, 0.01).selected
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


class TestRunSimulate:
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

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FUNCSEL_SEED", "77")
        out = tmp_path / "sim.json"
        code = main(
            ["--mode", "simulate", "--c", "0", "--n", "100", "--reps", "1",
             "--method", "bc", "--q", "0.05", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["seed"] == 77

    def test_flag_beats_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FUNCSEL_SEED", "77")
        out = tmp_path / "sim.json"
        code = main(
            ["--mode", "simulate", "--c", "0", "--n", "100", "--reps", "1",
             "--method", "bc", "--q", "0.05", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["seed"] == 3


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
        config = _build_config(_make_parser().parse_args(argv))
        assert config.basis_size_overrides == {"TEMP-MAX": 4}
        assert config.degree_overrides == {"TEMP-MAX": 2}
        assert config.domain_overrides == {"TEMP-MAX": (0.0, 1.0)}
        assert config.bootstrap_b == 7
        out = tmp_path / "select.jsonl"
        assert main(argv + ["--method", "bc", "--q", "0.05", "--out", str(out)]) == 0
        record = json.loads(out.read_text().splitlines()[0])
        assert record["predictor"] == "TEMP-MAX" and record["dof"] == 4

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

    def test_invalid_q_is_usage_error(self):
        assert main(["--mode", "simulate", "--q", "1.5", "--reps", "1",
                     "--n", "100", "--method", "bc"]) == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--threads", "-3"],
            ["--threads", "0"],
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
        else:
            expected = f"{flags[0]} must be >="
        for mode in ("simulate", "bootstrap"):
            code = main(
                ["--mode", mode, "--curves", str(tmp_path / "nope.csv"),
                 "--responses", str(tmp_path / "nope2.csv"), *flags]
            )
            assert code == 1
            assert expected in capsys.readouterr().err

    def test_escaping_linalg_error_is_numerical_error(self, monkeypatch):
        # numpy's LinAlgError subclasses ValueError, the usage-error type
        def fail(config):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr("funcsel.cli.run_simulate", fail)
        assert main(["--mode", "simulate", "--reps", "1"]) == 3

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
