"""The command-line workflow on CSV data.

Writes a synthetic dataset to the long CSV format the CLI expects, then runs
the `select` and `bootstrap` modes through the same entry point as the
installed `funcsel` command.
"""

import tempfile
from pathlib import Path

from funcsel.cli import main as funcsel_main
from funcsel.simgen import SimScenario, generate_replication


def write_csvs(directory: Path) -> tuple[Path, Path]:
    curves, y, _ = generate_replication(SimScenario(c=0.8, n=100, seed=0), 0)
    curves_path = directory / "curves.csv"
    responses_path = directory / "responses.csv"
    with open(curves_path, "w", encoding="utf-8") as handle:
        handle.write("sample_id,predictor_id,t,value\n")
        # curves[m] holds predictor m's single block: one row per sample
        for m, (block,) in enumerate(curves):
            for i, values in enumerate(block.values):
                for t, v in zip(block.grid, values):
                    handle.write(f"s{i:03d},p{m},{float(t)!r},{float(v)!r}\n")
    with open(responses_path, "w", encoding="utf-8") as handle:
        handle.write("sample_id,y\n")
        for i, v in enumerate(y):
            handle.write(f"s{i:03d},{float(v)!r}\n")
    return curves_path, responses_path


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        curves_path, responses_path = write_csvs(Path(tmp))

        print("== select mode ==")
        funcsel_main([
            "--mode", "select",
            "--curves", str(curves_path),
            "--responses", str(responses_path),
            "--method", "fdr",
        ])

        print("\n== bootstrap mode (stability of the selected set) ==")
        funcsel_main([
            "--mode", "bootstrap",
            "--curves", str(curves_path),
            "--responses", str(responses_path),
            "--method", "fdr",
            "--bootstrap-b", "100",
            "--seed", "0",
        ])


if __name__ == "__main__":
    main()
