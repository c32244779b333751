"""Compare two sets of benchmark results, flagging any change of environment.

Usage, from the repository root::

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds ``result.json`` files written by ``run.py`` (at any
depth, e.g. copies of ``.bench_out``). For every workload and metric it
prints both sides' median and quartiles over their runs and the change of
the median. If the environment records differ (seed aside), the differences
are printed first and the command exits 1, so a cross-machine or
cross-library comparison is never reported as if it were like for like.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory: str) -> tuple[dict, list[dict]]:
    series: dict = defaultdict(list)
    envs = []
    for path in sorted(Path(directory).rglob("result.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        envs.append({k: v for k, v in record["environment"].items() if k != "workload_seed"})
        for name, metric in record["metrics"].items():
            series[(record["workload"], name, metric["unit"])].append(metric["value"])
    return series, envs


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g} (1 run)"
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] ({len(values)} runs)"


def main(base_dir: str, new_dir: str) -> int:
    base, base_envs = load(base_dir)
    new, new_envs = load(new_dir)
    envs = base_envs + new_envs
    mismatched = sorted({k for env in envs for k in env if env.get(k) != envs[0].get(k)})
    for key in mismatched:
        seen = sorted({json.dumps(env.get(key), sort_keys=True) for env in envs})
        print(f"ENVIRONMENT DIFFERS in {key}: {' vs '.join(seen)}")
    for key in sorted(base.keys() & new.keys()):
        workload, name, unit = key
        before, after = statistics.median(base[key]), statistics.median(new[key])
        change = f"{after / before - 1:+.2%}" if before else "n/a"
        print(f"{workload:<14} {name:<40} {unit:<6} "
              f"{summary(base[key])}  ->  {summary(new[key])}  {change}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
