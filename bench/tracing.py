"""Per-layer tracing installed from outside the package.

A :class:`Tracer` replaces chosen package functions with timing wrappers
at every module attribute that binds them (for example both
``funcsel.cli.fit_ols`` and ``funcsel.simgen.fit_ols``), so calls made
through any of those names are seen. It also counts direct calls to the
dense linear-algebra entry points. Nothing under the package's source
changes; :meth:`Tracer.uninstall` puts every original back.

A name that no longer exists in the package is skipped, so after a
refactor its span reads as 0 calls instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import pkgutil
import time
from collections import defaultdict

# "<module>.<function>" under the funcsel package; the prefix is the layer.
SPANS = (
    "cli.main",
    "cli.ingest_long_csv",
    "simgen.generate_replication",
    "smoothing.build_dataset",
    "smoothing.smooth_curve",
    "bspline.evaluate_basis_matrix",
    "bspline.gram_matrix",
    "design.build_design",
    "linmodel.fit_ols",
    "linmodel.fit_restricted",
    "inference.test_predictor",
    "selection.select_fdr",
    "selection.select_bonferroni",
)
# (module, function) pairs whose direct calls are counted per job
LINALG = (
    ("numpy.linalg", "qr"),
    ("numpy.linalg", "svd"),
    ("numpy.linalg", "solve"),
    ("numpy.linalg", "lstsq"),
    ("numpy.linalg", "pinv"),
    ("scipy.linalg", "solve_triangular"),
)


class Tracer:
    """Spans ``(id, name, start, end, parent id, job id)`` kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.linalg: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.job: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _span_wrapper(self, name, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, name, start, end, parent, self.job)

        return wrapper

    def _count_wrapper(self, name, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.linalg[self.job][name] += 1
            return func(*args, **kwargs)

        return wrapper

    def _patch(self, module, attr, value):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        """Wrap every binding of the span functions and the linear-algebra calls."""
        package = importlib.import_module("funcsel")
        modules = [package] + [
            importlib.import_module(f"funcsel.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        by_name = {module.__name__: module for module in modules}
        for span in SPANS:
            module_name, attr = span.split(".")
            target = getattr(by_name.get(f"funcsel.{module_name}"), attr, None)
            if target is None:
                continue
            wrapper = self._span_wrapper(span, target)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is target:
                        self._patch(module, key, wrapper)
        for module_name, attr in LINALG:
            module = importlib.import_module(module_name)
            target = getattr(module, attr, None)
            if target is not None:
                self._patch(module, attr, self._count_wrapper(attr, target))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, value = self._restore.pop()
            setattr(module, attr, value)

    def write(self, path: str) -> None:
        """Write the spans as gzipped JSON lines: id, name, start, end, parent, job."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def job_profile(own, job_seconds: float) -> dict[str, float]:
    """Calls and self milliseconds per span name for one job's spans.

    A span's self time is its duration minus the durations of its direct
    children; ``other.self_ms`` is the job's wall time that no top-level span
    covers.
    """
    child_time: dict[int, float] = defaultdict(float)
    top = 0.0
    for _, _, start, end, parent, _ in own:
        if parent is None:
            top += end - start
        else:
            child_time[parent] += end - start
    profile = {f"{name}.{kind}": 0.0 for name in SPANS for kind in ("calls", "self_ms")}
    for span_id, name, start, end, _, _ in own:
        profile[f"{name}.calls"] += 1
        profile[f"{name}.self_ms"] += 1e3 * (end - start - child_time[span_id])
    profile["other.self_ms"] = 1e3 * (job_seconds - top)
    return profile
