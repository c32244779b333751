"""The two-worker policy, and the bootstrap's resample batches on two workers."""

import os
import sys
import threading

import numpy as np
import pytest

from funcsel import bootstrap, workers
from funcsel.bootstrap import _resample_indices, bootstrap_counts, sample_qr
from funcsel.seeds import rng_for
from funcsel.selection import selection_mask
from funcsel.simgen import SimScenario

from conftest import synthetic_design

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def set_blas_environment(monkeypatch, environment):
    for name in BLAS_VARIABLES:
        if name in environment:
            monkeypatch.setenv(name, environment[name])
        else:
            monkeypatch.delenv(name, raising=False)


class TestTwoWorkersPolicy:
    """Two workers only where the process may use two CPUs and numpy's
    OpenBLAS runs one thread: ``OPENBLAS_NUM_THREADS`` if set, else
    ``OMP_NUM_THREADS``, equal to 1."""

    @pytest.mark.parametrize(
        "environment, expected",
        [
            ({"OPENBLAS_NUM_THREADS": "1"}, True),
            ({"OPENBLAS_NUM_THREADS": "2"}, False),
            ({}, False),
            ({"OMP_NUM_THREADS": "1"}, True),
            ({"OMP_NUM_THREADS": "2"}, False),
            ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
            ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, True),
            # OpenBLAS reads an empty variable as unset
            ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, True),
        ],
        ids=["openblas_1", "openblas_2", "unset", "omp_1", "omp_2", "openblas_2_omp_1",
             "openblas_1_omp_2", "openblas_empty_omp_1"],
    )
    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_environment_and_cpus(self, monkeypatch, environment, expected, cpus):
        set_blas_environment(monkeypatch, environment)
        affinity = set(range(cpus))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        assert workers.two_workers() is (expected and cpus >= 2)

    @pytest.mark.parametrize("count, expected", [(2, True), (1, False), (None, False)])
    @pytest.mark.parametrize("pinned", [True, False])
    def test_cpu_count_without_sched_getaffinity(self, monkeypatch, count, expected, pinned):
        # macOS and Windows have no os.sched_getaffinity: the machine's CPU
        # count, which may be unknown, stands in for the process's
        set_blas_environment(monkeypatch, {"OPENBLAS_NUM_THREADS": "1" if pinned else "2"})
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert workers.two_workers() is (expected and pinned)


@pytest.fixture(scope="module")
def sample():
    """A c = 0.4, n = 300 synthetic design: k = 37, 76 resamples a batch."""
    design, y, _, _ = synthetic_design(SimScenario(c=0.4, n=300, seed=0))
    return design, y


def serial_counts(design, y, b, seed):
    """Selection counts of each method and failed resamples, from one loop
    over the batches of ``bootstrap_counts`` on the calling thread."""
    qr = sample_qr(design, y)
    selected = {method: np.zeros(design.num_predictors, dtype=int) for method in ("bc", "fdr")}
    failed = 0
    for idx in _resample_indices(rng_for(seed, 0), design.n, b, qr.batch):
        _, p_values = bootstrap.test_resamples(qr, idx)
        fitted = ~np.isnan(p_values[:, 0])
        failed += int(np.count_nonzero(~fitted))
        for method in selected:
            selected[method] += selection_mask(method, p_values[fitted], 0.05).sum(axis=0)
    return selected, failed


class TestBootstrapWorkers:
    """Where :func:`funcsel.workers.two_workers` allows, a helper thread tests
    resample batches beside the calling thread, each batch drawn in stream
    order under one lock; neither way may move a count."""

    @staticmethod
    def record_batches(monkeypatch, helper, meet=True):
        """Force the second worker on or off, and return the list that gets
        the (first row index, thread) of every batch tested. With the second
        worker on and ``meet``, each worker's first batch waits at a barrier
        for the other's, so that both workers test a batch."""
        monkeypatch.setattr(workers, "two_workers", lambda: helper)
        test_resamples, tested, met = bootstrap.test_resamples, [], set()
        barrier = threading.Barrier(2, timeout=30)

        def recording_test_resamples(qr, idx):
            thread = threading.current_thread()
            tested.append((int(idx[0, 0]), thread))
            if helper and meet and thread not in met:
                met.add(thread)
                barrier.wait()
            return test_resamples(qr, idx)

        monkeypatch.setattr(bootstrap, "test_resamples", recording_test_resamples)
        return tested

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_counts_match_serial_loop(self, monkeypatch, sample, seed):
        # 75 and 77 resamples sit either side of one full batch of 76
        design, y = sample
        for b in (1, 75, 77, 200, 2000):
            expected, expected_failed = serial_counts(design, y, b, seed)
            for helper in (True, False):
                monkeypatch.setattr(workers, "two_workers", lambda: helper)
                for method in ("bc", "fdr"):
                    selected, failed = bootstrap_counts(design, y, method, 0.05, b, seed)
                    assert failed == expected_failed
                    assert selected.dtype == expected[method].dtype
                    np.testing.assert_array_equal(
                        selected, expected[method], err_msg=f"b={b} {method} helper={helper}"
                    )

    @pytest.mark.parametrize("helper", [True, False])
    def test_both_workers_test_batches(self, monkeypatch, sample, helper):
        design, y = sample
        expected, expected_failed = serial_counts(design, y, 200, 3)
        tested = self.record_batches(monkeypatch, helper)
        selected, failed = bootstrap_counts(design, y, "fdr", 0.05, 200, 3)
        np.testing.assert_array_equal(selected, expected["fdr"])
        assert failed == expected_failed
        # each of the three batches tested once
        batches = _resample_indices(rng_for(3, 0), design.n, 200, sample_qr(design, y).batch)
        first_rows = [int(idx[0, 0]) for idx in batches]
        assert len(first_rows) == 3
        assert sorted(row for row, _ in tested) == sorted(first_rows)
        threads = {thread for _, thread in tested}
        assert threading.current_thread() in threads
        assert len(threads) == (2 if helper else 1)

    @pytest.mark.parametrize("helper", [True, False])
    def test_helper_work_allocated_only_when_it_starts(self, monkeypatch, sample, helper):
        # the helper's temporaries are its own; one worker needs only the
        # ones that sample_qr makes
        design, y = sample
        monkeypatch.setattr(workers, "two_workers", lambda: helper)
        batch_work, made = bootstrap._batch_work, []

        def counting_batch_work(*args):
            made.append(batch_work(*args))
            return made[-1]

        monkeypatch.setattr(bootstrap, "_batch_work", counting_batch_work)
        bootstrap_counts(design, y, "bc", 0.05, 200, 1)
        assert len(made) == (2 if helper else 1)
        assert len({id(work.h) for work in made}) == len(made)

    @pytest.mark.parametrize("where", ["draws", "tests"])
    @pytest.mark.parametrize("helper", [True, False])
    def test_error_reaches_caller_and_helper_is_joined(self, sample, helper, where):
        # an error on either worker, in a batch's draws or in its tests,
        # stops the other worker before its next batch, reaches the caller,
        # and leaves no thread running
        design, y = sample
        caller = threading.current_thread()
        for on_caller in (True, False) if helper else (True,):
            with pytest.MonkeyPatch.context() as patch:
                tested = self.record_batches(patch, helper)
                calls = []
                if where == "draws":
                    draws = bootstrap._resample_indices

                    def failing_draws(*args):
                        for idx in draws(*args):
                            if (threading.current_thread() is caller) is on_caller:
                                calls.append(None)
                                if len(calls) == 2:  # the worker's second batch
                                    raise RuntimeError("draws failed")
                            yield idx

                    patch.setattr(bootstrap, "_resample_indices", failing_draws)
                else:
                    test_resamples = bootstrap.test_resamples

                    def failing_tests(qr, idx):
                        if (threading.current_thread() is caller) is on_caller:
                            calls.append(None)
                            if len(calls) == 2:
                                raise RuntimeError("tests failed")
                        return test_resamples(qr, idx)

                    patch.setattr(bootstrap, "test_resamples", failing_tests)
                before = threading.active_count()
                with pytest.raises(RuntimeError, match=f"{where} failed"):
                    bootstrap_counts(design, y, "bc", 0.05, 2000, 0)
                assert threading.active_count() == before
                assert len(tested) < 27  # the job's 27 batches were not all tested

    def test_two_jobs_at_once(self, monkeypatch, sample):
        # two jobs on threads of their own, each with its second worker: four
        # busy threads on two CPUs, switching as often as the interpreter
        # allows, and each job's batches drawn in its own stream's order
        design, y = sample
        seeds = (4, 5)
        monkeypatch.setattr(workers, "two_workers", lambda: False)
        serial = [bootstrap_counts(design, y, "fdr", 0.05, 400, seed) for seed in seeds]
        monkeypatch.setattr(workers, "two_workers", lambda: True)
        results, errors = [None] * len(seeds), []

        def run(k):
            try:
                results[k] = bootstrap_counts(design, y, "fdr", 0.05, 400, seeds[k])
            except BaseException as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runners = [threading.Thread(target=run, args=(k,)) for k in range(len(seeds))]
            for runner in runners:
                runner.start()
            for runner in runners:
                runner.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(runner.is_alive() for runner in runners)
        assert errors == []
        for (selected, failed), (expected, expected_failed) in zip(results, serial):
            np.testing.assert_array_equal(selected, expected)
            assert failed == expected_failed
