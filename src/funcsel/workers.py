"""Two workers over a job's independent items, where they can each have a CPU.

:func:`map_on_workers` runs a task on each item of an iterable: the calling
thread and, where :func:`two_workers` allows, one helper thread each take
the next item under one lock and run it with a state of their own. The
Monte Carlo replications of :mod:`funcsel.simgen` and the resample batches
of :mod:`funcsel.bootstrap` both run through it. Results come back in item
order, so no bit of a result depends on which worker ran what.

The policy is one rule for both jobs. Two workers run only where the process
may use two CPUs and the environment pins numpy's OpenBLAS to one thread.
An OpenBLAS left to its own thread count runs each fit's QR on every CPU and
keeps its idle threads spinning after each call, so the two workers contend
with it and ran slower than one. funcsel sets no thread count itself; a
caller that pins threads some other way only loses the second worker,
never a bit.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Iterable, TypeVar

__all__ = ["two_workers", "map_on_workers"]

Item = TypeVar("Item")
State = TypeVar("State")
Result = TypeVar("Result")


def two_workers() -> bool:
    """Whether :func:`map_on_workers` starts a helper thread: only where the
    process may use two CPUs or more and numpy's OpenBLAS runs one thread,
    that is where the variable OpenBLAS honours, ``OPENBLAS_NUM_THREADS`` if
    set and not empty, else ``OMP_NUM_THREADS``, equals 1. Where ``os`` has
    no ``sched_getaffinity`` (macOS, Windows), the machine's CPU count stands
    in for the process's."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    environ = os.environ
    blas_threads = environ.get("OPENBLAS_NUM_THREADS") or environ.get("OMP_NUM_THREADS") or ""
    return cpus >= 2 and blas_threads.strip() == "1"


def map_on_workers(
    task: Callable[[Item, State], Result],
    items: Iterable[Item],
    state: State,
    new_state: Callable[[], State],
) -> list[Result]:
    """``task(item, state)`` for each item of ``items``, in item order.

    The calling thread works with ``state``. Where :func:`two_workers`
    allows, a helper thread works beside it with ``new_state()``, which is
    called only then, just before the helper starts. Each worker takes the
    next item of ``items`` under one lock, so an iterator that draws random
    numbers draws them in order whoever takes them. An exception from a task
    or from ``items`` stops the other worker before its next item and is
    raised here, once the helper is joined; a task that can fail without
    ending the job returns its failure instead.
    """
    numbered = enumerate(items)
    take = threading.Lock()
    results: dict[int, Result] = {}
    errors: list[BaseException] = []

    def work(state: State) -> None:
        try:
            while not errors:
                with take:
                    i, item = next(numbered, (None, None))
                if i is None:
                    return
                results[i] = task(item, state)
        except BaseException as exc:  # raised on the calling thread below
            errors.append(exc)

    helper = None
    if two_workers():
        helper = threading.Thread(target=work, args=(new_state(),), daemon=True)
        helper.start()
    try:
        work(state)
    finally:
        if helper is not None:
            helper.join()
    if errors:
        raise errors[0]
    return [results[i] for i in range(len(results))]
