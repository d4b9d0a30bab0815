"""Independent row work split across threads.

A caller cuts its work into items (tiles or row blocks) whose shape never
depends on the worker count, and `run_split` runs contiguous runs of
them, one run per worker. Each item is computed by the same calls
whatever run it falls in, so the output bits do not depend on the worker
count either. numpy drops the interpreter lock in the calls that matter
(matmul, argpartition, cast assignment), so threads use the cores.

The threads beyond the calling one are started on first need and then
kept, idle, for the life of the process. Threads started and joined per
call made the peak memory vary: `Thread.join` returns before the OS
thread is gone, glibc frees a thread's malloc arena for reuse only then,
so the next call's thread sometimes took a fresh arena, and each arena
keeps about 3 MB of freed pages resident. With both CPUs of a 2-vCPU
host busy elsewhere, the peak RSS of the `fuse_two_source` benchmark
child read 51.4-55.0 MB from one run to the next; with kept threads,
51.8-52.4 MB. A kept thread keeps one arena.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left

# The most workers a run starts. Only 2 have been measured (on a 2-vCPU
# host); raising it waits for a measurement on a host with more cores.
_MAX_WORKERS = 2


class _Helper:
    """A daemon thread that runs the jobs handed to it, one at a time."""

    def __init__(self):
        self._job = None
        self._go = threading.Lock()
        self._go.acquire()
        self._done = threading.Lock()
        self._done.acquire()
        threading.Thread(target=self._serve, name="vecfuse-worker", daemon=True).start()

    def _serve(self):
        while True:
            self._go.acquire()
            # drop the job before the next, so no array it holds outlives its call
            job, self._job = self._job, None
            job()
            del job
            self._done.release()

    def start(self, job):
        self._job = job
        self._go.release()

    def wait(self):
        self._done.acquire()


# Helper i runs run i + 1 of every call; `_pool_lock` is held by the one
# call using them, and a call that finds it held runs on its own thread.
_helpers = []
_pool_lock = threading.Lock()
if hasattr(os, "register_at_fork"):  # a forked child has none of its parent's threads
    os.register_at_fork(after_in_child=_helpers.clear)


def worker_count() -> int:
    """Threads a run uses: the CPUs this process may run on, at most
    `_MAX_WORKERS`."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        cpus = os.cpu_count() or 1
    return min(_MAX_WORKERS, cpus)


def run_split(part, offsets) -> None:
    """Call `part(lo, hi)` for contiguous runs of items lo..hi-1 that
    together cover every item once, about equal in cost: item i costs
    offsets[i + 1] - offsets[i]. The first run goes on the calling thread
    and each other on a helper thread; at one worker, or while another
    call holds the helpers, `part(0, n)` runs on the calling thread alone.
    Every run has finished before this returns, and then the first
    exception of any run, in run order, is raised."""
    n = len(offsets) - 1
    workers = min(worker_count(), n)
    if workers < 1:
        return
    if workers == 1 or not _pool_lock.acquire(blocking=False):
        part(0, n)
        return
    busy = []
    try:
        cuts = [0, *(bisect_left(offsets, offsets[-1] * j / workers)
                     for j in range(1, workers)), n]
        runs = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
        errors = [None] * len(runs)

        def run(i):
            try:
                part(*runs[i])
            except BaseException as exc:  # re-raised in the caller, after every run
                errors[i] = exc

        while len(_helpers) < len(runs) - 1:
            _helpers.append(_Helper())
        for i, helper in enumerate(_helpers[:len(runs) - 1], start=1):
            helper.start(lambda i=i: run(i))
            busy.append(helper)
        run(0)
        while busy:
            busy[0].wait()
            del busy[0]
    finally:
        # a wait cut short (a KeyboardInterrupt) leaves its helper running:
        # drop it, so that no later call hands it a second job
        for helper in busy:
            _helpers.remove(helper)
        _pool_lock.release()
    for exc in errors:
        if exc is not None:
            raise exc
