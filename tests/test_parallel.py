import os
import threading
import time
import warnings
import weakref

import pytest

from vecfuse import parallel
from vecfuse.parallel import run_split, worker_count


def calls(offsets, workers, monkeypatch):
    """The (lo, hi) runs `run_split` calls at `workers` workers, and
    whether each ran on the calling thread."""
    monkeypatch.setattr(parallel, "worker_count", lambda: workers)
    seen = []
    lock = threading.Lock()

    def part(lo, hi):
        with lock:
            seen.append((lo, hi, threading.current_thread() is threading.main_thread()))

    run_split(part, offsets)
    return sorted(seen)


def test_worker_count_is_the_cpus_allowed_up_to_the_cap():
    assert 1 <= worker_count() <= parallel._MAX_WORKERS
    assert worker_count() == min(parallel._MAX_WORKERS, len(os.sched_getaffinity(0)))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("offsets", [[0, 4], [0, 1, 2, 3, 4, 5, 6, 7],
                                     [0, 10, 11, 12, 13, 14, 24], [0, 0, 0, 5], [0, 0, 0]])
def test_runs_cover_every_item_once_in_order(monkeypatch, workers, offsets):
    runs = calls(offsets, workers, monkeypatch)
    n = len(offsets) - 1
    assert [lo for lo, _hi, _main in runs] == [0] + [hi for _lo, hi, _main in runs[:-1]]
    assert runs[-1][1] == n
    assert len(runs) <= min(workers, n)
    # the first run on the calling thread, every other on its own
    assert [main for _lo, _hi, main in runs] == [True] + [False] * (len(runs) - 1)


def test_runs_are_about_equal_in_cost(monkeypatch):
    # items costing 10, 1, 1, 1, 1, 10: 12 each side
    assert calls([0, 10, 11, 12, 13, 14, 24], 2, monkeypatch) == [(0, 3, True),
                                                                   (3, 6, False)]
    # one costly item first: the second run takes the rest
    assert calls([0, 20, 21, 22, 23, 24, 25], 2, monkeypatch) == [(0, 1, True),
                                                                   (1, 6, False)]
    assert calls(list(range(0, 91, 10)), 3, monkeypatch) == [(0, 3, True), (3, 6, False),
                                                              (6, 9, False)]


def test_no_items_calls_nothing(monkeypatch):
    assert calls([0], 2, monkeypatch) == []


def test_one_worker_starts_no_thread(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 1)
    before = threading.active_count()
    seen = []
    run_split(lambda lo, hi: seen.append((lo, hi, threading.active_count())), [0, 1, 2, 3])
    assert seen == [(0, 3, before)]


class Boom(Exception):
    pass


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("failing", [0, 1, 2])
def test_exception_reaches_the_caller_after_every_run(monkeypatch, workers, failing):
    monkeypatch.setattr(parallel, "worker_count", lambda: workers)
    run_split(lambda lo, hi: None, [0, 1, 2, 3][:workers + 1])  # start the helpers
    before = threading.active_count()
    done = []
    lock = threading.Lock()

    def part(lo, hi):
        if lo == failing:
            raise Boom(lo)
        with lock:
            done.append(lo)

    if failing >= workers:
        run_split(part, [0, 1, 2, 3][:workers + 1])
        assert sorted(done) == list(range(workers))
        return
    with pytest.raises(Boom) as info:
        run_split(part, [0, 1, 2, 3][:workers + 1])
    assert info.value.args == (failing,)
    # every other run finished, and the call started no thread
    assert sorted(done) == [lo for lo in range(workers) if lo != failing]
    assert threading.active_count() == before
    # the helpers still serve
    assert calls([0, 1, 2, 3][:workers + 1], workers, monkeypatch) == [
        (lo, lo + 1, lo == 0) for lo in range(workers)]


def test_first_exception_in_run_order_wins(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 3)

    def part(lo, hi):
        raise (KeyError if lo == 1 else ValueError)(lo)

    with pytest.raises(ValueError):
        run_split(part, [0, 1, 2, 3])

    def later(lo, hi):
        if lo:
            raise (KeyError if lo == 1 else ValueError)(lo)

    with pytest.raises(KeyError):
        run_split(later, [0, 1, 2, 3])


def test_helpers_are_kept_and_reused(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 3)

    def runners():
        seen = {}
        run_split(lambda lo, hi: seen.__setitem__(lo, threading.get_ident()), [0, 1, 2, 3])
        return seen

    first = runners()
    before = threading.active_count()
    # run i + 1 goes to helper i every time, and no thread starts or ends
    for _ in range(5):
        assert runners() == first
    assert threading.active_count() == before
    assert first[0] == threading.get_ident()
    assert len(set(first.values())) == 3
    helpers = [t for t in threading.enumerate() if t.ident in (first[1], first[2])]
    assert len(helpers) == 2 and all(t.daemon for t in helpers)


def test_a_call_while_the_helpers_are_busy_runs_on_its_own_thread(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    inner = []

    def part(lo, hi):
        if lo == 0:
            # the helper is busy with run 1 of this call
            run_split(lambda lo, hi: inner.append((lo, hi, threading.get_ident())),
                      [0, 1, 2, 3])

    run_split(part, [0, 1, 2])
    assert inner == [(0, 3, threading.get_ident())]


def test_a_forked_child_starts_its_own_helpers(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    run_split(lambda lo, hi: None, [0, 1, 2])  # the parent has a helper
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
        pid = os.fork()
    if pid == 0:
        seen = []
        try:
            run_split(lambda lo, hi: seen.append(lo), [0, 1, 2])
        finally:
            os._exit(0 if sorted(seen) == [0, 1] else 1)
    deadline = time.monotonic() + 30
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child waited on its parent's helper")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status[1]) == 0


def test_no_helper_keeps_a_finished_call_alive(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 3)

    class Payload:
        pass

    payload = Payload()
    ref = weakref.ref(payload)
    run_split(lambda lo, hi, payload=payload: None, [0, 1, 2, 3])
    del payload
    assert ref() is None


def test_an_interrupted_wait_drops_the_busy_helper(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    release = threading.Event()

    def slow(lo, hi):
        if lo:
            release.wait(5)

    def interrupted(helper):
        raise KeyboardInterrupt

    real_wait = parallel._Helper.wait
    monkeypatch.setattr(parallel._Helper, "wait", interrupted)
    try:
        with pytest.raises(KeyboardInterrupt):
            run_split(slow, [0, 1, 2])
        monkeypatch.setattr(parallel._Helper, "wait", real_wait)
        # the helper still runs `slow`; the next call waits for a new one
        done = []
        run_split(lambda lo, hi: done.append(lo), [0, 1, 2])
        assert sorted(done) == [0, 1]
    finally:
        release.set()
