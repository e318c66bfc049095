"""The supervised worker pool on its own: keyed tasks, callbacks and
the task-start channel (drain and sweep-point supervision is covered
by ``tests/dram/test_supervision.py`` and
``tests/cosim/test_checkpoint.py``)."""

from __future__ import annotations

import time

import pytest

from repro.dram.resilience import ResilienceReport
from repro.util.pool import SupervisedPool


def _double(x):
    return 2 * x


def _fail_on_odd(x):
    if x % 2:
        raise ValueError(f"odd {x}")
    return x


def test_keyed_run_calls_on_result_per_task():
    seen = {}
    with SupervisedPool(2) as pool:
        results, failed = pool.run(
            _double,
            {("a", 1): (1,), "b": (2,), 3: (3,)},
            ResilienceReport(),
            on_result=seen.__setitem__,
        )
    assert results == {("a", 1): 2, "b": 4, 3: 6}
    assert seen == results
    assert failed == []


def test_raising_task_fails_alone_after_retries():
    report = ResilienceReport()
    with SupervisedPool(2, max_retries=1, backoff_base=0.0) as pool:
        results, failed = pool.run(_fail_on_odd, {0: (0,), 1: (1,)}, report)
    assert results == {0: 0}
    assert failed == [1]
    assert report.task_retries == 1
    assert report.events[0].channel == 1


def test_task_announcements_do_not_pile_up_across_runs():
    """Workers announce every task they start; what a run leaves
    unread is dropped by the next, so a long-lived pool's channel
    cannot fill up and block its workers."""
    with SupervisedPool(2) as pool:
        for _ in range(5):
            # Task 1 finishes while the run waits on task 0, so both
            # are harvested before the run reads any announcement.
            pool.run(time.sleep, {0: (0.02,), 1: (0,)}, ResilienceReport())
        unread = 0
        while not pool._started.empty():
            pool._started.get()
            unread += 1
    assert unread <= 2


def test_pool_needs_two_workers():
    with pytest.raises(ValueError, match="workers >= 2"):
        SupervisedPool(1)
