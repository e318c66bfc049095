"""The one supervised worker pool.

:class:`SupervisedPool` runs independent, idempotent tasks over a
persistent ``multiprocessing`` pool and does not trust it: a task that
raises is resubmitted with deterministic bounded exponential backoff;
a worker that dies (OOM kill, SIGKILL, segfault) shows up as a change
in the pool's worker-pid set, and a task past ``task_timeout`` as a
missed deadline -- either way the pool is respawned and every
outstanding task resubmitted.  Workers announce the task they start,
so only the task a dead worker was running is charged an attempt; a
task that exhausts ``max_retries`` is returned as failed while the
rest run on.  Recovery actions are recorded in the caller's
:class:`~repro.dram.resilience.ResilienceReport`.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
import time
from typing import Callable, Hashable, Optional

from repro.dram.resilience import (
    KIND_POOL_RESPAWN,
    KIND_TASK_RETRY,
    KIND_TASK_TIMEOUT,
    KIND_WORKER_DEATH,
)

logger = logging.getLogger(__name__)


class PoolError(RuntimeError):
    """A pool failure supervision cannot recover from: the pool could
    not be (re)created, or a task's workers kept dying."""


#: Worker end of the pool's task-start channel (set by _init_worker).
_STARTED = None


def _init_worker(started) -> None:
    """Pool initializer: keep the start channel and restore default
    SIGINT/SIGTERM handling.  A forked worker inherits a checkpointing
    sweep's raising interrupt handler, which would turn the pool's
    shutdown SIGTERM into a traceback on stderr."""
    global _STARTED
    _STARTED = started
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, signal.SIG_DFL)


def _run_task(key, fn, args):
    """Announce ``key`` as this worker's current task, then run it."""
    _STARTED.put((os.getpid(), key))
    return fn(*args)


class SupervisedPool:
    """Persistent worker pool with supervised task execution.

    The pool itself is created on first use and survives across
    :meth:`run` calls; :meth:`close` shuts it down, and the next run
    creates a fresh one.
    """

    def __init__(
        self,
        workers: int,
        start_method: Optional[str] = None,
        task_timeout: Optional[float] = None,
        max_retries: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        poll_interval: float = 0.05,
    ) -> None:
        workers = int(workers)
        if workers < 2:
            raise ValueError("a worker pool needs workers >= 2")
        methods = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else "spawn"
        elif start_method not in methods:
            raise ValueError(
                f"start method {start_method!r} unavailable (have {methods})"
            )
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if backoff_base < 0 or backoff_cap < 0:
            raise ValueError("backoff must be non-negative")
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self.workers = workers
        self.start_method = start_method
        #: wall-clock budget per task *attempt*; ``None`` disables the
        #: timeout (worker-death detection still covers kill/crash).
        self.task_timeout = task_timeout
        #: resubmits per task before it is returned as failed
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.poll_interval = poll_interval
        self._ctx = multiprocessing.get_context(start_method)
        self._pool = None
        self._started = None

    def _ensure_pool(self):
        if self._pool is None:
            try:
                # A fresh start channel per pool: a worker killed
                # mid-put may leave the old one's write lock held.
                self._started = self._ctx.SimpleQueue()
                self._pool = self._ctx.Pool(
                    self.workers, initializer=_init_worker, initargs=(self._started,)
                )
            except Exception as exc:
                raise PoolError(f"cannot create worker pool: {exc}") from exc
        return self._pool

    def _pool_pids(self) -> Optional[frozenset]:
        """Pids of the live pool workers (None when unobservable).

        ``Pool`` silently replaces dead workers, and the dead worker's
        task never returns: the changed pid set is the only portable
        sign of a death.  A stdlib without ``Pool._pool`` degrades to
        timeout-only supervision."""
        procs = getattr(self._pool, "_pool", None)
        return None if procs is None else frozenset(p.pid for p in procs)

    def _read_started(self, running: dict) -> None:
        """Move worker task announcements into ``running`` (pid -> key)."""
        while not self._started.empty():
            pid, key = self._started.get()
            running[pid] = key

    def backoff_seconds(self, attempt: int) -> float:
        """Deterministic bounded exponential backoff before resubmit
        ``attempt`` (1-based): base * 2^(attempt-1), capped."""
        return min(self.backoff_base * (2 ** max(attempt - 1, 0)), self.backoff_cap)

    def run(
        self,
        fn: Callable,
        tasks: dict,
        resilience,
        on_result: Optional[Callable[[Hashable, object], None]] = None,
    ) -> tuple[dict, list]:
        """Run ``fn(*args)`` for every ``key: args`` of ``tasks``.

        Keys are any hashable and name the task in resilience events
        (both callers use int indices).  Tasks must be idempotent,
        since a respawn resubmits them.  ``on_result(key, value)`` runs
        in the parent as each task completes.  Returns ``(results,
        failed)``: results by key, and the keys that exhausted
        ``max_retries``.  Raises :class:`PoolError` only when the pool
        itself cannot be (re)created.
        """
        results: dict = {}
        failed: list = []
        attempts = {key: 1 for key in tasks}
        pending: dict = {}
        deadlines: dict = {}
        running: dict = {}  # worker pid -> key of the task it started

        def submit(key):
            pending[key] = self._ensure_pool().apply_async(
                _run_task, (key, fn, tasks[key])
            )
            if self.task_timeout is not None:
                deadlines[key] = time.monotonic() + self.task_timeout

        def retry_or_fail(keys, reason):
            ready = []
            backoff = 0.0
            for key in keys:
                pending.pop(key, None)
                deadlines.pop(key, None)
                if attempts[key] > self.max_retries:
                    failed.append(key)
                    logger.error("task %r gave up: %s", key, reason)
                    continue
                b = self.backoff_seconds(attempts[key])
                resilience.record(
                    KIND_TASK_RETRY,
                    channel=key,
                    attempt=attempts[key] + 1,
                    backoff_seconds=b,
                    detail=reason,
                )
                backoff = max(backoff, b)
                ready.append(key)
            if ready and backoff > 0:
                time.sleep(backoff)
            for key in ready:
                attempts[key] += 1
                submit(key)

        self._ensure_pool()
        # Drop what an earlier run's last tasks announced after its
        # final read, so the channel never fills up across runs.
        self._read_started({})
        known_pids = self._pool_pids()

        def respawn_and_resubmit(culprits, reason):
            """Respawn the pool; charge ``culprits`` an attempt and
            resubmit every other outstanding task as it was."""
            nonlocal known_pids
            bystanders = [key for key in pending if key not in culprits]
            pending.clear()
            deadlines.clear()
            running.clear()
            resilience.record(KIND_POOL_RESPAWN, detail=reason)
            self.close()  # the old pool may be wedged: terminate it
            self._ensure_pool()
            known_pids = self._pool_pids()
            for key in bystanders:
                submit(key)
            retry_or_fail(culprits, reason)

        for key in tasks:
            submit(key)
        while pending:
            # Block briefly on one in-flight task, then harvest every
            # completion -- cheaper than a busy poll, still bounded so
            # death/timeout checks below run regularly.
            next(iter(pending.values())).wait(self.poll_interval)
            for key in [k for k, ar in pending.items() if ar.ready()]:
                ar = pending.pop(key)
                deadlines.pop(key, None)
                try:
                    results[key] = ar.get(0)
                except Exception as exc:
                    retry_or_fail([key], f"worker raised {exc!r}")
                    continue
                if on_result is not None:
                    on_result(key, results[key])
            if not pending:
                break
            self._read_started(running)
            current = self._pool_pids()
            if None not in (known_pids, current) and current != known_pids:
                gone = sorted(known_pids - current)
                resilience.record(
                    KIND_WORKER_DEATH, detail=f"pool worker(s) died (pids {gone} gone)"
                )
                # A death before its worker announced a task cannot be
                # pinned on one: charge everything outstanding.
                culprits = [running[p] for p in gone if running.get(p) in pending]
                respawn_and_resubmit(
                    culprits or list(pending), "worker death; pool respawned"
                )
                continue
            now = time.monotonic()
            expired = [key for key, dl in deadlines.items() if now >= dl]
            if expired:
                for key in expired:
                    resilience.record(
                        KIND_TASK_TIMEOUT,
                        channel=key,
                        attempt=attempts[key],
                        detail=f"no result within {self.task_timeout:.3f}s",
                    )
                respawn_and_resubmit(expired, "task timeout; pool respawned")
        return results, failed

    def close(self) -> None:
        """Shut the pool down; the pool can be reused afterwards (a
        fresh one is created on the next run)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass
