"""Parallel per-channel drain execution for :class:`MemoryController`.

DRAM channels share no timing state -- the controller already drains
them one at a time through the self-contained
:meth:`~repro.dram.controller.MemoryController._drain_channel` loop
and merges stats afterwards.  This module fans those independent
drains out over a persistent ``multiprocessing`` pool:

- the parent copies the arrival-sorted column arrays (flat bank index,
  row, column, is-write, arrive-cycle) into one shared-memory block
  and allocates a second for the per-request outputs;
- each worker attaches by name (``np.frombuffer`` views, zero-copy),
  slices its channel's ``[lo, hi)`` rows, replays the exact serial
  drain loop on a worker-cached controller whose channel was seeded
  with the parent channel's state, and writes ``first`` / ``complete``
  / ``hit`` into the output block;
- the worker ships back a :class:`ChannelState` snapshot plus its
  stat deltas, and the parent applies snapshots / sums counters in
  channel-index order.

Determinism: every worker runs the identical ``_drain_channel`` code
on identical inputs, the output arrays land at fixed offsets, and the
merged counters are order-independent integer sums -- so the parallel
path is *bit-identical* to the serial one (pinned by
``tests/dram/test_parallel.py``) and the speedup is bounded only by
channel count and cores.

Start methods: ``fork`` is preferred where available (cheap workers,
no import re-execution); everything shipped to workers -- the module
-level :func:`_drain_worker`, pickled ``(config, policy, window,
starvation_cap)`` parameters, and :class:`ChannelState` -- is
picklable, so the same code runs under ``spawn`` (macOS/Windows or
``start_method="spawn"``) unchanged.

Supervision: :meth:`ParallelDrainExecutor.drain` does not trust the
pool.  Each per-channel task is submitted asynchronously and watched:
a task that raises is resubmitted with deterministic bounded
exponential backoff; a worker that dies (OOM kill, SIGKILL, segfault)
is detected by the pool's worker-pid set changing, after which the
pool is respawned and every outstanding task resubmitted; a task that
exceeds ``task_timeout`` triggers the same respawn.  A task that
exhausts ``max_retries`` is drained *serially in the parent* on the
same shared-memory blocks -- the channels are independent, so one
poisoned channel degrades to serial while the rest stay parallel.
Every recovery action is recorded in the
:class:`~repro.dram.resilience.ResilienceReport` attached to the
run's ``ControllerStats`` and logged on ``repro.resilience``.  The
drain is transactional: channel states and caller-visible stats are
only touched once every channel has a result, so an unrecoverable
failure (:class:`ParallelDrainError`) leaves the controller exactly
as it was and the caller can rerun the whole drain serially.
"""

from __future__ import annotations

import logging
import multiprocessing
import pickle
import signal
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional

import numpy as np

from repro.dram.resilience import (
    KIND_POOL_RESPAWN,
    KIND_SERIAL_FALLBACK,
    KIND_TASK_RETRY,
    KIND_TASK_TIMEOUT,
    KIND_WORKER_DEATH,
    ResilienceReport,
)

logger = logging.getLogger(__name__)


class ParallelDrainError(RuntimeError):
    """The parallel drain could not complete even with supervision
    (e.g. the pool cannot be (re)created).  The drain is transactional,
    so the controller is untouched and the caller falls back to the
    serial path."""

_I8 = np.dtype("<i8").itemsize

#: Input block layout: four int64 columns then one uint8 column.
_IN_BYTES_PER_ROW = 4 * _I8 + 1
#: Output block layout: two int64 columns then one uint8 column.
_OUT_BYTES_PER_ROW = 2 * _I8 + 1


def _input_views(buf, n: int):
    """(bf, row, col, arr, iswr) views over the input block."""
    bf = np.frombuffer(buf, dtype=np.int64, count=n, offset=0)
    row = np.frombuffer(buf, dtype=np.int64, count=n, offset=n * _I8)
    col = np.frombuffer(buf, dtype=np.int64, count=n, offset=2 * n * _I8)
    arr = np.frombuffer(buf, dtype=np.int64, count=n, offset=3 * n * _I8)
    iswr = np.frombuffer(buf, dtype=np.uint8, count=n, offset=4 * n * _I8)
    return bf, row, col, arr, iswr


def _output_views(buf, n: int):
    """(first, complete, hit) views over the output block."""
    first = np.frombuffer(buf, dtype=np.int64, count=n, offset=0)
    complete = np.frombuffer(buf, dtype=np.int64, count=n, offset=n * _I8)
    hit = np.frombuffer(buf, dtype=np.uint8, count=n, offset=2 * n * _I8)
    return first, complete, hit


@dataclass
class ChannelState:
    """Picklable snapshot of one channel's scheduler-visible state.

    Captured from the parent before a drain is shipped out, applied to
    the worker-cached controller's channel so the drain starts exactly
    where the parent's channel left off, then captured again after the
    drain and applied back to the parent -- repeated ``simulate`` calls
    on one controller stay bit-identical to the serial path.  Bank
    ``row_hits`` are carried as absolute counters, so the worker's
    in-place increments transfer without separate delta bookkeeping.
    """

    cmd_bus_next: int
    data_bus_next: int
    last_col_cycle: int
    last_col_bankgroup: int
    last_was_write: bool
    read_after_write_ok: int
    last_act_cycle: int
    act_history: list
    open_rows: list
    earliest_act: list
    earliest_pre: list
    earliest_col: list
    row_hits: list

    @classmethod
    def capture(cls, channel) -> "ChannelState":
        return cls(
            cmd_bus_next=channel._cmd_bus_next,
            data_bus_next=channel._data_bus_next,
            last_col_cycle=channel._last_col_cycle,
            last_col_bankgroup=channel._last_col_bankgroup,
            last_was_write=channel._last_was_write,
            read_after_write_ok=channel._read_after_write_ok,
            last_act_cycle=channel._last_act_cycle,
            act_history=list(channel._act_history),
            open_rows=[b.open_row for b in channel.banks],
            earliest_act=[b.earliest_act for b in channel.banks],
            earliest_pre=[b.earliest_pre for b in channel.banks],
            earliest_col=[b.earliest_col for b in channel.banks],
            row_hits=[b.row_hits for b in channel.banks],
        )

    def apply(self, channel) -> None:
        channel._cmd_bus_next = self.cmd_bus_next
        channel._data_bus_next = self.data_bus_next
        channel._last_col_cycle = self.last_col_cycle
        channel._last_col_bankgroup = self.last_col_bankgroup
        channel._last_was_write = self.last_was_write
        channel._read_after_write_ok = self.read_after_write_ok
        channel._last_act_cycle = self.last_act_cycle
        channel._act_history.clear()
        channel._act_history.extend(self.act_history)
        for bank, orow, eact, epre, ecol, hits in zip(
            channel.banks,
            self.open_rows,
            self.earliest_act,
            self.earliest_pre,
            self.earliest_col,
            self.row_hits,
        ):
            bank.open_row = orow
            bank.earliest_act = eact
            bank.earliest_pre = epre
            bank.earliest_col = ecol
            bank.row_hits = hits


def _reset_worker_signals() -> None:
    """Pool initializer: restore default SIGINT/SIGTERM handling.

    Forked workers inherit the parent's handlers -- including a
    sweep's interrupt handler, which raises on SIGTERM.  The pool
    SIGTERMs its workers on shutdown, and an inherited raising
    handler turns that into a traceback on stderr."""
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, signal.SIG_DFL)


#: Worker-process cache: one controller per distinct parameter blob,
#: reused across tasks so channel/mapper construction is paid once.
_WORKER_CONTROLLERS: dict = {}


def _worker_controller(params: bytes):
    controller = _WORKER_CONTROLLERS.get(params)
    if controller is None:
        from repro.dram.controller import MemoryController

        config, policy, window, starvation_cap = pickle.loads(params)
        controller = MemoryController(
            config, policy=policy, window=window, starvation_cap=starvation_cap
        )
        _WORKER_CONTROLLERS[params] = controller
    return controller


def _drain_worker(
    params: bytes,
    channel_index: int,
    in_name: str,
    n: int,
    lo: int,
    hi: int,
    out_name: str,
    state: ChannelState,
) -> tuple:
    """Drain one channel's row slice inside a pool worker.

    Module-level and fully picklable, so it works under both ``fork``
    and ``spawn`` start methods.  Returns ``(channel_index, post-drain
    ChannelState, activates, precharges, row_hits, row_misses,
    row_conflicts, last_complete_cycle, idle_cycles)``; per-request
    outputs go straight into the shared output block.
    """
    from repro.dram.controller import ControllerStats
    from repro.faults import maybe_inject_worker_fault

    # Deterministic fault-injection hook (no-op unless a plan is
    # installed in the environment): this is how the chaos harness
    # kills/hangs/fails exactly the worker attempts it means to.
    maybe_inject_worker_fault(channel_index)

    controller = _worker_controller(params)
    # Pool workers share the parent's resource-tracker process, so
    # attaching here only re-adds the names the parent registered at
    # creation; the parent's unlink is the single cleanup point.
    shm_in = shared_memory.SharedMemory(name=in_name)
    shm_out = shared_memory.SharedMemory(name=out_name)
    try:
        bf, row, col, arr, iswr = _input_views(shm_in.buf, n)
        k = hi - lo
        o_first = [-1] * k
        o_complete = [0] * k
        o_hit = [-1] * k
        channel = controller.channels[channel_index]
        state.apply(channel)
        stats = ControllerStats()
        last, idle = controller._drain_channel(
            channel,
            bf[lo:hi].tolist(),
            row[lo:hi].tolist(),
            col[lo:hi].tolist(),
            [bool(w) for w in iswr[lo:hi]],
            arr[lo:hi].tolist(),
            o_first,
            o_complete,
            o_hit,
            stats,
        )
        first, complete, hit = _output_views(shm_out.buf, n)
        first[lo:hi] = o_first
        complete[lo:hi] = o_complete
        hit[lo:hi] = o_hit
        result = (
            channel_index,
            ChannelState.capture(channel),
            stats.activates,
            stats.precharges,
            stats.row_hits,
            stats.row_misses,
            stats.row_conflicts,
            last,
            idle,
        )
        del bf, row, col, arr, iswr, first, complete, hit
        return result
    finally:
        try:
            shm_in.close()
            shm_out.close()
        except BufferError:  # pragma: no cover - views still alive on error
            pass


class ParallelDrainExecutor:
    """Persistent worker pool that drains independent channels in
    parallel.

    Created lazily by ``MemoryController(workers=N)`` or explicitly
    and shared across controllers (``MemoryController(...,
    executor=ex)`` -- how the co-simulation driver amortizes one pool
    over the fresh controller it builds per iteration).  The pool
    itself is created on first use and survives across ``drain``
    calls; shared-memory blocks are per call.
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
            raise ValueError("parallel draining needs workers >= 2")
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
        #: resubmits per task before it degrades to the in-parent
        #: serial fallback.
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.poll_interval = poll_interval
        self._ctx = multiprocessing.get_context(start_method)
        self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = self._ctx.Pool(
                self.workers, initializer=_reset_worker_signals
            )
        return self._pool

    def _pool_pids(self) -> Optional[frozenset]:
        """Pids of the live pool workers (None when unobservable).

        ``Pool`` keeps its worker ``Process`` handles in ``_pool`` and
        silently replaces dead workers -- the replacement changes this
        pid set, which is the only portable signal that a worker died,
        since the dead worker's in-flight task simply never returns.
        Guarded with ``getattr`` so a stdlib that drops the attribute
        degrades to timeout-only supervision instead of crashing.
        """
        pool = self._pool
        procs = getattr(pool, "_pool", None)
        if procs is None:
            return None
        try:
            return frozenset(p.pid for p in procs)
        except Exception:  # pragma: no cover - racing pool teardown
            return None

    def _respawn_pool(self):
        """Terminate the (possibly wedged) pool and build a fresh one."""
        if self._pool is not None:
            try:
                self._pool.terminate()
                self._pool.join()
            except Exception as exc:  # pragma: no cover - teardown races
                logger.warning("pool teardown during respawn failed: %s", exc)
            self._pool = None
        return self._ensure_pool()

    def backoff_seconds(self, attempt: int) -> float:
        """Deterministic bounded exponential backoff before resubmit
        ``attempt`` (1-based): base * 2^(attempt-1), capped."""
        return min(self.backoff_base * (2 ** max(attempt - 1, 0)), self.backoff_cap)

    def _supervise(self, tasks, resilience):
        """Run drain tasks under supervision.

        Submits each task asynchronously and watches for three failure
        shapes: a task that *raises* (picklable failure -- retried with
        backoff), a *worker death* (pid-set change; the dead worker's
        in-flight task would never return, so the pool is respawned and
        all outstanding tasks resubmitted), and a *task timeout* (same
        respawn treatment, since a wedged worker holds a pool slot
        hostage).  Resubmission is safe because drain tasks are
        idempotent: each applies its pre-drain state snapshot and
        writes outputs at fixed offsets.

        Returns ``(results, failed)`` where ``results`` maps channel
        index to the worker result tuple and ``failed`` lists channels
        that exhausted ``max_retries`` (the caller drains those
        serially).  Raises :class:`ParallelDrainError` only when the
        pool itself cannot be (re)created.
        """
        task_by_ci = {task[1]: task for task in tasks}
        results: dict = {}
        failed: list = []
        attempts = {ci: 0 for ci in task_by_ci}
        pending: dict = {}
        deadlines: dict = {}

        def submit(ci):
            attempts[ci] += 1
            pending[ci] = self._ensure_pool().apply_async(
                _drain_worker, task_by_ci[ci]
            )
            if self.task_timeout is not None:
                deadlines[ci] = time.monotonic() + self.task_timeout

        def retry_or_fail(cis, reason):
            ready = []
            backoff = 0.0
            for ci in cis:
                pending.pop(ci, None)
                deadlines.pop(ci, None)
                if attempts[ci] > self.max_retries:
                    failed.append(ci)
                    logger.error(
                        "channel %d drain gave up after %d attempts: %s",
                        ci,
                        attempts[ci],
                        reason,
                    )
                    continue
                b = self.backoff_seconds(attempts[ci])
                resilience.record(
                    KIND_TASK_RETRY,
                    channel=ci,
                    attempt=attempts[ci] + 1,
                    backoff_seconds=b,
                    detail=reason,
                )
                backoff = max(backoff, b)
                ready.append(ci)
            if ready and backoff > 0:
                time.sleep(backoff)
            for ci in ready:
                submit(ci)

        try:
            self._ensure_pool()
        except Exception as exc:
            raise ParallelDrainError(f"cannot create worker pool: {exc}") from exc
        known_pids = self._pool_pids()

        def respawn_and_resubmit(reason):
            nonlocal known_pids
            outstanding = list(pending)
            pending.clear()
            deadlines.clear()
            resilience.record(KIND_POOL_RESPAWN, detail=reason)
            try:
                self._respawn_pool()
            except Exception as exc:
                raise ParallelDrainError(
                    f"cannot respawn worker pool: {exc}"
                ) from exc
            known_pids = self._pool_pids()
            retry_or_fail(outstanding, reason)

        for ci in sorted(task_by_ci):
            submit(ci)
        while pending:
            # Block briefly on one in-flight task, then harvest every
            # completion -- cheaper than a busy poll, still bounded so
            # death/timeout checks below run regularly.
            next(iter(pending.values())).wait(self.poll_interval)
            for ci in [c for c, ar in pending.items() if ar.ready()]:
                ar = pending.pop(ci)
                deadlines.pop(ci, None)
                try:
                    results[ci] = ar.get(0)
                except Exception as exc:
                    retry_or_fail([ci], f"worker raised {exc!r}")
            if not pending:
                break
            current = self._pool_pids()
            if (
                known_pids is not None
                and current is not None
                and current != known_pids
            ):
                # Pool silently replaced a dead worker; its in-flight
                # task is lost forever, so respawn and resubmit.
                gone = sorted(known_pids - current)
                resilience.record(
                    KIND_WORKER_DEATH,
                    detail=f"pool worker(s) died (pids {gone} gone)",
                )
                respawn_and_resubmit("worker death; pool respawned")
                continue
            if deadlines:
                now = time.monotonic()
                expired = sorted(ci for ci, dl in deadlines.items() if now >= dl)
                if expired:
                    for ci in expired:
                        resilience.record(
                            KIND_TASK_TIMEOUT,
                            channel=ci,
                            attempt=attempts[ci],
                            detail=(
                                f"no result within {self.task_timeout:.3f}s"
                            ),
                        )
                    respawn_and_resubmit("task timeout; pool respawned")
        return results, failed

    def _serial_drain_task(self, controller, task, arrays, out_buf, n):
        """Drain one channel in the parent after the pool gave up on
        it.

        Replays exactly what :func:`_drain_worker` would have done --
        same pre-drain state snapshot, same output offsets -- but on
        the parent's controller.  The channel's pre-drain state is
        restored before returning (even on failure), so the caller's
        transactional merge applies every channel's post-state
        uniformly.
        """
        from repro.dram.controller import ControllerStats

        _params, ci, _in_name, _n, lo, hi, _out_name, state0 = task
        bf, row, col, wr, arr = arrays
        channel = controller.channels[ci]
        k = hi - lo
        o_first = [-1] * k
        o_complete = [0] * k
        o_hit = [-1] * k
        local = ControllerStats()
        state0.apply(channel)
        try:
            last, idle = controller._drain_channel(
                channel,
                bf[lo:hi].tolist(),
                row[lo:hi].tolist(),
                col[lo:hi].tolist(),
                [bool(w) for w in wr[lo:hi]],
                arr[lo:hi].tolist(),
                o_first,
                o_complete,
                o_hit,
                local,
            )
            post = ChannelState.capture(channel)
        finally:
            state0.apply(channel)
        first, complete, hit = _output_views(out_buf, n)
        first[lo:hi] = o_first
        complete[lo:hi] = o_complete
        hit[lo:hi] = o_hit
        del first, complete, hit
        return (
            ci,
            post,
            local.activates,
            local.precharges,
            local.row_hits,
            local.row_misses,
            local.row_conflicts,
            last,
            idle,
        )

    def drain(
        self,
        controller,
        bf_sorted: np.ndarray,
        row_sorted: np.ndarray,
        col_sorted: np.ndarray,
        wr_sorted: np.ndarray,
        arr_sorted: np.ndarray,
        bounds: np.ndarray,
        order: np.ndarray,
        stats,
        first: np.ndarray,
        complete: np.ndarray,
        hit: np.ndarray,
    ) -> int:
        """Drain every non-empty channel of ``controller`` in parallel.

        Inputs are the arrival-sorted column arrays and channel
        ``bounds`` that the serial path would slice per channel;
        ``order`` maps sorted positions back to input order.  Fills
        ``stats`` counters / per-channel cycles and the per-request
        ``first`` / ``complete`` / ``hit`` arrays (input order)
        exactly as the serial loop does, and returns the final cycle
        (max last-completion over channels).
        """
        n = int(bf_sorted.shape[0])
        params = pickle.dumps(
            (
                controller.config,
                controller.policy,
                controller.window,
                controller.starvation_cap,
            )
        )
        shm_in = shared_memory.SharedMemory(
            create=True, size=max(1, n * _IN_BYTES_PER_ROW)
        )
        shm_out = shared_memory.SharedMemory(
            create=True, size=max(1, n * _OUT_BYTES_PER_ROW)
        )
        try:
            i_bf, i_row, i_col, i_arr, i_wr = _input_views(shm_in.buf, n)
            i_bf[:] = bf_sorted
            i_row[:] = row_sorted
            i_col[:] = col_sorted
            i_arr[:] = arr_sorted
            i_wr[:] = wr_sorted
            tasks = []
            for channel in controller.channels:
                ci = channel.index
                lo, hi = int(bounds[ci]), int(bounds[ci + 1])
                if lo == hi:
                    continue
                tasks.append(
                    (
                        params,
                        ci,
                        shm_in.name,
                        n,
                        lo,
                        hi,
                        shm_out.name,
                        ChannelState.capture(channel),
                    )
                )
            resilience = getattr(stats, "resilience", None)
            if resilience is None:
                resilience = ResilienceReport()
            results, failed = self._supervise(tasks, resilience)
            if failed:
                task_by_ci = {task[1]: task for task in tasks}
                arrays = (bf_sorted, row_sorted, col_sorted, wr_sorted, arr_sorted)
                for ci in sorted(failed):
                    resilience.record(
                        KIND_SERIAL_FALLBACK,
                        channel=ci,
                        detail="retries exhausted; channel drained serially "
                        "in parent",
                    )
                    try:
                        results[ci] = self._serial_drain_task(
                            controller, task_by_ci[ci], arrays, shm_out.buf, n
                        )
                    except Exception as exc:
                        raise ParallelDrainError(
                            f"serial fallback for channel {ci} failed: {exc}"
                        ) from exc
            final_cycle = 0
            # Transactional merge, in channel-index order: no channel
            # state or caller-visible counter is touched until every
            # channel has a result, so any failure above leaves the
            # controller untouched.  Counters are order-independent
            # integer sums, so the merged stats match the serial
            # accumulation exactly.
            for ci in sorted(results):
                _, state, acts, pres, hits, misses, confs, last, idle = results[ci]
                state.apply(controller.channels[ci])
                stats.activates += acts
                stats.precharges += pres
                stats.row_hits += hits
                stats.row_misses += misses
                stats.row_conflicts += confs
                stats.busy_channel_cycles[ci] = last
                stats.idle_channel_cycles[ci] = idle
                if last > final_cycle:
                    final_cycle = last
            o_first, o_complete, o_hit = _output_views(shm_out.buf, n)
            first[order] = o_first
            complete[order] = o_complete
            hit[order] = o_hit != 0
            del i_bf, i_row, i_col, i_arr, i_wr, o_first, o_complete, o_hit
            return final_cycle
        finally:
            try:
                shm_in.close()
                shm_in.unlink()
                shm_out.close()
                shm_out.unlink()
            except BufferError:  # pragma: no cover - views alive on error
                pass

    def close(self) -> None:
        """Shut the pool down; the executor can be reused afterwards
        (a fresh pool is created on the next drain)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "ParallelDrainExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass


class DeviceDrainPool:
    """One drain-worker pool shared by a fleet of per-device
    controllers.

    The cluster backend builds a fresh :class:`MemoryController` per
    device per measurement; giving each its own
    :class:`ParallelDrainExecutor` would spawn ``devices x workers``
    processes and pay pool startup on every measurement.  This pool
    generalizes the per-channel executor to the per-device level: the
    devices of one replica drain *sequentially* (each measurement is an
    independent cold-start simulation), so a single executor -- sized
    to the channel count of one device -- can be vended to every
    controller in turn.  ``workers < 2`` vends ``None`` (serial
    drains), so callers need no special-casing.
    """

    def __init__(self, workers: int = 0, **executor_kwargs) -> None:
        self.workers = int(workers)
        self._executor_kwargs = executor_kwargs
        self._executor: Optional[ParallelDrainExecutor] = None

    def executor(self) -> Optional[ParallelDrainExecutor]:
        """The shared executor (created on first use), or ``None``
        when the pool is sized below 2 workers."""
        if self.workers < 2:
            return None
        if self._executor is None:
            self._executor = ParallelDrainExecutor(
                self.workers, **self._executor_kwargs
            )
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def __enter__(self) -> "DeviceDrainPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
