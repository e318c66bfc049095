"""Parallel per-channel drain execution for :class:`MemoryController`.

DRAM channels share no timing state -- the controller already drains
them one at a time through the self-contained
:meth:`~repro.dram.controller.MemoryController._drain_channel` body
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
-level :func:`_drain_worker`, the controller's pickled
:class:`~repro.dram.controller.ControllerSpec` (workers build their
controller with ``spec.build()``), and :class:`ChannelState` -- is
picklable, so the same code runs under ``spawn`` (macOS/Windows or
``start_method="spawn"``) unchanged.

Supervision: :class:`ParallelDrainExecutor` is a
:class:`~repro.util.pool.SupervisedPool`, the repo's one worker pool.
A channel the pool gives up on is drained *serially in the parent* on
the same shared-memory blocks while the rest stay parallel.  The drain
is transactional: nothing caller-visible changes until every channel
has a result, so an unrecoverable failure (a
:class:`~repro.util.pool.PoolError`) leaves the controller as it was
and the caller can rerun the whole drain serially.
"""

from __future__ import annotations

import pickle
import traceback
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.dram.resilience import KIND_SERIAL_FALLBACK, ResilienceReport
from repro.util.pool import PoolError, SupervisedPool


class ParallelDrainError(PoolError):
    """A channel's in-parent serial fallback failed after the pool gave
    up on it.  The drain is transactional, so the controller is
    untouched and the caller falls back to the serial path."""


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


#: Worker-process cache: one controller per pickled ControllerSpec,
#: reused across tasks so channel/mapper construction is paid once.
_WORKER_CONTROLLERS: dict = {}


def _worker_controller(params: bytes):
    controller = _WORKER_CONTROLLERS.get(params)
    if controller is None:
        controller = _WORKER_CONTROLLERS[params] = pickle.loads(params).build()
    return controller


def _drain_task(controller, task: tuple, in_buf, out_buf) -> tuple:
    """Drain one channel's row slice of the input block on
    ``controller``, starting from the task's pre-drain state, and write
    its outputs into the output block.  Returns ``(channel_index,
    post-drain ChannelState, activates, precharges, row_hits,
    row_misses, row_conflicts, last_complete_cycle, idle_cycles)``."""
    from repro.dram.controller import ControllerStats

    _params, ci, _in_name, n, lo, hi, _out_name, state = task
    bf, row, col, arr, iswr = _input_views(in_buf, n)
    channel = controller.channels[ci]
    state.apply(channel)
    stats = ControllerStats()
    last, idle, o_first, o_complete, o_hit = controller._drain_channel(
        channel,
        bf[lo:hi],
        row[lo:hi],
        col[lo:hi],
        iswr[lo:hi].view(np.bool_),
        arr[lo:hi],
        stats,
    )
    first, complete, hit = _output_views(out_buf, n)
    first[lo:hi] = o_first
    complete[lo:hi] = o_complete
    hit[lo:hi] = o_hit
    return (
        ci,
        ChannelState.capture(channel),
        stats.activates,
        stats.precharges,
        stats.row_hits,
        stats.row_misses,
        stats.row_conflicts,
        last,
        idle,
    )


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
    and ``spawn`` start methods.  Returns :func:`_drain_task`'s tuple;
    per-request outputs go straight into the shared output block.
    """
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
        task = (params, channel_index, in_name, n, lo, hi, out_name, state)
        return _drain_task(controller, task, shm_in.buf, shm_out.buf)
    finally:
        try:
            shm_in.close()
            shm_out.close()
        except BufferError:  # pragma: no cover - views still alive on error
            pass


class ParallelDrainExecutor(SupervisedPool):
    """Supervised worker pool that drains independent channels in
    parallel.

    The caller opens it (``with ParallelDrainExecutor(n) as ex:``) and
    hands it to every controller that should drain in parallel
    (``MemoryController(..., executor=ex)``) -- how a sweep amortizes
    one pool over every controller its drains build; a controller
    never creates or closes one.  The pool itself is created on first
    use and survives across ``drain`` calls; shared-memory blocks are
    per call.
    """

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
        params = pickle.dumps(controller.spec)
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
            task_by_ci = {task[1]: task for task in tasks}
            results, failed = self.run(_drain_worker, task_by_ci, resilience)
            if failed:
                for ci in sorted(failed):
                    resilience.record(
                        KIND_SERIAL_FALLBACK,
                        channel=ci,
                        detail="retries exhausted; channel drained serially "
                        "in parent",
                    )
                    # The same drain on the parent's controller and
                    # blocks; the channel's pre-drain state is restored
                    # (even on failure) so the merge below applies every
                    # channel's post-state uniformly.
                    task = task_by_ci[ci]
                    state0 = task[-1]
                    try:
                        results[ci] = _drain_task(
                            controller, task, shm_in.buf, shm_out.buf
                        )
                    except Exception as exc:
                        # The failed drain's frames hold views of the
                        # blocks; clear them so the blocks can close.
                        traceback.clear_frames(exc.__traceback__)
                        raise ParallelDrainError(
                            f"serial fallback for channel {ci} failed: {exc}"
                        ) from exc
                    finally:
                        state0.apply(controller.channels[ci])
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
            return final_cycle
        finally:
            # Release the views before closing (an exported buffer
            # makes close() raise), and unlink both blocks on every
            # path, even if a view still pins a mapping (it is then
            # unmapped with that view).
            i_bf = i_row = i_col = i_arr = i_wr = None
            o_first = o_complete = o_hit = None
            for shm in (shm_in, shm_out):
                try:
                    shm.close()
                except BufferError:  # pragma: no cover - a view outlived the drain
                    pass
                shm.unlink()
