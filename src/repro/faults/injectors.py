"""Deterministic fault injectors: worker sabotage, trace corruption,
sweep interruption.

Worker faults cross a process boundary (the saboteur runs inside a
``multiprocessing`` pool worker), so the plan travels through the
environment -- JSON in :data:`FAULT_ENV_VAR`, inherited by workers
under both ``fork`` and ``spawn`` -- and the "fail the first N
attempts" counter lives on the filesystem: each sabotaged attempt
claims the next sequence file in the plan's scratch directory with
``O_CREAT | O_EXCL`` (atomic on POSIX), so the count is exact even
across pool respawns that replace the worker processes entirely.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

FAULT_ENV_VAR = "REPRO_WORKER_FAULT_PLAN"

KILL = "kill"
HANG = "hang"
RAISE = "raise"
_WORKER_FAULT_KINDS = (KILL, HANG, RAISE)


class InjectedWorkerFault(RuntimeError):
    """The exception a ``raise``-kind worker fault throws."""


@dataclass(frozen=True)
class WorkerFaultPlan:
    """Sabotage the first ``times`` matching drain-task executions.

    ``channel`` = -1 matches every channel; otherwise only tasks for
    that channel index are sabotaged.  ``kind``:

    - ``"kill"``: the worker SIGKILLs itself (the un-catchable death
      the supervisor must detect and respawn around);
    - ``"hang"``: the worker sleeps ``hang_seconds`` (far beyond any
      reasonable task timeout; the supervisor's pool respawn kills the
      sleeper, so nothing leaks);
    - ``"raise"``: the worker raises :class:`InjectedWorkerFault`
      (the picklable-failure path: retries, then serial fallback).

    ``counter_dir`` holds one sequence file per sabotaged attempt; the
    plan is exhausted once ``times`` files exist.
    """

    kind: str
    counter_dir: str
    channel: int = -1
    times: int = 1
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in _WORKER_FAULT_KINDS:
            raise ValueError(
                f"unknown worker fault kind {self.kind!r} "
                f"(expected one of {_WORKER_FAULT_KINDS})"
            )
        if self.times < 1:
            raise ValueError("times must be >= 1")
        if self.hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")

    def to_env(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_env(cls, raw: str) -> "WorkerFaultPlan":
        return cls(**json.loads(raw))

    def injections_fired(self) -> int:
        """How many attempts have been sabotaged so far (parent-side
        observability for tests and the chaos harness)."""
        try:
            return len(
                [n for n in os.listdir(self.counter_dir) if n.startswith("attempt-")]
            )
        except FileNotFoundError:
            return 0

    def claim(self, channel_index: int) -> bool:
        """Worker-side: atomically claim the next sabotage slot.

        Returns True iff this execution should be sabotaged (a slot
        below ``times`` was claimed).  Sequence files are claimed with
        ``O_CREAT | O_EXCL``, so concurrent workers under any start
        method never double-count.
        """
        if self.channel != -1 and channel_index != self.channel:
            return False
        for seq in range(self.times):
            path = os.path.join(self.counter_dir, f"attempt-{seq}")
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.write(fd, f"channel={channel_index} pid={os.getpid()}\n".encode())
            os.close(fd)
            return True
        return False


def maybe_inject_worker_fault(channel_index: int) -> None:
    """Hook called at the top of every pool drain task.

    No-op (one env lookup) unless a plan is installed; otherwise
    claims a sabotage slot and performs the planned fault.
    """
    raw = os.environ.get(FAULT_ENV_VAR)
    if not raw:
        return
    plan = WorkerFaultPlan.from_env(raw)
    if not plan.claim(channel_index):
        return
    if plan.kind == KILL:
        os.kill(os.getpid(), signal.SIGKILL)
    elif plan.kind == HANG:
        time.sleep(plan.hang_seconds)
    else:
        raise InjectedWorkerFault(
            f"injected worker fault (channel {channel_index}, "
            f"counter {plan.counter_dir})"
        )


@contextmanager
def worker_faults(
    kind: str,
    channel: int = -1,
    times: int = 1,
    hang_seconds: float = 3600.0,
    counter_dir: str | None = None,
):
    """Install a :class:`WorkerFaultPlan` for the enclosed block.

    The plan is exported through the environment **before** any pool
    is created inside the block, so workers inherit it under ``fork``
    and ``spawn`` alike (pool respawns re-inherit the live
    environment).  Yields the plan; restores the environment on exit.
    """
    own_dir = counter_dir is None
    if own_dir:
        counter_dir = tempfile.mkdtemp(prefix="repro-fault-")
    plan = WorkerFaultPlan(
        kind=kind,
        counter_dir=str(counter_dir),
        channel=channel,
        times=times,
        hang_seconds=hang_seconds,
    )
    previous = os.environ.get(FAULT_ENV_VAR)
    os.environ[FAULT_ENV_VAR] = plan.to_env()
    try:
        yield plan
    finally:
        if previous is None:
            os.environ.pop(FAULT_ENV_VAR, None)
        else:
            os.environ[FAULT_ENV_VAR] = previous
        if own_dir:
            try:
                for name in os.listdir(counter_dir):
                    os.unlink(os.path.join(counter_dir, name))
                os.rmdir(counter_dir)
            except OSError:
                pass


# -- on-disk trace corruption ---------------------------------------------


def truncate_trace(path, keep_records: int) -> int:
    """Chop a ``.dramtrace`` down to ``keep_records`` records without
    touching the header -- the lost-tail shape a crashed writer or a
    torn copy produces.  Returns the new file size."""
    from repro.workloads.trace_io import HEADER_BYTES, RECORD_BYTES

    if keep_records < 0:
        raise ValueError("keep_records must be non-negative")
    path = pathlib.Path(path)
    new_size = HEADER_BYTES + keep_records * RECORD_BYTES
    if new_size > path.stat().st_size:
        raise ValueError(f"{path}: cannot truncate {path.stat().st_size} up to {new_size}")
    with open(path, "rb+") as fh:
        fh.truncate(new_size)
        fh.flush()
        os.fsync(fh.fileno())
    return new_size


def bit_flip_trace(path, record_index: int, bit: int = 62) -> None:
    """Flip one bit of one record's ``addr`` field in place.

    The default bit (62) pushes any realistic address far beyond
    device capacity, which is exactly how a flipped high bit surfaces:
    the streaming decoder's validation trips instead of the scheduler
    silently simulating garbage.
    """
    from repro.workloads.trace_io import HEADER_BYTES, RECORD_BYTES

    if not 0 <= bit < 64:
        raise ValueError("bit must be in [0, 64)")
    offset = HEADER_BYTES + record_index * RECORD_BYTES  # addr is field 0
    byte_offset = offset + bit // 8
    with open(path, "rb+") as fh:
        fh.seek(byte_offset)
        (value,) = fh.read(1)
        fh.seek(byte_offset)
        fh.write(bytes((value ^ (1 << (bit % 8)),)))
        fh.flush()
        os.fsync(fh.fileno())


def zero_header_count(path) -> None:
    """Rewrite the header's record count to 0, leaving the records in
    place -- the crash-between-append-and-close shape: a stale n=0
    header with trailing record bytes."""
    from repro.workloads.trace_io import HEADER_DTYPE

    import numpy as np

    with open(path, "rb+") as fh:
        raw = bytearray(fh.read(HEADER_DTYPE.itemsize))
        header = np.frombuffer(bytes(raw), dtype=HEADER_DTYPE).copy()
        header["n_records"] = 0
        fh.seek(0)
        fh.write(header.tobytes())
        fh.flush()
        os.fsync(fh.fileno())


# -- sweep interruption ----------------------------------------------------


def interrupt_after(n_points: int):
    """An ``on_point`` callback for both sweep runners,
    :func:`~repro.cosim.sweep.run_load_sweep` and
    :func:`~repro.cluster.sweep.run_cluster_sweep` (they share one
    point loop), that interrupts the sweep after ``n_points``
    completed grid points -- the exact instant a SIGINT/SIGTERM would
    land, minus the nondeterminism.
    The completed points are already durably checkpointed when the
    callback fires, so resume semantics are identical."""
    from repro.cosim.sweep import SweepInterrupted

    if n_points < 0:
        raise ValueError("n_points must be non-negative")
    state = {"completed": 0}

    def _on_point(rate: float, point) -> None:
        state["completed"] += 1
        if state["completed"] >= n_points:
            raise SweepInterrupted(
                f"fault injection: interrupted after {n_points} point(s)"
            )

    return _on_point
