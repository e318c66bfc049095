"""Worker supervision: deterministic faults, recovery, bookkeeping.

Every fault the supervisor in :mod:`repro.dram.parallel` claims to
survive is injected here on exact coordinates (channel, attempt count)
via :mod:`repro.faults`, and every recovery must reproduce the serial
path bit for bit while recording what it did in the
:class:`~repro.dram.resilience.ResilienceReport`.
"""

from __future__ import annotations

from dataclasses import asdict
from multiprocessing import shared_memory

import pytest

from repro.dram import parallel
from repro.dram.config import DRAMConfig, DRAMOrganization, LPDDR5X_8533
from repro.dram.controller import MemoryController
from repro.dram.parallel import ParallelDrainError, ParallelDrainExecutor
from repro.faults import worker_faults
from repro.util.pool import PoolError
from repro.workloads.traces import generate_trace_arrays

QUAD_ORG = DRAMOrganization(
    n_channels=4,
    n_ranks=1,
    n_bankgroups=2,
    banks_per_group=2,
    n_rows=128,
    row_bytes=512,
    access_bytes=64,
)
QUAD_CONFIG = DRAMConfig(organization=QUAD_ORG, timing=LPDDR5X_8533.timing)


@pytest.fixture(scope="module")
def columns():
    return generate_trace_arrays(
        "random", 800, config=QUAD_CONFIG, seed=11,
        arrival="poisson", arrival_gap=6.0,
    )


@pytest.fixture(scope="module")
def serial_stats(columns):
    return MemoryController(QUAD_CONFIG).simulate_arrays(*columns)


def drain_with_executor(columns, **executor_kwargs):
    executor_kwargs.setdefault("backoff_base", 0.01)
    executor_kwargs.setdefault("backoff_cap", 0.02)
    with ParallelDrainExecutor(2, **executor_kwargs) as executor:
        controller = MemoryController(QUAD_CONFIG, executor=executor)
        return controller.simulate_arrays(*columns)


def test_clean_run_records_nothing(columns, serial_stats):
    stats = drain_with_executor(columns)
    assert asdict(stats) == asdict(serial_stats)
    assert not stats.resilience.degraded
    assert stats.resilience.summary() == "clean (no degradations)"


def test_resilience_report_invisible_to_asdict(columns):
    """The bit-identity gates compare asdict(stats); a degraded run
    must not change that shape."""
    stats = drain_with_executor(columns)
    assert "resilience" not in asdict(stats)


def test_killed_worker_respawned_and_retried(columns, serial_stats):
    with worker_faults("kill", times=1):
        stats = drain_with_executor(columns)
    assert asdict(stats) == asdict(serial_stats)
    r = stats.resilience
    assert r.worker_deaths >= 1
    assert r.pool_respawns >= 1
    assert r.task_retries >= 1
    assert r.serial_fallbacks == 0


def test_transient_raise_retried_to_success(columns, serial_stats):
    """One poisoned attempt on one channel: a single retry fixes it
    without respawning the pool or degrading to serial."""
    with worker_faults("raise", channel=2, times=1):
        stats = drain_with_executor(columns)
    assert asdict(stats) == asdict(serial_stats)
    r = stats.resilience
    assert r.task_retries == 1
    assert r.events[0].channel == 2
    assert r.serial_fallbacks == 0
    assert r.pool_respawns == 0


def test_persistent_raise_degrades_to_serial(columns, serial_stats):
    """Sabotage beyond the retry budget: every channel exhausts its
    attempts and the parent drains it serially -- still bit-identical."""
    with worker_faults("raise", times=64) as plan:
        stats = drain_with_executor(columns, max_retries=1)
        fired = plan.injections_fired()
    assert asdict(stats) == asdict(serial_stats)
    r = stats.resilience
    assert r.serial_fallbacks == 4  # every channel
    # max_retries=1 => 2 attempts per channel, 1 retry event each.
    assert r.task_retries == 4
    assert fired == 8  # 4 channels x 2 attempts


def test_hung_worker_times_out_and_recovers(columns, serial_stats):
    with worker_faults("hang", channel=1, times=1, hang_seconds=30.0):
        stats = drain_with_executor(columns, task_timeout=1.0)
    assert asdict(stats) == asdict(serial_stats)
    r = stats.resilience
    assert r.task_timeouts >= 1
    assert r.pool_respawns >= 1
    assert asdict(stats) == asdict(serial_stats)


def test_retry_backoff_is_deterministic_and_capped():
    executor = ParallelDrainExecutor(2, backoff_base=0.05, backoff_cap=0.2)
    try:
        assert executor.backoff_seconds(1) == 0.05
        assert executor.backoff_seconds(2) == 0.10
        assert executor.backoff_seconds(3) == 0.20
        assert executor.backoff_seconds(10) == 0.20  # capped
    finally:
        executor.close()


def test_supervision_knob_validation():
    with pytest.raises(ValueError):
        ParallelDrainExecutor(2, task_timeout=0.0)
    with pytest.raises(ValueError):
        ParallelDrainExecutor(2, max_retries=-1)
    with pytest.raises(ValueError):
        ParallelDrainExecutor(2, backoff_base=-0.1)
    with pytest.raises(ValueError):
        ParallelDrainExecutor(2, poll_interval=0.0)


def test_controller_state_intact_after_recovery(columns, serial_stats):
    """A drain that limped home on retries must leave channel state
    exactly where a clean drain would: the next simulate call still
    matches serial."""
    serial = MemoryController(QUAD_CONFIG)
    with ParallelDrainExecutor(2, backoff_base=0.01, backoff_cap=0.02) as executor:
        par = MemoryController(QUAD_CONFIG, executor=executor)
        with worker_faults("raise", channel=0, times=1):
            first_par = par.simulate_arrays(*columns)
        first_serial = serial.simulate_arrays(*columns)
        assert asdict(first_par) == asdict(first_serial)
        assert first_par.resilience.task_retries == 1
        # Second, fault-free run carries the accumulated bank state.
        assert asdict(par.simulate_arrays(*columns)) == asdict(
            serial.simulate_arrays(*columns)
        )


def test_parallel_drain_error_is_runtime_error():
    assert issubclass(ParallelDrainError, RuntimeError)


@pytest.mark.parametrize("failure", ["pool", "fallback"])
def test_failed_drain_unlinks_shared_memory(columns, serial_stats, monkeypatch, failure):
    """A drain that fails -- the pool gives up, or a channel's in-parent
    fallback raises -- still closes and unlinks both blocks it created;
    the controller then reruns the drain serially."""
    created = []

    class RecordingSharedMemory(shared_memory.SharedMemory):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if kwargs.get("create"):
                created.append(self)

    monkeypatch.setattr(parallel.shared_memory, "SharedMemory", RecordingSharedMemory)
    if failure == "pool":

        def run(self, fn, tasks, resilience):
            raise PoolError("forced pool failure")

    else:
        drain_channel = MemoryController._drain_channel
        calls = []

        def failing_drain_channel(self, *args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise RuntimeError("forced fallback failure")
            return drain_channel(self, *args, **kwargs)

        def run(self, fn, tasks, resilience):
            return {}, set(tasks)

        monkeypatch.setattr(MemoryController, "_drain_channel", failing_drain_channel)
    monkeypatch.setattr(ParallelDrainExecutor, "run", run)

    with ParallelDrainExecutor(2) as executor:
        stats = MemoryController(QUAD_CONFIG, executor=executor).simulate_arrays(
            *columns
        )
    assert asdict(stats) == asdict(serial_stats)
    assert stats.resilience.degraded
    assert len(created) == 2
    for shm in created:
        assert shm.buf is None  # closed: no view outlived the drain
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=shm.name)
