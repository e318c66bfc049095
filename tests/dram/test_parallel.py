"""Bit-exactness of the parallel channel-drain path.

``MemoryController(executor=ParallelDrainExecutor(N))`` fans the
independent per-channel drains out over a process pool
(:mod:`repro.dram.parallel`); these
tests demand that the parallel path produce *identical* aggregate
stats and per-request timing arrays to the serial path -- across
worker counts, scheduler policies, arrival processes, DRAM
geometries, the reference oracle, repeated (state-carrying) simulate
calls, and both pool start methods.
"""

from __future__ import annotations

import os
import signal
from contextlib import nullcontext
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.dram.config import DRAMConfig, DRAMOrganization, LPDDR5X_8533
from repro.dram.controller import MemoryController, SchedulerPolicy
from repro.dram.parallel import ParallelDrainExecutor
from repro.dram.reference import ReferenceMemoryController
from repro.workloads.traces import generate_trace_arrays

# Multi-channel geometry small enough that short traces still create
# row conflicts and starvation pressure on every channel.
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

WORKER_GRID = sorted({1, 2, os.cpu_count() or 1})


def columns(config, n=2500, seed=11, arrival="poisson", gap=6.0, pattern="random"):
    return generate_trace_arrays(
        pattern, n, config=config, seed=seed, arrival=arrival, arrival_gap=gap
    )


def assert_identical(config, cols, workers, **ctrl_kwargs):
    addrs, arrive, flags = cols
    serial_stats, serial_t = MemoryController(config, **ctrl_kwargs).simulate_arrays(
        addrs, arrive, flags, detail=True
    )
    with ParallelDrainExecutor(workers) if workers >= 2 else nullcontext() as ex:
        par = MemoryController(config, executor=ex, **ctrl_kwargs)
        par_stats, par_t = par.simulate_arrays(addrs, arrive, flags, detail=True)
    assert asdict(par_stats) == asdict(serial_stats)
    assert np.array_equal(par_t.first_command_cycles, serial_t.first_command_cycles)
    assert np.array_equal(par_t.complete_cycles, serial_t.complete_cycles)
    assert np.array_equal(par_t.queue_delays, serial_t.queue_delays)
    assert np.array_equal(par_t.row_hits, serial_t.row_hits)
    return serial_stats


@pytest.mark.parametrize("workers", WORKER_GRID)
@pytest.mark.parametrize("policy", [SchedulerPolicy.FR_FCFS, SchedulerPolicy.FCFS])
def test_policies_bit_identical(workers, policy):
    assert_identical(QUAD_CONFIG, columns(QUAD_CONFIG), workers, policy=policy)


@pytest.mark.parametrize("arrival", [None, "poisson", "batched", "onoff"])
def test_arrival_processes_bit_identical(arrival):
    cols = columns(QUAD_CONFIG, arrival=arrival)
    assert_identical(QUAD_CONFIG, cols, workers=2)


@pytest.mark.parametrize("pattern", ["streaming", "random", "moe-skewed"])
def test_paper_config_patterns_bit_identical(pattern):
    cols = columns(LPDDR5X_8533, n=4000, pattern=pattern)
    assert_identical(LPDDR5X_8533, cols, workers=2)


def test_small_window_and_starvation_cap():
    cols = columns(QUAD_CONFIG, n=1500, gap=2.0)
    assert_identical(QUAD_CONFIG, cols, workers=2, window=4, starvation_cap=8)


def test_matches_reference_oracle():
    """Parallel == serial == the O(n^2) pre-optimization scheduler."""
    addrs, arrive, flags = columns(QUAD_CONFIG, n=700)
    oracle = ReferenceMemoryController(QUAD_CONFIG).simulate_arrays(
        addrs, arrive, flags
    )
    with ParallelDrainExecutor(2) as executor:
        par = MemoryController(QUAD_CONFIG, executor=executor)
        par_stats = par.simulate_arrays(addrs, arrive, flags)
    assert asdict(par_stats) == asdict(oracle)


def test_repeated_simulate_carries_channel_state():
    """Back-to-back simulate calls accumulate channel/bank state; the
    worker-side state round trip must keep the second run identical."""
    cols = columns(QUAD_CONFIG, n=1200)
    serial = MemoryController(QUAD_CONFIG)
    with ParallelDrainExecutor(2) as executor:
        par = MemoryController(QUAD_CONFIG, executor=executor)
        for _ in range(3):
            s = serial.simulate_arrays(*cols)
            p = par.simulate_arrays(*cols)
            assert asdict(p) == asdict(s)


def test_simulate_object_path_parallel():
    """The Request-list adapter rides the same parallel core."""
    from repro.dram.request import requests_from_arrays

    addrs, arrive, flags = columns(QUAD_CONFIG, n=900)
    serial_reqs = requests_from_arrays(addrs, arrive, flags)
    par_reqs = requests_from_arrays(addrs, arrive, flags)
    s = MemoryController(QUAD_CONFIG).simulate(serial_reqs)
    with ParallelDrainExecutor(2) as executor:
        p = MemoryController(QUAD_CONFIG, executor=executor).simulate(par_reqs)
    assert asdict(p) == asdict(s)
    for a, b in zip(serial_reqs, par_reqs):
        assert a.complete_cycle == b.complete_cycle
        assert a.first_command_cycle == b.first_command_cycle
        assert a.row_hit == b.row_hit
        assert a.decoded == b.decoded


def test_spawn_start_method_bit_identical():
    """The worker and its payload must survive pickling (spawn)."""
    cols = columns(QUAD_CONFIG, n=600)
    serial = MemoryController(QUAD_CONFIG).simulate_arrays(*cols)
    with ParallelDrainExecutor(2, start_method="spawn") as executor:
        par = MemoryController(QUAD_CONFIG, executor=executor)
        par_stats = par.simulate_arrays(*cols)
    assert asdict(par_stats) == asdict(serial)


def test_executor_reuse_across_controllers():
    """One pool amortizes over many controllers (the cosim pattern)."""
    cols = columns(QUAD_CONFIG, n=800)
    serial = MemoryController(QUAD_CONFIG).simulate_arrays(*cols)
    with ParallelDrainExecutor(2) as executor:
        for _ in range(2):
            par = MemoryController(QUAD_CONFIG, executor=executor)
            assert asdict(par.simulate_arrays(*cols)) == asdict(serial)


def test_record_commands_falls_back_to_serial():
    """Command recording is unsupported in workers; the controller
    must drain serially (and still record) rather than fail."""
    addrs, arrive, flags = columns(QUAD_CONFIG, n=400)
    serial = MemoryController(QUAD_CONFIG)
    for ch in serial.channels:
        ch.record_commands = True
    s = serial.simulate_arrays(addrs, arrive, flags)
    with ParallelDrainExecutor(2) as executor:
        par = MemoryController(QUAD_CONFIG, executor=executor)
        for ch in par.channels:
            ch.record_commands = True
        p = par.simulate_arrays(addrs, arrive, flags)
        assert asdict(p) == asdict(s)
        for sc, pc in zip(serial.channels, par.channels):
            assert sc.commands == pc.commands


def test_single_channel_trace_stays_serial():
    """With every request on one channel there is nothing to fan out;
    the dispatch condition must take the serial path (and match)."""
    org = DRAMOrganization(
        n_channels=1,
        n_ranks=1,
        n_bankgroups=2,
        banks_per_group=2,
        n_rows=128,
        row_bytes=512,
        access_bytes=64,
    )
    config = DRAMConfig(organization=org, timing=LPDDR5X_8533.timing)
    cols = columns(config, n=500)
    s = MemoryController(config).simulate_arrays(*cols)
    with ParallelDrainExecutor(2) as executor:
        p = MemoryController(config, executor=executor).simulate_arrays(*cols)
    assert asdict(p) == asdict(s)


def test_invalid_worker_counts_rejected():
    with pytest.raises(ValueError):
        ParallelDrainExecutor(1)
    with pytest.raises(ValueError):
        ParallelDrainExecutor(2, start_method="not-a-method")


def test_workers_zero_and_one_are_serial(monkeypatch):
    """Below two workers the bench runs no parallel drain, and a
    controller without an executor never reaches a pool."""
    from repro.dram.bench import bench_controller

    def no_pool(*args, **kwargs):
        raise AssertionError("a serial drain reached the pool")

    monkeypatch.setattr(ParallelDrainExecutor, "drain", no_pool)
    for workers in (None, 0, 1):
        payload = bench_controller(
            300,
            patterns=("random",),
            include_reference=False,
            config=QUAD_CONFIG,
            workers=workers,
        )
        assert "parallel" not in payload["patterns"]["random"]


def test_executor_close_is_idempotent():
    executor = ParallelDrainExecutor(2)
    executor.close()
    executor.close()  # double close must be a no-op


def test_executor_reusable_after_close():
    """close() tears the pool down but does not poison the executor:
    the next drain lazily respins a fresh pool and still matches."""
    cols = columns(QUAD_CONFIG, n=500)
    serial = MemoryController(QUAD_CONFIG).simulate_arrays(*cols)
    executor = ParallelDrainExecutor(2)
    try:
        first = MemoryController(QUAD_CONFIG, executor=executor)
        assert asdict(first.simulate_arrays(*cols)) == asdict(serial)
        executor.close()
        second = MemoryController(QUAD_CONFIG, executor=executor)
        assert asdict(second.simulate_arrays(*cols)) == asdict(serial)
    finally:
        executor.close()


def test_executor_context_manager_reentry():
    """Each `with` block gets a working pool; exit closes it."""
    cols = columns(QUAD_CONFIG, n=500)
    serial = MemoryController(QUAD_CONFIG).simulate_arrays(*cols)
    executor = ParallelDrainExecutor(2)
    for _ in range(2):
        with executor:
            controller = MemoryController(QUAD_CONFIG, executor=executor)
            assert asdict(controller.simulate_arrays(*cols)) == asdict(serial)
        assert executor._pool is None  # pool released on exit


def _worker_signal_handlers():
    return signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM)


def test_pool_workers_reset_inherited_signal_handlers():
    """A forked worker must not inherit the parent's raising SIGTERM
    handler (a checkpointed sweep installs one): the pool SIGTERMs its
    workers on shutdown, which would print a traceback per worker."""

    def _raise(signum, frame):
        raise RuntimeError(f"signal {signum} reached a drain worker")

    previous = [
        (sig, signal.signal(sig, _raise)) for sig in (signal.SIGINT, signal.SIGTERM)
    ]
    executor = ParallelDrainExecutor(2, start_method="fork")
    try:
        pool = executor._ensure_pool()
        handlers = pool.apply(_worker_signal_handlers)
    finally:
        for sig, handler in previous:
            signal.signal(sig, handler)
        executor.close()
    assert handlers == (signal.SIG_DFL, signal.SIG_DFL)


def _signal_probe_point(rate, **_point_kwargs):
    """Sweep point function reporting its worker's signal handlers in
    the point's ``error`` field."""
    from repro.cosim.sweep import _failed_point

    point = _failed_point(rate, RuntimeError("probe"))
    return replace(point, failed=False, error=repr(_worker_signal_handlers())), None


def test_sweep_point_workers_reset_inherited_signal_handlers(tmp_path):
    """Pooled sweep points fork while a checkpointing sweep has its
    raising interrupt handler installed; their workers must start with
    the default handlers too."""
    from repro.cosim.sweep import SweepResult, run_sweep_grid

    result = SweepResult(scheme="md+lb", arrival="poisson", n_requests=0, seed=0)
    run_sweep_grid(
        result,
        {(): result},
        [1.0, 2.0],
        _signal_probe_point,
        {},
        workers=2,
        checkpoint_path=tmp_path / "probe.ckpt",
    )
    default = repr((signal.SIG_DFL, signal.SIG_DFL))
    assert [p.error for p in result.points] == [default, default]
