"""End-to-end chaos smoke: drive every recovery path, verify identity.

``repro bench --chaos`` runs each scenario below against a live
simulation and checks two things the fault-tolerance layer promises:

1. the run *survives* (the fault is detected, retried, respawned
   around, or reported as structured corruption rather than garbage);
2. the recovered result is **bit-identical** to an undisturbed run
   (drain stats match the serial path; a resumed sweep's JSON matches
   the uninterrupted sweep's byte for byte).

Every scenario is deterministic: faults fire on exact attempt counts,
record indices, and point counts, so a failure here replays under a
debugger without a seed hunt.
"""

from __future__ import annotations

import tempfile
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.faults.injectors import (
    HANG,
    KILL,
    RAISE,
    bit_flip_trace,
    interrupt_after,
    truncate_trace,
    worker_faults,
    zero_header_count,
)


@dataclass
class ChaosScenario:
    """Outcome of one chaos scenario."""

    name: str
    passed: bool
    detail: str = ""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _small_config():
    from repro.dram.config import DRAMConfig, DRAMOrganization, LPDDR5X_8533

    org = DRAMOrganization(
        n_channels=4,
        n_ranks=1,
        n_bankgroups=2,
        banks_per_group=2,
        n_rows=128,
        row_bytes=512,
        access_bytes=64,
    )
    return DRAMConfig(organization=org, timing=LPDDR5X_8533.timing)


def _columns(config, n=900):
    from repro.workloads.traces import generate_trace_arrays

    return generate_trace_arrays(
        "random", n, config=config, seed=11, arrival="poisson", arrival_gap=6.0
    )


def _drain_under_fault(kind: str, **fault_kwargs):
    """Run a parallel drain with a worker fault installed; return
    ``(serial_stats, parallel_stats)`` (the parallel stats carry the
    resilience report)."""
    from repro.dram.controller import MemoryController
    from repro.dram.parallel import ParallelDrainExecutor

    config = _small_config()
    cols = _columns(config)
    serial = MemoryController(config).simulate_arrays(*cols)
    executor_kwargs = fault_kwargs.pop("executor_kwargs", {})
    executor_kwargs.setdefault("backoff_base", 0.01)
    executor_kwargs.setdefault("backoff_cap", 0.05)
    with worker_faults(kind, **fault_kwargs):
        with ParallelDrainExecutor(2, **executor_kwargs) as executor:
            par = MemoryController(config, executor=executor).simulate_arrays(*cols)
    return serial, par


def _scenario_worker_kill() -> str:
    serial, par = _drain_under_fault(KILL, times=1)
    _check(asdict(par) == asdict(serial), "stats diverged after worker kill")
    r = par.resilience
    _check(r.worker_deaths >= 1, "no worker_death event recorded")
    _check(r.pool_respawns >= 1, "no pool_respawn event recorded")
    return (
        f"SIGKILLed worker detected and respawned around "
        f"({r.worker_deaths} death(s), {r.pool_respawns} respawn(s), "
        f"{r.task_retries} retries); stats bit-identical to serial"
    )


def _scenario_worker_raise() -> str:
    # Sabotage more attempts than the retry budget ever grants, so
    # every pool path is exhausted and the per-channel serial fallback
    # must carry the run.
    serial, par = _drain_under_fault(RAISE, times=64)
    _check(asdict(par) == asdict(serial), "stats diverged after serial fallback")
    r = par.resilience
    _check(r.task_retries >= 1, "no task_retry event recorded")
    _check(r.serial_fallbacks >= 1, "no serial_fallback event recorded")
    return (
        f"persistent worker exception exhausted retries "
        f"({r.task_retries} retries) and degraded to serial for "
        f"{r.serial_fallbacks} channel(s); stats bit-identical"
    )


def _scenario_worker_hang() -> str:
    serial, par = _drain_under_fault(
        HANG,
        times=1,
        hang_seconds=30.0,
        executor_kwargs={"task_timeout": 1.0},
    )
    _check(asdict(par) == asdict(serial), "stats diverged after hang recovery")
    r = par.resilience
    _check(r.task_timeouts >= 1, "no task_timeout event recorded")
    _check(r.pool_respawns >= 1, "no pool_respawn event recorded")
    return (
        f"hung worker timed out ({r.task_timeouts} timeout(s)), pool "
        f"respawned, task retried; stats bit-identical to serial"
    )


def _scenario_trace_truncate(tmp: Path) -> str:
    import numpy as np

    from repro.workloads.trace_io import TraceCorruptionError, load_trace, write_trace

    config = _small_config()
    addrs, arrive, flags = _columns(config, n=300)
    path = tmp / "truncated.dramtrace"
    write_trace(path, addrs, arrive, flags)
    truncate_trace(path, keep_records=100)
    try:
        load_trace(path)
    except TraceCorruptionError as exc:
        _check(
            exc.recoverable_records == 100,
            f"expected 100 recoverable records, got {exc.recoverable_records}",
        )
    else:
        raise AssertionError("truncated trace loaded without error")
    recovered = load_trace(path, recover=True)
    _check(len(recovered) == 100, "recover=True did not load the intact prefix")
    _check(
        np.array_equal(np.asarray(recovered.addrs), addrs[:100]),
        "recovered prefix differs from the original records",
    )
    return "lost tail reported with exact recoverable count; prefix salvaged"


def _scenario_trace_header_mismatch(tmp: Path) -> str:
    from repro.workloads.trace_io import TraceCorruptionError, load_trace, write_trace

    config = _small_config()
    addrs, arrive, flags = _columns(config, n=120)
    path = tmp / "stale_header.dramtrace"
    write_trace(path, addrs, arrive, flags)
    zero_header_count(path)
    try:
        load_trace(path)
    except TraceCorruptionError as exc:
        _check(
            exc.recoverable_records == 120,
            f"expected 120 recoverable records, got {exc.recoverable_records}",
        )
    else:
        raise AssertionError("stale-header trace loaded without error")
    recovered = load_trace(path, recover=True)
    _check(len(recovered) == 120, "recover=True did not reattach the records")
    return "stale n=0 header detected; all on-disk records recoverable"


def _scenario_trace_bitflip(tmp: Path) -> str:
    from repro.dram.controller import MemoryController
    from repro.workloads.trace_io import TraceCorruptionError, write_trace

    config = _small_config()
    addrs, arrive, flags = _columns(config, n=300)
    path = tmp / "bitflip.dramtrace"
    write_trace(path, addrs, arrive, flags)
    bit_flip_trace(path, record_index=50)
    controller = MemoryController(config)
    try:
        controller.simulate_trace_streaming(path, window=32)
    except TraceCorruptionError as exc:
        _check(exc.byte_offset >= 0, "corruption error carries no byte offset")
        _check(
            0 < exc.recoverable_records <= 50,
            f"recoverable prefix {exc.recoverable_records} inconsistent "
            "with a flip at record 50",
        )
    else:
        raise AssertionError("streaming simulated a bit-flipped trace")
    return (
        "flipped address bit tripped streaming validation with a byte "
        "offset instead of simulating garbage"
    )


def _scenario_sweep_interrupt_resume(tmp: Path) -> str:
    from repro.core.strategies import Scheme
    from repro.cosim import (
        ExpertReplayPlanner,
        SweepInterrupted,
        run_load_sweep,
        small_cosim_dram,
    )
    from repro.experiments import LoopConfig, ServingConfig
    from repro.serving.simulator import CostModel

    rates = [2e4, 1e6, 4e6]
    kwargs = dict(
        n_requests=40,
        seed=1,
        serving=ServingConfig(mean_prompt_tokens=20, mean_decode_tokens=5),
        loop=LoopConfig(max_iterations=8),
    )

    def make_inputs():
        cost = CostModel(
            encode_seconds_per_token=2e-9, decode_seconds_per_token=2e-8
        )
        planner = ExpertReplayPlanner(
            n_experts=16, top_k=2, n_moe_layers=2,
            dram_config=small_cosim_dram(), bytes_per_token=8192,
            max_blocks_per_request=1024, expert_bytes=1 << 18, seed=1,
        )
        return cost, planner

    cost, planner = make_inputs()
    baseline, _ = run_load_sweep(cost, Scheme.MD_LB, planner, rates, **kwargs)
    baseline_path = tmp / "uninterrupted.json"
    baseline.save(baseline_path)

    ckpt = tmp / "resumed.json.sweep.ckpt"
    cost, planner = make_inputs()
    try:
        run_load_sweep(
            cost, Scheme.MD_LB, planner, rates,
            checkpoint_path=ckpt,
            on_point=interrupt_after(1),
            **kwargs,
        )
    except SweepInterrupted:
        pass
    else:
        raise AssertionError("injected interrupt did not fire")
    _check(ckpt.exists(), "interrupt left no checkpoint behind")

    cost, planner = make_inputs()
    resumed, _ = run_load_sweep(
        cost, Scheme.MD_LB, planner, rates,
        checkpoint_path=ckpt,
        resume=True,
        **kwargs,
    )
    resumed_path = tmp / "resumed.json"
    resumed.save(resumed_path)
    _check(
        resumed_path.read_bytes() == baseline_path.read_bytes(),
        "resumed sweep JSON differs from the uninterrupted sweep",
    )
    _check(not ckpt.exists(), "completed sweep did not clean up its checkpoint")
    return (
        "sweep interrupted after 1 point, resumed from checkpoint; "
        "output JSON byte-identical to the uninterrupted sweep"
    )


def run_chaos_smoke() -> list[ChaosScenario]:
    """Run every chaos scenario; never raises -- failures come back as
    ``passed=False`` scenarios with the traceback in ``detail``."""
    report: list[ChaosScenario] = []
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp_str:
        tmp = Path(tmp_str)
        scenarios = [
            ("worker-kill", _scenario_worker_kill),
            ("worker-raise", _scenario_worker_raise),
            ("worker-hang", _scenario_worker_hang),
            ("trace-truncate", lambda: _scenario_trace_truncate(tmp)),
            ("trace-header-mismatch", lambda: _scenario_trace_header_mismatch(tmp)),
            ("trace-bitflip", lambda: _scenario_trace_bitflip(tmp)),
            ("sweep-interrupt-resume", lambda: _scenario_sweep_interrupt_resume(tmp)),
        ]
        for name, fn in scenarios:
            try:
                detail = fn()
            except Exception:
                report.append(
                    ChaosScenario(name=name, passed=False,
                                  detail=traceback.format_exc())
                )
            else:
                report.append(ChaosScenario(name=name, passed=True, detail=detail))
    return report


def format_chaos(report: list[ChaosScenario]) -> str:
    lines = ["chaos smoke: deterministic fault injection across the runtime", ""]
    for scenario in report:
        status = "PASS" if scenario.passed else "FAIL"
        lines.append(f"[{status}] {scenario.name}")
        for raw in scenario.detail.splitlines():
            lines.append(f"       {raw}")
    n_passed = sum(1 for s in report if s.passed)
    lines.append("")
    lines.append(f"{n_passed}/{len(report)} scenario(s) passed")
    return "\n".join(lines)
