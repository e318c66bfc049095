"""Closed-loop fixed point: convergence and load response.

The acceptance property: at near-zero offered load the closed loop
reproduces the open-loop latencies (no memory contention to feed
back), at saturating load the closed-loop p99 sits strictly above the
open-loop p99 (the feedback the open-loop replay cannot produce), and
the loop reports convergence within its iteration budget.
"""

import numpy as np
import pytest

from repro.core.strategies import Scheme
from repro.cosim import (
    CosimDriver,
    ExpertReplayPlanner,
    SyntheticReplayPlanner,
    small_cosim_dram,
)
from repro.cluster.backend import ShardedDramBackend
from repro.cosim.driver import make_estimator
from repro.dram.controller import MemoryController
from repro.dram.parallel import ParallelDrainExecutor
from repro.experiments import LoopConfig, ServingConfig
from repro.serving.simulator import CostModel
from repro.serving.workload import RequestGenerator

LOW_RATE = 2e4
SATURATING_RATE = 4e6


@pytest.fixture(scope="module")
def parts():
    cost = CostModel(encode_seconds_per_token=2e-9, decode_seconds_per_token=2e-8)
    planner = ExpertReplayPlanner(
        n_experts=16, top_k=2, n_moe_layers=2,
        dram_config=small_cosim_dram(), bytes_per_token=8192,
        max_blocks_per_request=1024, expert_bytes=1 << 18, seed=1,
    )
    return cost, planner


def run_at(rate, cost, planner, n_requests=60, max_iterations=16):
    generator = RequestGenerator(
        rate, mean_prompt_tokens=20, mean_decode_tokens=5, seed=1
    )
    driver = CosimDriver(
        cost, Scheme.MD_LB, planner,
        loop=LoopConfig(max_iterations=max_iterations),
    )
    return driver.run(generator.generate(n_requests))


def test_converges_at_low_load_and_matches_open_loop(parts):
    cost, planner = parts
    result = run_at(LOW_RATE, cost, planner)
    assert result.converged
    assert result.n_iterations <= LoopConfig().max_iterations
    open_p99 = result.open_loop.latency_percentile(99)
    closed_p99 = result.closed_loop.latency_percentile(99)
    # No contention at near-zero load: closed == open within 5%.
    assert closed_p99 == pytest.approx(open_p99, rel=0.05)
    assert result.extra_seconds_per_token < 1e-10


def test_saturating_load_inflates_p99(parts):
    cost, planner = parts
    result = run_at(SATURATING_RATE, cost, planner)
    assert result.converged
    open_p99 = result.open_loop.latency_percentile(99)
    closed_p99 = result.closed_loop.latency_percentile(99)
    assert closed_p99 >= open_p99
    # And not marginally: memory queueing dominates at saturation.
    assert closed_p99 > 5 * open_p99
    assert result.extra_seconds_per_token > 0


def test_iteration_records(parts):
    cost, planner = parts
    result = run_at(1e6, cost, planner)
    assert result.converged
    its = result.iterations
    assert len(its) == result.n_iterations
    assert [it.index for it in its] == list(range(len(its)))
    assert its[0].extra_seconds_per_token == 0.0
    assert its[0].p99_delta == float("inf")
    # The final iteration met the p99 tolerance.
    assert its[-1].p99_delta <= LoopConfig().p99_tolerance
    for it in its:
        assert it.completed > 0
        assert it.dram_total_cycles > 0
        assert it.measured_seconds_per_token >= 0
    # The final trace/stats correspond to a real run and are exportable.
    assert result.final_trace is not None
    assert len(result.final_trace) == result.final_dram_stats.requests


def test_synthetic_planner_loop_runs(parts):
    cost, _ = parts
    planner = SyntheticReplayPlanner(
        dram_config=small_cosim_dram(), bytes_per_token=8192,
        max_blocks_per_request=1024, seed=1,
    )
    result = run_at(1e6, cost, planner, n_requests=40)
    assert result.n_iterations >= 1
    assert result.final_dram_stats.queue_delay_max > 0


def test_isolation_baseline_is_contention_free(parts):
    """The serialized calibration run reports zero cross-request
    contention against itself: feeding a trace's own isolated
    makespans back subtracts them exactly."""
    cost, planner = parts
    generator = RequestGenerator(
        LOW_RATE, mean_prompt_tokens=20, mean_decode_tokens=5, seed=2
    )
    driver = CosimDriver(cost, Scheme.MD_LB, planner)
    from repro.serving.simulator import ServingSimulator

    serving = ServingSimulator(cost, Scheme.MD_LB).run(generator.generate(20))
    trace = planner.replay(serving)
    iso_a = driver._isolated_makespans(trace)
    iso_b = driver._isolated_makespans(trace)
    assert iso_a == iso_b
    assert set(iso_a) == set(trace.tokens_by_request)
    assert all(mk > 0 for mk in iso_a.values())


def test_empty_requests_rejected(parts):
    cost, planner = parts
    with pytest.raises(ValueError):
        CosimDriver(cost, Scheme.MD_LB, planner).run([])


def test_driver_reuse_recalibrates_baselines(parts):
    """A second run() with a different request list (same request_ids,
    different token counts -> different bursts) must not reuse the
    first run's isolation baselines."""
    cost, planner = parts
    driver = CosimDriver(cost, Scheme.MD_LB, planner)
    gen_a = RequestGenerator(LOW_RATE, mean_prompt_tokens=20,
                             mean_decode_tokens=5, seed=1)
    driver.run(gen_a.generate(10))
    cache_a = dict(driver._iso_cache)
    gen_b = RequestGenerator(LOW_RATE, mean_prompt_tokens=120,
                             mean_decode_tokens=40, seed=8)
    driver.run(gen_b.generate(10))
    cache_b = dict(driver._iso_cache)
    assert set(cache_a) == set(cache_b) == set(range(10))
    assert cache_a != cache_b


def test_drain_executor_bit_identical_loop(parts):
    """A backend draining through an injected ParallelDrainExecutor is
    bit-identical per iteration to the serial loop -- the convergence
    trajectory, not just the endpoint, must not change."""
    cost, planner = parts
    generator = RequestGenerator(
        1e6, mean_prompt_tokens=20, mean_decode_tokens=5, seed=1
    )
    requests = generator.generate(40)
    loop = LoopConfig(max_iterations=16)
    serial = CosimDriver(cost, Scheme.MD_LB, planner, loop=loop).run(requests)
    with ParallelDrainExecutor(2) as executor:
        backend = ShardedDramBackend(
            planner.config, window=loop.scheduler_window, executor=executor
        )
        pooled = CosimDriver(
            cost, Scheme.MD_LB, planner, loop=loop, backend=backend
        ).run(requests)
    assert pooled.iterations == serial.iterations
    assert pooled.converged == serial.converged
    assert pooled.extra_seconds_per_token == serial.extra_seconds_per_token


def test_non_convergence_reports_best_residual_iterate(parts):
    """A loop that exhausts its budget must report the iterate with the
    smallest |measured - applied| residual -- not whatever iteration
    happened to run last -- and expose that residual."""
    cost, planner = parts
    generator = RequestGenerator(
        SATURATING_RATE, mean_prompt_tokens=20, mean_decode_tokens=5, seed=1
    )
    driver = CosimDriver(
        cost, Scheme.MD_LB, planner,
        # tolerance 0: convergence is impossible short of an exact
        # fixed point, so the budget always runs out.
        loop=LoopConfig(max_iterations=4, p99_tolerance=0.0),
    )
    result = driver.run(generator.generate(40))
    assert not result.converged
    residuals = [
        abs(it.measured_seconds_per_token - it.extra_seconds_per_token)
        for it in result.iterations
    ]
    best = min(range(len(residuals)), key=lambda i: residuals[i])
    assert result.residual_seconds_per_token == residuals[best]
    assert result.extra_seconds_per_token == (
        result.iterations[best].extra_seconds_per_token
    )
    assert result.closed_loop.latency_percentile(99) == (
        result.iterations[best].serving_p99
    )


def test_converged_run_residual_within_tolerance(parts):
    cost, planner = parts
    result = run_at(LOW_RATE, cost, planner)
    assert result.converged
    last = result.iterations[-1]
    assert result.residual_seconds_per_token == abs(
        last.measured_seconds_per_token - last.extra_seconds_per_token
    )


def _serialized_reference(driver, trace, offsets):
    """The isolation serializer as a plain loop over request runs,
    drained in one cold ``simulate_arrays`` call: the reference both
    memoized isolation baselines are pinned to."""
    t = driver.planner.config.timing
    per_access = t.tRC + t.tCL + t.burst_cycles + 2
    rids = trace.request_ids
    bounds = (np.flatnonzero(np.diff(rids)) + 1).tolist()
    runs = list(zip([0] + bounds, bounds + [len(rids)]))
    arrive = np.empty(len(rids), dtype=np.int64)
    base = 0
    for lo, hi in runs:
        rel = trace.arrive_cycles[lo:hi] - trace.arrive_cycles[lo]
        if not offsets:
            rel = np.zeros(hi - lo, dtype=np.int64)
        arrive[lo:hi] = base + rel
        base += int(rel[-1]) + (hi - lo) * per_access + 64
    _, timings = MemoryController(driver.planner.config).simulate_arrays(
        trace.addrs, arrive, trace.flags, detail=True
    )
    return runs, arrive, timings.complete_cycles


def test_memoized_isolation_baselines_equal_one_cold_drain(parts):
    cost, planner = parts
    serving = ServingConfig(
        engine="batching", mean_prompt_tokens=20, mean_decode_tokens=5
    )
    requests = RequestGenerator(
        SATURATING_RATE, mean_prompt_tokens=20, mean_decode_tokens=5, seed=3
    ).generate(30)
    trace = planner.replay(make_estimator(cost, Scheme.MD_LB, serving).serve(requests))
    assert trace.phases is not None
    driver = CosimDriver(cost, Scheme.MD_LB, planner)

    runs, arrive, complete = _serialized_reference(driver, trace, offsets=True)
    assert np.any(arrive[1:] - arrive[:-1] > 0)
    for _ in range(2):  # cold, then served from the driver's memo
        latencies = driver._isolated_element_latencies(trace)
        assert np.array_equal(latencies, complete - arrive)
    assert driver.drain_memo.hits >= len(runs)

    runs, arrive, complete = _serialized_reference(driver, trace, offsets=False)
    expected = {
        int(trace.request_ids[lo]): int(complete[lo:hi].max() - arrive[lo])
        for lo, hi in runs
    }
    assert driver._isolated_makespans(trace) == expected
