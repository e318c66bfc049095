"""Serving simulator: queueing behaviour and scheme comparison."""

import pytest

from repro.core.strategies import Scheme
from repro.serving.simulator import CostModel, ServingSimulator
from repro.serving.workload import Request, RequestGenerator


@pytest.fixture
def cheap_model():
    return CostModel(encode_seconds_per_token=1e-4, decode_seconds_per_token=1e-3)


def req(i, arrival, prompt=100, decode=10):
    return Request(request_id=i, arrival=arrival, prompt_tokens=prompt, decode_tokens=decode)


def test_single_request_latency_is_service_time(cheap_model):
    sim = ServingSimulator(cheap_model, Scheme.MD_LB)
    service = cheap_model.service_time(req(0, 1.0))
    result = sim.run([req(0, 1.0)])
    assert result.n_completed == 1
    assert result.completed[0].latency == pytest.approx(service)
    assert result.completed[0].queue_delay == 0.0


def test_fifo_queueing(cheap_model):
    """Two simultaneous arrivals: the second waits for the first."""
    sim = ServingSimulator(cheap_model, Scheme.MD_LB)
    service = cheap_model.service_time(req(0, 1.0))
    result = sim.run([req(0, 1.0), req(1, 1.0)])
    by_id = {c.request.request_id: c for c in result.completed}
    assert by_id[1].queue_delay == pytest.approx(service)
    assert by_id[1].latency == pytest.approx(2 * service)


def test_utilization_and_throughput(cheap_model):
    sim = ServingSimulator(cheap_model, Scheme.MD_LB)
    requests = [req(i, 0.001 * (i + 1)) for i in range(20)]
    result = sim.run(requests)
    assert result.n_completed == 20
    assert 0 < result.utilization <= 1.0
    assert result.throughput_rps > 0


def test_queue_limit_rejects(cheap_model):
    sim = ServingSimulator(cheap_model, Scheme.MD_LB, queue_limit=2)
    requests = [req(i, 0.0001) for i in range(10)]
    result = sim.run(requests)
    assert result.rejected == 10 - 1 - 2  # one in service, two queued
    assert result.n_completed == 3


def test_latency_grows_with_load(cheap_model):
    """The hockey stick: near-saturation latency blows up."""
    from repro.cosim import run_load_sweep
    from repro.experiments import ServingConfig

    service = cheap_model.service_time(req(0, 0, prompt=512, decode=32))
    capacity = 1.0 / service
    # planner=None runs the grid serving-only (open loop); queue_limit
    # 512 matches the historical standalone loop the deleted
    # repro.serving.load_sweep adapter preserved.
    _, runs = run_load_sweep(
        cheap_model, Scheme.MD_LB, None,
        [0.2 * capacity, 0.95 * capacity],
        n_requests=300,
        serving=ServingConfig(queue_limit=512),
    )
    low, high = runs[0].closed_loop, runs[1].closed_loop
    assert high.mean_latency > 1.5 * low.mean_latency
    assert high.utilization > low.utilization


def test_percentiles_ordered(cheap_model):
    sim = ServingSimulator(cheap_model, Scheme.MD_LB)
    requests = RequestGenerator(rate=20.0, seed=0).generate(100)
    result = sim.run(requests)
    p50 = result.latency_percentile(50)
    p99 = result.latency_percentile(99)
    assert 0 < p50 <= p99


def test_validation(cheap_model):
    with pytest.raises(ValueError):
        ServingSimulator(cheap_model, Scheme.MD_LB, queue_limit=0)


def test_dram_replay_trace_carries_serving_arrivals(cheap_model):
    """The serving-to-DRAM replay hook: DRAM request arrivals come
    from serving-request start times and drive nonzero queueing at the
    memory level."""
    import dataclasses

    from repro.dram.config import DRAMConfig, DRAMOrganization, LPDDR5X_8533
    from repro.dram.controller import MemoryController
    from repro.dram.reference import ReferenceMemoryController
    from repro.serving.simulator import dram_replay_trace

    sim = ServingSimulator(cheap_model, Scheme.MD_LB)
    requests = [req(i, 0.002 * (i + 1), prompt=20, decode=5) for i in range(6)]
    result = sim.run(requests)

    trace = dram_replay_trace(
        result, bytes_per_token=256, max_blocks_per_request=64, seed=1
    )
    assert trace, "replay produced no DRAM requests"
    clock = LPDDR5X_8533.timing.clock_hz
    starts = sorted(int(round(c.start * clock)) for c in result.completed)
    assert sorted({r.arrive_cycle for r in trace}) == sorted(set(starts))

    # The replayed stream drains on both controllers identically and
    # reports queueing (each serving burst lands at one instant).
    small = DRAMConfig(
        organization=DRAMOrganization(
            n_channels=2, n_ranks=1, n_bankgroups=2, banks_per_group=2,
            n_rows=4096, row_bytes=2048, access_bytes=64,
        ),
        timing=LPDDR5X_8533.timing,
    )
    fast_trace = dram_replay_trace(
        result, dram_config=small, bytes_per_token=256,
        max_blocks_per_request=64, seed=1,
    )
    ref_trace = dram_replay_trace(
        result, dram_config=small, bytes_per_token=256,
        max_blocks_per_request=64, seed=1,
    )
    fast_stats = MemoryController(small).simulate(fast_trace)
    ref_stats = ReferenceMemoryController(small).simulate(ref_trace)
    assert dataclasses.asdict(fast_stats) == dataclasses.asdict(ref_stats)
    assert fast_stats.queue_delay_max > 0
    assert sum(fast_stats.idle_channel_cycles.values()) > 0


def test_dram_replay_trace_validation(cheap_model):
    from repro.serving.simulator import ServingResult, dram_replay_trace

    empty = ServingResult(scheme=Scheme.MD_LB)
    assert dram_replay_trace(empty) == []
    with pytest.raises(ValueError):
        dram_replay_trace(empty, bytes_per_token=0)
    with pytest.raises(ValueError):
        dram_replay_trace(empty, region_bytes=0)


@pytest.mark.slow
def test_cost_model_from_runtime_ranks_schemes():
    """MD+LB sustains more load than GPU+PM on the same model."""
    from repro.workloads import flores_like

    sc = flores_like(batch=1)
    pm = CostModel.from_runtime(sc.model, Scheme.GPU_PM, profile=sc.profile,
                                ref_decode_steps=4)
    lb = CostModel.from_runtime(sc.model, Scheme.MD_LB, profile=sc.profile,
                                ref_decode_steps=4)
    request = req(0, 0.0, prompt=512, decode=32)
    assert lb.service_time(request) < pm.service_time(request)
