"""Phase-aware co-simulation: the batching engine through the loop.

Covers the per-phase trace (burst ids / phase labels, stable per-
request block unions), the two-surcharge fixed point, the headline
comparison (batching p99 at or below fifo p99 at a saturating load on
a decode-heavy mix -- the paper's bandwidth-bound regime), and the
engine-aware sweep with its SLO-capacity answer.
"""

import numpy as np
import pytest

from repro.core.strategies import Scheme
from repro.cosim import (
    PHASE_DECODE,
    PHASE_PREFILL,
    CosimDriver,
    ExpertReplayPlanner,
    SyntheticReplayPlanner,
    run_load_sweep,
    slo_capacity,
    small_cosim_dram,
)
from repro.cosim.sweep import SweepPoint
from repro.experiments import LoopConfig, ServingConfig
from repro.serving.engine import BatchConfig, BatchingEngine, PhaseCostModel
from repro.serving.simulator import CostModel, ServingSimulator
from repro.serving.workload import RequestGenerator

SATURATING_RATE = 4e6
# Decode-heavy mix: most tokens are bandwidth-bound decodes, where
# batch-amortized weight streaming separates batching from fifo.
MEAN_PROMPT = 8
MEAN_DECODE = 24


@pytest.fixture(scope="module")
def parts():
    cost = CostModel(encode_seconds_per_token=2e-9, decode_seconds_per_token=2e-8)
    return cost, make_planner


def make_planner():
    return ExpertReplayPlanner(
        n_experts=16, top_k=2, n_moe_layers=2,
        dram_config=small_cosim_dram(), bytes_per_token=8192,
        max_blocks_per_request=1024, expert_bytes=1 << 18, seed=1,
    )


def requests_at(rate, n=60, seed=1):
    return RequestGenerator(
        rate, mean_prompt_tokens=MEAN_PROMPT, mean_decode_tokens=MEAN_DECODE, seed=seed
    ).generate(n)


def run_engine(cost, rate, engine, n=60, max_iterations=16):
    driver = CosimDriver(
        cost, Scheme.MD_LB, make_planner(),
        serving=ServingConfig(engine=engine),
        loop=LoopConfig(max_iterations=max_iterations),
    )
    return driver.run(requests_at(rate, n))


# -- the phase trace --------------------------------------------------------


def test_phase_trace_structure(parts):
    cost, _ = parts
    planner = make_planner()
    serving = BatchingEngine(
        PhaseCostModel.from_cost_model(cost, decode_marginal_fraction=0.5),
        Scheme.MD_LB,
        BatchConfig(),
    ).run(requests_at(1e5))
    trace = planner.replay(serving)
    assert trace.burst_ids is not None and trace.phases is not None
    assert len(trace.burst_ids) == len(trace) == len(trace.phases)
    assert set(np.unique(trace.phases)) <= {PHASE_PREFILL, PHASE_DECODE}
    assert (np.unique(trace.phases) == [PHASE_PREFILL, PHASE_DECODE]).all()
    # Each request's block union is exactly the legacy deterministic
    # stream -- phase bursts re-time the traffic, they don't change it.
    for c in serving.completed[:10]:
        rid = c.request.request_id
        tokens = c.request.prompt_tokens + c.request.decode_tokens
        mask = trace.request_ids == rid
        legacy = planner.request_blocks(rid, tokens) * planner._step
        assert set(trace.addrs[mask].tolist()) <= set(legacy.tolist())
        # Prefill traffic is emitted before any decode burst.
        pre = trace.arrive_cycles[mask & (trace.phases == PHASE_PREFILL)]
        dec = trace.arrive_cycles[mask & (trace.phases == PHASE_DECODE)]
        if len(pre) and len(dec):
            assert pre.max() <= dec.min()


def test_decode_bursts_amortize_with_batch(parts):
    cost, _ = parts
    planner = make_planner()

    def decode_elems(max_batch):
        serving = BatchingEngine(
            PhaseCostModel.from_cost_model(cost, decode_marginal_fraction=0.5),
            Scheme.MD_LB,
            BatchConfig(max_batch=max_batch),
        ).run(requests_at(SATURATING_RATE))
        trace = planner.replay(serving)
        return int((trace.phases == PHASE_DECODE).sum())

    # At saturating load a deeper batch shares the weight stream, so
    # the emitted decode traffic shrinks.  (max_batch=1 is the fused
    # fifo path and carries no phase labels at all.)
    assert decode_elems(8) < decode_elems(2)


# -- the two-surcharge fixed point ------------------------------------------


def test_batching_loop_converges_with_phase_extras(parts):
    cost, _ = parts
    result = run_engine(cost, SATURATING_RATE, "batching")
    assert result.converged
    assert result.extra_prefill_seconds_per_token >= 0
    assert result.extra_decode_seconds_per_token >= 0
    assert (
        result.extra_prefill_seconds_per_token
        + result.extra_decode_seconds_per_token
    ) > 0
    last = result.iterations[-1]
    assert last.serving_ttft_p99 > 0
    assert last.serving_queue_delay_p99 >= 0
    assert last.measured_prefill_seconds_per_token >= 0
    assert last.measured_decode_seconds_per_token >= 0
    assert result.closed_loop.engine == "batching"


def test_batching_low_load_matches_open_loop(parts):
    cost, _ = parts
    result = run_engine(cost, 2e4, "batching")
    assert result.converged
    open_p99 = result.open_loop.latency_percentile(99)
    closed_p99 = result.closed_loop.latency_percentile(99)
    assert closed_p99 == pytest.approx(open_p99, rel=0.05)


def test_batching_beats_fifo_at_saturation(parts):
    """The headline: continuous batching's amortized decode streaming
    keeps the closed-loop tail below fifo's at a saturating load."""
    cost, _ = parts
    fifo = run_engine(cost, SATURATING_RATE, "fifo")
    batching = run_engine(cost, SATURATING_RATE, "batching")
    assert fifo.converged and batching.converged
    assert (
        batching.closed_loop.latency_percentile(99)
        <= fifo.closed_loop.latency_percentile(99)
    )


def test_synthetic_planner_batching_token_share_fallback(parts):
    """A planner without phase bursts still drives the batching loop
    (lump contention split by token share)."""
    cost, _ = parts
    planner = SyntheticReplayPlanner(
        dram_config=small_cosim_dram(), bytes_per_token=8192,
        max_blocks_per_request=1024, seed=1,
    )
    driver = CosimDriver(
        cost, Scheme.MD_LB, planner,
        serving=ServingConfig(engine="batching"),
        loop=LoopConfig(max_iterations=8),
    )
    result = driver.run(requests_at(1e5, n=30))
    assert result.closed_loop is not None
    assert result.closed_loop.n_completed == 30


# -- the engine-aware sweep -------------------------------------------------


def test_sweep_batching_engine_and_slo(parts):
    cost, _ = parts
    rates = [1e5, SATURATING_RATE]
    sweep, runs = run_load_sweep(
        cost, Scheme.MD_LB, make_planner(), rates,
        n_requests=40,
        serving=ServingConfig(
            engine="batching",
            mean_prompt_tokens=MEAN_PROMPT, mean_decode_tokens=MEAN_DECODE,
        ),
        loop=LoopConfig(max_iterations=12),
    )
    assert sweep.engine == "batching"
    assert sweep.config["engine"] == "batching"
    assert sweep.config["max_batch"] == 8
    assert sweep.slo_p99_seconds > 0
    assert sweep.slo_auto
    assert 0 < sweep.slo_capacity_rps <= rates[-1]
    for p in sweep.points:
        assert p.closed_ttft_p99 > 0
        assert p.closed_queue_delay_p99 >= 0
        assert p.closed_tpot_p99 >= 0
    # Round-trip through the versioned JSON keeps the new fields.
    d = sweep.to_dict()
    from repro.cosim import SweepResult

    back = SweepResult.from_dict(d)
    assert back.engine == "batching"
    assert back.slo_capacity_rps == sweep.slo_capacity_rps
    assert back.points[0].closed_ttft_p99 == sweep.points[0].closed_ttft_p99


def test_serving_only_sweep_matches_simulator(parts):
    """planner=None runs the engine open loop and wraps each point as
    a trivially-converged cosim result."""
    cost, _ = parts
    rates = [1e5, 1e6]
    sweep, runs = run_load_sweep(
        cost, Scheme.MD_LB, None, rates,
        n_requests=50, seed=1,
        serving=ServingConfig(
            mean_prompt_tokens=MEAN_PROMPT, mean_decode_tokens=MEAN_DECODE
        ),
    )
    assert sweep.config["serving_only"]
    for rate, run in zip(rates, runs):
        assert run.converged
        direct = ServingSimulator(cost, Scheme.MD_LB).run(
            requests_at(rate, n=50)
        )
        assert run.closed_loop.latency_percentile(99) == direct.latency_percentile(99)
        assert run.closed_loop.busy_seconds == direct.busy_seconds


def test_slo_capacity_interpolation():
    def point(rate, p99):
        return SweepPoint(
            rate=rate, converged=True, n_iterations=1,
            open_p50=0.0, open_p99=p99, open_max=p99,
            closed_p50=0.0, closed_p99=p99, closed_max=p99,
            utilization=0.5, completed=1, rejected=0,
            extra_seconds_per_token=0.0,
            dram_queue_delay_mean=0.0, dram_queue_delay_p99=0.0,
            dram_idle_cycles=0, dram_total_cycles=1,
        )

    points = [point(1.0, 1e-3), point(2.0, 3e-3), point(4.0, 9e-3)]
    # Threshold between the first two grid points: linear interpolation.
    assert slo_capacity(points, 2e-3) == pytest.approx(1.5)
    # All compliant -> the highest rate; none compliant -> zero.
    assert slo_capacity(points, 1.0) == pytest.approx(4.0)
    assert slo_capacity(points, 1e-6) == 0.0
