"""Extension bench: the closed-loop serving<->DRAM hockey stick.

Not a paper figure -- the memory-level extension of the serving-load
bench: at which offered load does DRAM queueing start inflating the
serving tail, and by how much does the open-loop replay under-report
it?  Regenerates the `repro cosim sweep` table on the scaled-down
co-simulation geometry and asserts the closed-loop shape.
"""

import pytest

from repro.core.strategies import Scheme
from repro.cosim import (
    ExpertReplayPlanner,
    format_sweep,
    run_load_sweep,
    small_cosim_dram,
)
from repro.experiments import LoopConfig, ServingConfig
from repro.serving.simulator import CostModel

RATES = [2e4, 2e5, 1e6, 4e6]


def build_sweep(engine="fifo", mean_prompt_tokens=20, mean_decode_tokens=5):
    cost = CostModel(encode_seconds_per_token=2e-9, decode_seconds_per_token=2e-8)
    planner = ExpertReplayPlanner(
        n_experts=16, top_k=2, n_moe_layers=2,
        dram_config=small_cosim_dram(), bytes_per_token=8192,
        max_blocks_per_request=1024, expert_bytes=1 << 18, seed=1,
    )
    return run_load_sweep(
        cost, Scheme.MD_LB, planner, RATES,
        n_requests=60, seed=1,
        serving=ServingConfig(
            engine=engine,
            mean_prompt_tokens=mean_prompt_tokens,
            mean_decode_tokens=mean_decode_tokens,
        ),
        loop=LoopConfig(max_iterations=16),
    )


@pytest.mark.benchmark(min_rounds=1, max_time=1)
def test_cosim_hockey_stick(benchmark, report):
    sweep, runs = benchmark.pedantic(build_sweep, rounds=1, iterations=1)
    report("cosim_hockey_stick", format_sweep(sweep))

    points = sweep.points
    # Every grid point converged within its iteration budget.
    assert all(p.converged for p in points)
    assert all(p.n_iterations <= 16 for p in points)
    # Closed-loop p99 rises monotonically with offered load.
    closed = [p.closed_p99 for p in points]
    assert closed == sorted(closed)
    # Low load: feedback vanishes; saturation: it dominates.
    assert points[0].closed_p99 == pytest.approx(points[0].open_p99, rel=0.05)
    assert points[-1].closed_p99 > 5 * points[-1].open_p99
    # The DRAM idles less as offered load grows.
    idles = [p.dram_idle_cycles for p in points]
    assert idles == sorted(idles, reverse=True)


@pytest.mark.benchmark(min_rounds=1, max_time=1)
def test_batching_recovers_saturation_tail(benchmark, report):
    """Continuous batching vs fifo on the decode-heavy mix: at the
    saturating grid point the batch-amortized weight stream keeps the
    closed-loop p99 at or below the fifo tail, and the batching sweep
    reports an SLO capacity."""

    def build_both():
        fifo, _ = build_sweep("fifo", mean_prompt_tokens=8, mean_decode_tokens=24)
        batching, _ = build_sweep("batching", mean_prompt_tokens=8, mean_decode_tokens=24)
        return fifo, batching

    fifo, batching = benchmark.pedantic(build_both, rounds=1, iterations=1)
    report("cosim_batching_vs_fifo", format_sweep(batching))

    assert fifo.engine == "fifo" and batching.engine == "batching"
    assert all(p.converged for p in fifo.points + batching.points)
    # The headline comparison only holds at saturation: at mid load
    # the stepped admission adds latency without the bandwidth win.
    assert batching.points[-1].closed_p99 <= fifo.points[-1].closed_p99
    # Both sweeps answer the capacity question under their auto SLO.
    assert fifo.slo_capacity_rps > 0
    assert batching.slo_capacity_rps > 0
    # Batching carries per-phase tails and a split surcharge.
    last = batching.points[-1]
    assert last.closed_ttft_p99 > 0
    assert last.extra_prefill_seconds_per_token + last.extra_decode_seconds_per_token > 0
