"""Closed-loop serving<->DRAM co-simulation: the memory-level hockey stick.

Runs the `repro.cosim` fixed-point loop over a three-point offered-load
grid and prints converged closed-loop tail latency next to the
open-loop (no-feedback) prediction.  At low load the two agree -- the
serving requests' DRAM bursts never overlap, so there is no queueing
to feed back.  Near memory saturation the open-loop model keeps
promising sub-microsecond tails while the closed loop shows the
serving latency the memory system can actually deliver.

The geometry is the scaled-down test configuration (synthetic
per-token costs, 2-channel DRAM) so the example finishes in seconds;
swap in `CostModel.from_runtime` and the paper's LPDDR5X-8533 config
for full-scale studies (see `repro cosim --help`).

Run:  python examples/closed_loop_cosim.py
"""

from repro.core.strategies import Scheme
from repro.cosim import (
    ExpertReplayPlanner,
    format_sweep,
    run_load_sweep,
    small_cosim_dram,
)
from repro.experiments import LoopConfig, ServingConfig
from repro.serving.simulator import CostModel


def main() -> None:
    cost = CostModel(encode_seconds_per_token=2e-9, decode_seconds_per_token=2e-8)
    planner = ExpertReplayPlanner(
        n_experts=16,
        top_k=2,
        n_moe_layers=2,
        dram_config=small_cosim_dram(),
        bytes_per_token=8192,
        max_blocks_per_request=512,
        expert_bytes=1 << 18,
        seed=1,
    )
    rates = [2e4, 1e6, 4e6]
    print("closed-loop co-simulation over a 3-point offered-load grid")
    print(f"scheme md+lb, {planner.config.organization.n_channels}-channel DRAM, "
          f"expert-faithful replay of {planner.n_experts} experts\n")
    sweep, runs = run_load_sweep(
        cost,
        Scheme.MD_LB,
        planner,
        rates,
        n_requests=40,
        seed=1,
        serving=ServingConfig(mean_prompt_tokens=20, mean_decode_tokens=5),
        loop=LoopConfig(max_iterations=16),
    )
    print(format_sweep(sweep))

    low, _, high = sweep.points
    print(
        f"\nlow load ({low.rate:g} req/s): closed-loop p99 is "
        f"{low.closed_p99 / low.open_p99:.2f}x the open-loop p99 -- no "
        "memory contention, the feedback vanishes."
    )
    print(
        f"saturating load ({high.rate:g} req/s): closed-loop p99 is "
        f"{high.closed_p99 / high.open_p99:.1f}x the open-loop prediction "
        f"(converged in {high.n_iterations} iterations; per-token memory "
        f"surcharge {high.extra_seconds_per_token * 1e9:.1f} ns)."
    )
    print(
        "\nReading: open-loop replay under-reports tail latency once DRAM "
        "queueing feeds back into service times -- the closed loop is where "
        "the hockey stick actually bends."
    )


if __name__ == "__main__":
    main()
