"""Continuous batching vs FIFO: recovering the saturation hockey stick.

Runs the same offered-load grid through the closed serving<->DRAM loop
twice -- once with the seed FIFO engine (one request at a time, serial
decode pricing) and once with the continuous-batching engine (prefill
admission into in-flight decode slots, batch-amortized decode steps).
On a decode-heavy request mix the decode phase is bandwidth-bound:
every decode step streams the expert weights from DRAM, and a batched
step streams them *once* for the whole batch.  That amortization is
invisible at low load (batches never form), costs a little at mid load
(stepped admission quantizes start times), and wins at saturation --
the regime the paper's memory-driven design targets.

The run prints both closed-loop latency curves, the per-phase tails
the batching engine tracks (TTFT / queue delay / TPOT), and each
engine's SLO capacity: the largest offered load whose closed-loop p99
still meets the latency target, interpolated on the grid.

The geometry is the scaled-down test configuration (synthetic
per-token costs, 2-channel DRAM) so the example finishes in tens of
seconds; see `repro cosim sweep --engine batching` for the CLI route.

Run:  python examples/continuous_batching.py
"""

from repro.core.strategies import Scheme
from repro.cosim import (
    ExpertReplayPlanner,
    run_load_sweep,
    small_cosim_dram,
)
from repro.experiments import LoopConfig, ServingConfig
from repro.serving.simulator import CostModel

RATES = [1e5, 5e5, 1e6, 2e6, 4e6]


def make_planner() -> ExpertReplayPlanner:
    return ExpertReplayPlanner(
        n_experts=16,
        top_k=2,
        n_moe_layers=2,
        dram_config=small_cosim_dram(),
        bytes_per_token=8192,
        max_blocks_per_request=1024,
        expert_bytes=1 << 18,
        seed=1,
    )


def sweep_engine(cost: CostModel, engine: str):
    sweep, _ = run_load_sweep(
        cost,
        Scheme.MD_LB,
        make_planner(),
        RATES,
        n_requests=60,
        seed=1,
        # Decode-heavy mix: most tokens are bandwidth-bound decode
        # steps, the traffic continuous batching amortizes.
        serving=ServingConfig(
            engine=engine, mean_prompt_tokens=8, mean_decode_tokens=24
        ),
        loop=LoopConfig(max_iterations=16),
    )
    return sweep


def main() -> None:
    cost = CostModel(encode_seconds_per_token=2e-9, decode_seconds_per_token=2e-8)
    print("fifo vs continuous batching through the closed cosim loop")
    print("decode-heavy mix (mean 8 prompt / 24 decode tokens), md+lb, "
          "2-channel DRAM\n")

    fifo = sweep_engine(cost, "fifo")
    batching = sweep_engine(cost, "batching")

    header = (f"{'req/s':>10s}  {'fifo p99':>12s}  {'batch p99':>12s}  "
              f"{'ratio':>6s}  {'batch ttft p99':>14s}  {'batch tpot p99':>14s}")
    print(header)
    for f, b in zip(fifo.points, batching.points):
        ratio = b.closed_p99 / f.closed_p99
        print(f"{f.rate:10.3g}  {f.closed_p99:12.3e}  {b.closed_p99:12.3e}  "
              f"{ratio:6.2f}  {b.closed_ttft_p99:14.3e}  {b.closed_tpot_p99:14.3e}")

    print()
    for sweep in (fifo, batching):
        cap = sweep.slo_capacity_rps
        answer = f"{cap:.3g} req/s" if cap > 0 else "none on this grid"
        print(f"SLO capacity ({sweep.engine:8s}): {answer} at "
              f"p99 <= {sweep.slo_p99_seconds*1e3:.3g} ms (auto threshold)")

    last_f, last_b = fifo.points[-1], batching.points[-1]
    print(
        f"\nReading: at the saturating point ({last_f.rate:.3g} req/s) the "
        f"batched decode stream cuts the closed-loop p99 from "
        f"{last_f.closed_p99:.3e}s to {last_b.closed_p99:.3e}s.  At mid "
        f"load the ratio can exceed 1 -- stepped admission quantizes "
        f"start times before the bandwidth win kicks in.  The capacity "
        f"answer, not any single point, is the deployment-facing number."
    )


if __name__ == "__main__":
    main()
