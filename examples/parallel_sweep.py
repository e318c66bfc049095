"""Multi-core closed-loop co-simulation: parallel rate-grid sweeps.

The offered-load points of a `repro.cosim` sweep are independent
fixed-point runs, so `run_load_sweep(workers=N)` fans them out over a
process pool -- each worker gets its own pickled copy of the cost
model and replay planner, and per-point seeding is identical either
way, so the parallel sweep is bit-identical to the serial one.  This
example runs the same grid serially and with `--workers` processes,
verifies the results match, and prints the wall-clock speedup.

On a single-core container the "speedup" is below 1.0 (pool startup
plus pickling with nothing to overlap); on an N-core box it
approaches min(N, grid points).  `--workers` is the one parallelism
knob: it runs the points when two or more remain, else the drains --
a one-rate grid, a resume with one point left, or single-rate
`repro cosim --workers N` fans that point's per-channel DRAM drains
over the pool instead.

Run:  python examples/parallel_sweep.py [--workers N]
"""

import argparse
import time

from repro.core.strategies import Scheme
from repro.cosim import (
    ExpertReplayPlanner,
    format_sweep,
    run_load_sweep,
    small_cosim_dram,
)
from repro.experiments import LoopConfig, ServingConfig
from repro.serving.simulator import CostModel


def build_parts():
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
    return cost, planner


def run_grid(workers: int):
    cost, planner = build_parts()
    rates = [2e4, 5e5, 1e6, 2e6, 4e6]
    start = time.perf_counter()
    sweep, runs = run_load_sweep(
        cost,
        Scheme.MD_LB,
        planner,
        rates,
        n_requests=60,
        seed=1,
        serving=ServingConfig(mean_prompt_tokens=20, mean_decode_tokens=5),
        loop=LoopConfig(max_iterations=16),
        workers=workers,
    )
    return sweep, time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2,
                        help="process-pool size for the parallel sweep")
    args = parser.parse_args()

    print("serial sweep over a 5-point offered-load grid...")
    serial_sweep, serial_seconds = run_grid(workers=0)
    print(format_sweep(serial_sweep))
    print(f"serial: {serial_seconds:.2f} s\n")

    print(f"same grid over {args.workers} workers...")
    parallel_sweep, parallel_seconds = run_grid(workers=args.workers)
    identical = parallel_sweep.to_dict() == serial_sweep.to_dict()
    print(f"parallel: {parallel_seconds:.2f} s "
          f"({serial_seconds / parallel_seconds:.2f}x vs serial)")
    print(f"bit-identical to the serial sweep: {identical}")
    if not identical:
        raise SystemExit("parallel sweep diverged from serial")


if __name__ == "__main__":
    main()
