"""Serving study: what the Fig. 6 speedups mean for a deployment.

Sweeps offered load against latency for GPU+PM and MD+LB on the
NLLB-MoE workload: the scheme with lower per-request cost sustains
several times the load before its queue saturates.

Run:  python examples/serving_study.py
"""

from repro.core.strategies import Scheme
from repro.cosim import run_load_sweep
from repro.experiments import ServingConfig
from repro.serving.simulator import CostModel
from repro.workloads import flores_like


def main() -> None:
    scenario = flores_like(batch=1)
    print(f"workload: {scenario.describe()}")
    print("building per-scheme cost models from the runtime...")
    costs = {
        scheme: CostModel.from_runtime(
            scenario.model, scheme, profile=scenario.profile, ref_decode_steps=4
        )
        for scheme in (Scheme.GPU_PM, Scheme.MD_LB)
    }
    for scheme, cost in costs.items():
        print(f"  {scheme.value:7s} encode {cost.encode_seconds_per_token*1e6:6.1f} us/tok, "
              f"decode {cost.decode_seconds_per_token*1e3:6.2f} ms/tok")

    rates = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    print(f"\n{'req/s':>6s}  " + "  ".join(
        f"{s.value + ' p50/p99(s)':>24s}" for s in costs
    ))
    for rate in rates:
        cells = []
        for scheme, cost in costs.items():
            # planner=None runs the engine-aware sweep serving-only
            # (open loop, no DRAM feedback) -- the successor of the
            # old standalone serving load_sweep.
            _, runs = run_load_sweep(
                cost, scheme, None, [rate], n_requests=100,
                serving=ServingConfig(mean_decode_tokens=16),
            )
            result = runs[0].closed_loop
            cells.append(
                f"{result.latency_percentile(50):10.2f}/"
                f"{result.latency_percentile(99):8.2f} "
                f"(u={result.utilization:.2f})"
            )
        print(f"{rate:6.2f}  " + "  ".join(f"{c:>24s}" for c in cells))

    print("\nReading: GPU+PM's queue saturates around 1-2 req/s; MD+LB "
          "sustains ~4-6 req/s at sub-second medians on the same hardware "
          "budget plus one MoNDE device.")


if __name__ == "__main__":
    main()
