"""Bit-identity pins for the fixed-point loop.

``loop_pins.json`` holds the full :class:`CosimIteration` list and the
:class:`CosimResult` scalars of fifo and batching runs (expert-faithful
and synthetic planners, converged and budget-exhausted), recorded from
the two separate per-engine loops the single estimator-driven loop
replaced.  The ``*_best_iterate`` cases exhaust their budget on an
iterate worse than an earlier one, so they also pin which iterate a
non-converged run reports.  A pure refactor of the loop must reproduce every value
exactly; a deliberate model change re-records the file and says why.
"""

import json
import pathlib
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.strategies import Scheme
from repro.cosim import (
    CosimDriver,
    ExpertReplayPlanner,
    SyntheticReplayPlanner,
    small_cosim_dram,
)
from repro.experiments import LoopConfig, ServingConfig
from repro.serving.simulator import CostModel
from repro.serving.workload import RequestGenerator

PINS = json.loads((pathlib.Path(__file__).parent / "loop_pins.json").read_text())

#: name -> (planner, engine, rate, n_requests, mean prompt, mean decode,
#:          max_iterations, p99_tolerance)
CASES = {
    "fifo_expert_low": ("expert", "fifo", 2e4, 60, 20, 5, 16, 0.02),
    "fifo_expert_mid": ("expert", "fifo", 1e6, 60, 20, 5, 16, 0.02),
    "fifo_expert_saturating": ("expert", "fifo", 4e6, 60, 20, 5, 16, 0.02),
    "fifo_synthetic": ("synthetic", "fifo", 1e6, 40, 20, 5, 16, 0.02),
    "fifo_expert_nonconverged": ("expert", "fifo", 4e6, 40, 20, 5, 4, 0.0),
    "batching_expert_saturating": ("expert", "batching", 4e6, 60, 8, 24, 16, 0.02),
    "batching_synthetic": ("synthetic", "batching", 1e5, 30, 8, 24, 8, 0.02),
    "batching_expert_nonconverged": ("expert", "batching", 4e6, 40, 8, 24, 4, 0.0),
    # Budget runs out on an iterate worse than an earlier one, so the
    # result reports the best-residual iterate, not the last.
    "fifo_expert_best_iterate": ("expert", "fifo", 4e6, 40, 20, 5, 6, 0.0),
    "batching_expert_best_iterate": ("expert", "batching", 4e6, 40, 8, 24, 6, 0.0),
}


def make_planner(kind):
    if kind == "expert":
        return ExpertReplayPlanner(
            n_experts=16, top_k=2, n_moe_layers=2,
            dram_config=small_cosim_dram(), bytes_per_token=8192,
            max_blocks_per_request=1024, expert_bytes=1 << 18, seed=1,
        )
    return SyntheticReplayPlanner(
        dram_config=small_cosim_dram(), bytes_per_token=8192,
        max_blocks_per_request=1024, seed=1,
    )


def plain(value):
    """numpy scalars -> the JSON-native value they pin to."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def snapshot(result) -> dict:
    return {
        "converged": result.converged,
        "n_iterations": result.n_iterations,
        "extra_seconds_per_token": plain(result.extra_seconds_per_token),
        "residual_seconds_per_token": plain(result.residual_seconds_per_token),
        "extra_prefill_seconds_per_token": plain(
            result.extra_prefill_seconds_per_token
        ),
        "extra_decode_seconds_per_token": plain(
            result.extra_decode_seconds_per_token
        ),
        "open_p99": plain(result.open_loop.latency_percentile(99)),
        "closed_p99": plain(result.closed_loop.latency_percentile(99)),
        "final_trace_len": len(result.final_trace),
        "final_dram_total_cycles": plain(result.final_dram_stats.total_cycles),
        "iterations": [
            {k: plain(v) for k, v in asdict(it).items()} for it in result.iterations
        ],
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_loop_reproduces_pins(name):
    kind, engine, rate, n, prompt, decode, max_iterations, tolerance = CASES[name]
    cost = CostModel(encode_seconds_per_token=2e-9, decode_seconds_per_token=2e-8)
    requests = RequestGenerator(
        rate, mean_prompt_tokens=prompt, mean_decode_tokens=decode, seed=1
    ).generate(n)
    driver = CosimDriver(
        cost, Scheme.MD_LB, make_planner(kind),
        serving=ServingConfig(engine=engine),
        loop=LoopConfig(max_iterations=max_iterations, p99_tolerance=tolerance),
    )
    got = snapshot(driver.run(requests))
    want = PINS[name]
    # Iteration by iteration first, so a drift names where it started.
    for i, (g, w) in enumerate(zip(got["iterations"], want["iterations"])):
        assert g == w, f"{name}: iteration {i} drifted"
    assert got == want
