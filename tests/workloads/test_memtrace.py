"""DRAM request-stream generators (streaming / random / MoE-skewed)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dram.config import LPDDR5X_8533
from repro.dram.controller import MemoryController
from repro.dram.request import RequestKind, requests_from_arrays
from repro.workloads.traces import MEMORY_TRACE_ARRAYS, generate_trace_arrays

ACCESS = LPDDR5X_8533.organization.access_bytes
CAPACITY = LPDDR5X_8533.organization.total_capacity_bytes


def requests(pattern, n_requests, **kwargs):
    """``Request`` objects for one generated trace."""
    return requests_from_arrays(*generate_trace_arrays(pattern, n_requests, **kwargs))


def test_registry_names():
    assert set(MEMORY_TRACE_ARRAYS) == {"streaming", "random", "moe-skewed"}


def test_streaming_is_contiguous():
    reqs = requests("streaming", 100)
    assert [r.addr for r in reqs] == [i * ACCESS for i in range(100)]
    assert all(r.kind is RequestKind.READ for r in reqs)


def test_streaming_wraps_at_capacity():
    reqs = requests("streaming", 4, base=CAPACITY - 2 * ACCESS)
    assert [r.addr for r in reqs] == [
        CAPACITY - 2 * ACCESS,
        CAPACITY - ACCESS,
        0,
        ACCESS,
    ]


def test_random_is_reproducible_and_in_range():
    a = requests("random", 200, seed=5)
    b = requests("random", 200, seed=5)
    assert [r.addr for r in a] == [r.addr for r in b]
    assert all(0 <= r.addr < CAPACITY and r.addr % ACCESS == 0 for r in a)
    kinds = {r.kind for r in a}
    assert kinds == {RequestKind.READ, RequestKind.WRITE}


def test_moe_trace_bursts_stay_in_expert_regions():
    n_experts, expert_bytes, burst = 8, 1 << 16, 16
    reqs = requests(
        "moe-skewed",
        320,
        n_experts=n_experts,
        expert_bytes=expert_bytes,
        burst_blocks=burst,
        seed=2,
    )
    assert len(reqs) == 320
    expert_blocks = expert_bytes // ACCESS
    for i in range(0, len(reqs), burst):
        burst_experts = {
            (r.addr // ACCESS) // expert_blocks for r in reqs[i : i + burst]
        }
        assert len(burst_experts) == 1  # one expert per burst
        assert all(r.kind is reqs[i].kind for r in reqs[i : i + burst])


def test_moe_trace_is_skewed():
    reqs = requests(
        "moe-skewed", 6400, n_experts=64, expert_bytes=1 << 16, burst_blocks=16, seed=3
    )
    expert_blocks = (1 << 16) // ACCESS
    experts = np.array([(r.addr // ACCESS) // expert_blocks for r in reqs])
    counts = np.bincount(experts, minlength=64)
    # The hot experts dominate: top-2 take well over half the traffic.
    assert np.sort(counts)[-2:].sum() > 0.5 * counts.sum()


def test_moe_trace_fits_tiny_configs():
    # Regions shrink to the device; no address may exceed capacity
    # even when a burst is longer than the per-expert region.
    from repro.dram.config import DRAMConfig, DRAMOrganization

    tiny = DRAMConfig(
        organization=DRAMOrganization(
            n_channels=1, n_ranks=1, n_bankgroups=2, banks_per_group=2,
            n_rows=4, row_bytes=128, access_bytes=64,
        ),
        timing=LPDDR5X_8533.timing,
    )
    cap = tiny.organization.total_capacity_bytes
    reqs = requests(
        "moe-skewed", 200, config=tiny, n_experts=16, burst_blocks=32, seed=0
    )
    assert all(0 <= r.addr < cap for r in reqs)
    MemoryController(tiny).simulate(reqs)  # must not raise
    with pytest.raises(ValueError, match="experts cannot fit"):
        requests("moe-skewed", 10, config=tiny, n_experts=1 << 20)


def test_moe_trace_truncates_to_n_requests():
    reqs = requests("moe-skewed", 100, burst_blocks=32, seed=1)
    assert len(reqs) == 100


@pytest.mark.parametrize("name", sorted(MEMORY_TRACE_ARRAYS))
def test_traces_simulate_cleanly(name):
    reqs = requests(name, 400, seed=9)
    stats = MemoryController(LPDDR5X_8533).simulate(reqs)
    assert stats.requests == 400
    assert all(r.complete_cycle is not None for r in reqs)


def test_streaming_hit_rate_beats_random():
    ctrl_s = MemoryController(LPDDR5X_8533)
    ctrl_r = MemoryController(LPDDR5X_8533)
    s = ctrl_s.simulate(requests("streaming", 2000))
    r = ctrl_r.simulate(requests("random", 2000, seed=4))
    assert s.row_hit_rate > 0.9 > r.row_hit_rate
