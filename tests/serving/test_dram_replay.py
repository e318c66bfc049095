"""`dram_replay_trace_arrays` coverage: validation, determinism,
region resume, and the request-id column."""

import numpy as np
import pytest

from repro.core.strategies import Scheme
from repro.dram.config import LPDDR5X_8533
from repro.serving.simulator import (
    CostModel,
    ServingResult,
    ServingSimulator,
    dram_replay_trace_arrays,
)
from repro.serving.workload import Request


@pytest.fixture(scope="module")
def result():
    cost = CostModel(encode_seconds_per_token=1e-4, decode_seconds_per_token=1e-3)
    requests = [
        Request(request_id=i, arrival=0.002 * (i + 1), prompt_tokens=20, decode_tokens=5)
        for i in range(8)
    ]
    return ServingSimulator(cost, Scheme.MD_LB).run(requests)


REPLAY_KWARGS = dict(bytes_per_token=256, max_blocks_per_request=64, seed=3)


def test_parameter_validation():
    empty = ServingResult(scheme=Scheme.MD_LB)
    for bad in (
        dict(bytes_per_token=0),
        dict(max_blocks_per_request=0),
        dict(region_bytes=0),
        dict(n_regions=0),
    ):
        with pytest.raises(ValueError):
            dram_replay_trace_arrays(empty, **bad)


def test_empty_result_yields_empty_columns():
    empty = ServingResult(scheme=Scheme.MD_LB)
    addrs, arrive, flags = dram_replay_trace_arrays(empty)
    assert addrs.shape == arrive.shape == flags.shape == (0,)


def test_deterministic_under_fixed_seed(result):
    a = dram_replay_trace_arrays(result, **REPLAY_KWARGS)
    b = dram_replay_trace_arrays(result, **REPLAY_KWARGS)
    for col_a, col_b in zip(a, b):
        assert (col_a == col_b).all()
    c = dram_replay_trace_arrays(result, bytes_per_token=256,
                                 max_blocks_per_request=64, seed=4)
    assert not (a[0] == c[0]).all()


def test_region_resume(result):
    """With a single region every burst resumes where the previous one
    left off: the block stream is one contiguous run (modulo the
    region) across all requests."""
    addrs, _, _ = dram_replay_trace_arrays(
        result, n_regions=1, region_bytes=1 << 22, **REPLAY_KWARGS
    )
    step = LPDDR5X_8533.organization.access_bytes
    region_blocks = (1 << 22) // step
    blocks = addrs // step
    n = len(blocks)
    assert n == 8 * 64  # 25 tokens * 256 B = 6400 B -> capped at 64 blocks
    expected = np.arange(n, dtype=np.int64) % region_blocks
    assert (blocks == expected).all()


def test_request_ids_map_bursts(result):
    addrs, arrive, flags, rids = dram_replay_trace_arrays(
        result, return_request_ids=True, **REPLAY_KWARGS
    )
    assert rids.shape == addrs.shape
    assert set(rids.tolist()) == {c.request.request_id for c in result.completed}
    # Each request's burst shares one arrival cycle.
    for rid in np.unique(rids):
        assert len(np.unique(arrive[rids == rid])) == 1
