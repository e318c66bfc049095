"""GPU roofline model: the Fig. 2(c) compute side."""

from dataclasses import replace
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.gpu import GPUModel
from repro.hw.specs import A100_PCIE, GPUSpec


@pytest.fixture
def gpu() -> GPUModel:
    return GPUModel(A100_PCIE)


def test_zero_dims_cost_nothing(gpu):
    assert gpu.gemm_time(0, 10, 10) == 0.0
    assert gpu.expert_ffn_time(0, 1024, 4096) == 0.0


def test_small_gemm_is_memory_bound(gpu):
    """A 1-token expert GEMM streams the weights: memory bound."""
    timing = gpu.gemm_timing(1, 4096, 1024)
    assert timing.is_memory_bound


def test_large_gemm_is_compute_bound(gpu):
    timing = gpu.gemm_timing(8192, 8192, 8192)
    assert not timing.is_memory_bound


def test_launch_overhead_floor(gpu):
    """Even a tiny GEMM pays the kernel launch."""
    assert gpu.gemm_time(1, 1, 1) >= A100_PCIE.kernel_launch_overhead


def test_small_m_derates_throughput(gpu):
    small = gpu.gemm_timing(4, 4096, 4096)
    large = gpu.gemm_timing(4096, 4096, 4096)
    assert small.achieved_flops < large.achieved_flops


def test_monotonic_in_tokens(gpu):
    times = [gpu.expert_ffn_time(t, 1024, 4096) for t in (1, 8, 64, 512, 4096)]
    for a, b in zip(times, times[1:]):
        assert b >= a


def test_cold_expert_underutilizes_gpu(gpu):
    """Section 2.2: cold experts leave the tensor cores idle -- the
    achieved TFLOPS of a 1-token expert is a tiny fraction of peak."""
    t = gpu.expert_ffn_time(1, 2048, 8192)
    flops = 2 * 2 * 1 * 2048 * 8192
    achieved = flops / t
    assert achieved < 0.01 * A100_PCIE.peak_flops


def test_expert_ffn_is_two_gemms(gpu):
    tokens, d, ff = 32, 1024, 4096
    expected = gpu.gemm_time(tokens, ff, d) + gpu.gemm_time(tokens, d, ff)
    assert gpu.expert_ffn_time(tokens, d, ff) == pytest.approx(expected)


def test_dense_block_time_positive_and_scales(gpu):
    small = gpu.dense_block_time(128, 1024)
    large = gpu.dense_block_time(2048, 1024)
    assert 0 < small < large


def test_memory_time_uses_hbm_bandwidth(gpu):
    """For a memory-bound GEMM, time ~= bytes / HBM bandwidth."""
    m, n, k = 1, 8192, 2048
    timing = gpu.gemm_timing(m, n, k)
    expected = 2 * (m * k + k * n + m * n) / A100_PCIE.mem_bandwidth
    assert timing.memory_time == pytest.approx(expected)


def test_efficiency_saturates_at_m_saturate():
    spec = GPUSpec(
        name="t", peak_flops=1e12, mem_capacity=1, mem_bandwidth=1e12, m_saturate=64
    )
    gpu = GPUModel(spec)
    sat = gpu.gemm_timing(64, 512, 512).achieved_flops
    beyond = gpu.gemm_timing(640, 512, 512).achieved_flops
    assert sat == pytest.approx(beyond)
    assert sat == pytest.approx(spec.peak_flops * spec.base_efficiency)


dims = st.one_of(st.just(0), st.integers(1, 8192))


@settings(max_examples=60)
@given(m=dims, n=dims, k=dims)
def test_memoized_gemm_time_equals_timing_total(m, n, k):
    """gemm_time is memoized per model by (m, n, k, dtype_bytes): every
    permutation of the shape at every dtype, first as a miss and then
    as a hit, equals the unmemoized roofline exactly."""
    gpu = GPUModel(A100_PCIE)
    reference = GPUModel(A100_PCIE)
    keys = [(*shape, dtype) for shape in permutations((m, n, k)) for dtype in (1, 2, 4)]
    for _ in range(2):
        for key in keys:
            assert gpu.gemm_time(*key) == reference.gemm_timing(*key).total, key


def test_models_share_no_gemm_memo():
    shape = (1, 4096, 1024)
    fast = GPUModel(A100_PCIE)
    slow = GPUModel(replace(A100_PCIE, mem_bandwidth=A100_PCIE.mem_bandwidth / 2))
    t_fast = fast.gemm_time(*shape)
    assert slow.gemm_time(*shape) == slow.gemm_timing(*shape).total > t_fast
    assert fast.gemm_time(*shape) == t_fast
