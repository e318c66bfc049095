"""Roofline GPU timing model with small-GEMM de-rating.

The paper's characterization (Fig. 2(c)) shows that a cold expert with
few routed tokens is strongly memory-bound on the GPU and leaves the
tensor cores idle, while the parameter transfer that precedes it is
far more expensive still.  This model reproduces those two regimes:

- ``gemm_time``: max(compute-time, memory-time) + kernel launch, with
  achievable compute throughput de-rated for small M (few tokens).
- ``expert_ffn_time``: the two back-to-back expert GEMMs
  (d_model -> d_ff -> d_model) plus the elementwise activation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.specs import BF16_BYTES, GPUSpec, gemm_bytes, gemm_flops


@dataclass(frozen=True)
class GEMMTiming:
    """Breakdown of one GEMM's modeled execution on the GPU."""

    compute_time: float
    memory_time: float
    launch_overhead: float
    achieved_flops: float

    @property
    def total(self) -> float:
        return max(self.compute_time, self.memory_time) + self.launch_overhead

    @property
    def is_memory_bound(self) -> bool:
        return self.memory_time >= self.compute_time


class GPUModel:
    """Roofline timing model for a :class:`~repro.hw.specs.GPUSpec`."""

    def __init__(self, spec: GPUSpec) -> None:
        self.spec = spec
        # gemm_time by (m, n, k, dtype_bytes): a model evaluates the
        # same few shapes thousands of times.
        self._gemm_times: dict[tuple[int, int, int, int], float] = {}

    def _efficiency(self, m: int) -> float:
        """Achievable fraction of peak compute for GEMM height ``m``.

        Tensor-core utilization ramps roughly linearly with the number
        of occupied M-tiles until the SMs saturate; ``m_saturate`` rows
        reach ``base_efficiency`` of peak.
        """
        if m <= 0:
            return 1.0
        ramp = min(1.0, m / float(self.spec.m_saturate))
        # Tensor cores execute at least one MMA tile row regardless of
        # M, so utilization bottoms out rather than going to zero.
        ramp = max(ramp, self.spec.min_efficiency)
        return self.spec.base_efficiency * ramp

    def gemm_timing(
        self, m: int, n: int, k: int, dtype_bytes: int = BF16_BYTES
    ) -> GEMMTiming:
        """Model C[m,n] = A[m,k] @ B[k,n] with operands in GPU HBM."""
        if m == 0 or n == 0 or k == 0:
            return GEMMTiming(0.0, 0.0, 0.0, 0.0)
        flops = gemm_flops(m, n, k)
        achieved = self.spec.peak_flops * self._efficiency(m)
        compute_time = flops / achieved
        memory_time = gemm_bytes(m, n, k, dtype_bytes) / self.spec.mem_bandwidth
        return GEMMTiming(
            compute_time=compute_time,
            memory_time=memory_time,
            launch_overhead=self.spec.kernel_launch_overhead,
            achieved_flops=achieved,
        )

    def gemm_time(self, m: int, n: int, k: int, dtype_bytes: int = BF16_BYTES) -> float:
        key = (m, n, k, dtype_bytes)
        seconds = self._gemm_times.get(key)
        if seconds is None:
            seconds = self._gemm_times[key] = self.gemm_timing(*key).total
        return seconds

    def expert_ffn_time(
        self,
        tokens: int,
        d_model: int,
        d_ff: int,
        dtype_bytes: int = BF16_BYTES,
    ) -> float:
        """Time to run one expert FFN over ``tokens`` rows on the GPU.

        An expert is Linear1 (d_model -> d_ff), an elementwise
        activation, and Linear2 (d_ff -> d_model); the activation fuses
        into the first GEMM epilogue (the paper's ``gemm+relu`` kernel)
        so it costs no extra pass over memory.
        """
        if tokens == 0:
            return 0.0
        first = self.gemm_time(tokens, d_ff, d_model, dtype_bytes)
        second = self.gemm_time(tokens, d_model, d_ff, dtype_bytes)
        return first + second

    def dense_block_time(
        self,
        tokens: int,
        d_model: int,
        n_heads: int = 16,
        dtype_bytes: int = BF16_BYTES,
    ) -> float:
        """Time for the non-MoE part of one Transformer block.

        Attention is modeled as its four projection GEMMs
        (Q/K/V/output, each d_model x d_model) plus the score/context
        batched GEMMs; layernorms and residuals are bandwidth-only
        passes.  Dense parameters are GPU-resident in every evaluated
        scheme, so this term is identical across schemes -- it shifts
        absolute throughput but not the scheme ordering.
        """
        if tokens == 0:
            return 0.0
        proj = 4 * self.gemm_time(tokens, d_model, d_model, dtype_bytes)
        # Score (tokens x tokens x head_dim per head) and context GEMMs.
        head_dim = max(1, d_model // n_heads)
        score_flops = 2.0 * 2.0 * tokens * tokens * head_dim * n_heads
        attn_math = score_flops / (self.spec.peak_flops * self.spec.base_efficiency)
        elementwise_bytes = 6.0 * tokens * d_model * dtype_bytes
        elementwise = elementwise_bytes / self.spec.mem_bandwidth
        return proj + attn_math + elementwise + 2 * self.spec.kernel_launch_overhead
