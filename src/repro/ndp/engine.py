"""The NDP GEMM engine: cycle-level timing plus functional execution.

This is the "cycle-level expert computation simulator" of Section 4.1:
it costs the output-stationary tile schedule of
:class:`~repro.ndp.tiling.OutputStationaryTiler`, charging each tile

- compute cycles on the systolic cluster (K + pipeline skew), and
- memory cycles against the device's DRAM bandwidth (as calibrated by
  the cycle-level DRAM simulator),

overlapping the two under double buffering: the engine's total is the
pipelined makespan  fill + sum(max(compute_i, mem_i)) + drain, exactly
the behaviour of an operand-prefetching tile pipeline.

The sum is taken in closed form rather than tile by tile.  Tiles come
in at most 12 distinct kinds -- n-stripe width (full or ragged last) x
k-chunk (inner, or the last, which also writes outputs back) x
m-stripe (first, which fetches the weight chunk; full rest; ragged
last) -- so each kind is costed once and weighted by its count, and
the cost of one GEMM does not grow with its shape.  Each engine also
memoizes its results by (m, n, k): an engine is immutable after
construction, and a serving or figure sweep asks for a few hundred
shapes tens of thousands of times.  The tile stream itself
(``OutputStationaryTiler.tiles``) is the executable spec the tests
compare the closed form against, field for field.

For the paper's dimensions the design point is rate-matched: a 4x256
stripe needs K compute cycles and K*256*2 bytes of weights, which at
512 B/cycle is also ~K cycles -- the hardware neither starves nor
stalls for M <= 4 (cold experts), which is the paper's efficiency
argument for small-height PE arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.hw.specs import BF16_BYTES, NDPCoreSpec
from repro.moe.functional import ACTIVATIONS
from repro.ndp.buffers import DoubleBuffer
from repro.ndp.systolic import SystolicCluster
from repro.ndp.tiling import OutputStationaryTiler


@dataclass(frozen=True)
class GEMMExecution:
    """Timing breakdown of one GEMM on the NDP core."""

    m: int
    n: int
    k: int
    n_tiles: int
    compute_cycles: int
    memory_cycles: int
    pipelined_cycles: int
    dram_bytes: int
    seconds: float

    @property
    def is_memory_bound(self) -> bool:
        return self.memory_cycles >= self.compute_cycles

    @property
    def achieved_flops(self) -> float:
        if self.seconds == 0:
            return 0.0
        return 2.0 * self.m * self.n * self.k / self.seconds


class NDPGemmEngine:
    """Cycle-level GEMM timing and functional execution for one device.

    ``mem_bandwidth`` is the *effective* device bandwidth in bytes/s
    (pass the DRAM calibrator's sequential-stream result, or the spec
    default which matches it).
    """

    def __init__(
        self,
        spec: NDPCoreSpec,
        mem_bandwidth: float,
        dtype_bytes: int = BF16_BYTES,
    ) -> None:
        if mem_bandwidth <= 0:
            raise ValueError("mem_bandwidth must be positive")
        self.spec = spec
        self.mem_bandwidth = mem_bandwidth
        self.dtype_bytes = dtype_bytes
        self.cluster = SystolicCluster(spec.n_arrays, spec.array_rows, spec.array_cols)
        self.wgt_buffer = DoubleBuffer("exp-buffer", spec.exp_buffer_bytes)
        self.tiler = OutputStationaryTiler(
            tile_rows=self.cluster.tile_rows,
            tile_cols=self.cluster.tile_cols,
            wgt_buffer_bytes=spec.exp_buffer_bytes,
            dtype_bytes=dtype_bytes,
        )
        #: Bytes the DRAM can stream per NDP clock cycle.
        self.bytes_per_cycle = mem_bandwidth / spec.clock_hz
        self._memo: dict[tuple[int, int, int], GEMMExecution] = {}

    @classmethod
    def from_dram(
        cls,
        spec: NDPCoreSpec,
        dram_config=None,
        dtype_bytes: int = BF16_BYTES,
        nbytes: int = 1 << 20,
    ) -> "NDPGemmEngine":
        """Engine whose effective bandwidth comes from a cycle-level
        run of the FR-FCFS controller on ``dram_config`` (defaults to
        the paper's LPDDR5X module) instead of the spec constant.

        The calibration is cached per config, so constructing many
        engines (multi-device platforms, serving sweeps) simulates the
        DRAM once.
        """
        from repro.dram.calibrate import calibrated_effective_bandwidth
        from repro.dram.config import LPDDR5X_8533

        config = dram_config if dram_config is not None else LPDDR5X_8533
        bandwidth = calibrated_effective_bandwidth(config, nbytes=nbytes)
        return cls(spec, bandwidth, dtype_bytes=dtype_bytes)

    # -- timing --------------------------------------------------------------

    def gemm_execution(self, m: int, n: int, k: int) -> GEMMExecution:
        """Cycle-level timing for C[m,n] = A[m,k] @ B[k,n].

        Exactly the cost of iterating ``self.tiler.tiles(m, n, k)`` tile
        by tile, computed in closed form (see the module docstring) and
        memoized per engine, so a repeated shape returns the same
        object.  Negative dimensions raise ``ValueError``.
        """
        if min(m, n, k) < 0:
            raise ValueError(f"GEMM dims must be non-negative, got {(m, n, k)}")
        key = (m, n, k)
        execution = self._memo.get(key)
        if execution is None:
            execution = self._memo[key] = self._schedule_cost(m, n, k)
        return execution

    def _schedule_cost(self, m: int, n: int, k: int) -> GEMMExecution:
        if m == 0 or n == 0 or k == 0:
            return GEMMExecution(m, n, k, 0, 0, 0, 0, 0, 0.0)
        dt = self.tiler.dtype_bytes
        rows = self.tiler.tile_rows
        cols = self.tiler.tile_cols
        bpc = self.bytes_per_cycle

        # (count, width) of the n-stripes, and (count, height, fetches
        # the weight chunk) of the m-stripes, in schedule order.
        n_stripes = -(-n // cols)
        widths = ((n_stripes - 1, cols), (1, n - (n_stripes - 1) * cols))
        m_stripes = -(-m // rows)
        if m_stripes == 1:
            heights: tuple[tuple[int, int, bool], ...] = ((1, m, True),)
        else:
            last_rows = m - (m_stripes - 1) * rows
            heights = (
                (1, rows, True),
                (m_stripes - 2, rows, False),
                (1, last_rows, False),
            )

        compute_total = 0
        mem_total = 0
        pipelined = 0
        dram_bytes = 0
        n_tiles = 0
        first_mem = None
        for n_count, nn in widths:
            chunk = self.tiler.k_chunk(nn)
            n_chunks = -(-k // chunk)
            # (count, depth, writes outputs back): the inner chunks,
            # then the last one.
            last_depth = k - (n_chunks - 1) * chunk
            depths = ((n_chunks - 1, chunk, False), (1, last_depth, True))
            for k_count, kk, last_chunk in depths:
                compute_cycles = self.cluster.stripe_cycles(kk)
                for m_count, mm, fetches in heights:
                    count = n_count * k_count * m_count
                    if count == 0:
                        continue
                    tile_bytes = mm * kk * dt
                    if fetches:
                        tile_bytes += kk * nn * dt
                    if last_chunk:
                        tile_bytes += mm * nn * dt
                    mc = int(np.ceil(tile_bytes / bpc))
                    if first_mem is None:
                        # The first tile: stripe 0, chunk 0, m-stripe 0.
                        first_mem = mc
                    compute_total += count * compute_cycles
                    mem_total += count * mc
                    pipelined += count * max(compute_cycles, mc)
                    dram_bytes += count * tile_bytes
                    n_tiles += count
        # Pipeline fill (the first operand fetch) is not hidden by the
        # steady-state overlap; the last tile's compute (drain) is
        # already inside the final max() term.
        total = first_mem + pipelined
        seconds = total / self.spec.clock_hz
        return GEMMExecution(
            m=m,
            n=n,
            k=k,
            n_tiles=n_tiles,
            compute_cycles=compute_total,
            memory_cycles=mem_total,
            pipelined_cycles=total,
            dram_bytes=dram_bytes,
            seconds=seconds,
        )

    def gemm_time(self, m: int, n: int, k: int) -> float:
        """Seconds for one GEMM, excluding host dispatch."""
        return self.gemm_execution(m, n, k).seconds

    def expert_ffn_time(self, tokens: int, d_model: int, d_ff: int) -> float:
        """Seconds for one expert FFN (gemm + gemm+relu kernels) over
        ``tokens`` routed tokens, including the NDP dispatch overhead."""
        if tokens < 0:
            raise ValueError(f"token count must be non-negative, got {tokens}")
        if tokens == 0:
            return 0.0
        t1 = self.gemm_time(tokens, d_ff, d_model)
        t2 = self.gemm_time(tokens, d_model, d_ff)
        return t1 + t2 + self.spec.dispatch_overhead

    def expert_batch_time(
        self, token_counts: list[int] | np.ndarray, d_model: int, d_ff: int
    ) -> float:
        """Seconds for a batch of expert FFNs run back to back on one
        NDP core (the MD+AM workflow's device-side total)."""
        return float(
            sum(self.expert_ffn_time(int(t), d_model, d_ff) for t in token_counts if t)
        )

    # -- functional ------------------------------------------------------------

    def run_gemm(
        self,
        a: np.ndarray,
        b: np.ndarray,
        activation: Optional[str] = None,
    ) -> tuple[np.ndarray, GEMMExecution]:
        """Functionally execute a GEMM tile-by-tile through the
        systolic cluster (bit-identical to a plain matmul) and return
        (result, timing).  ``activation`` fuses relu/gelu into the
        epilogue, the paper's ``gemm+relu`` kernel."""
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(f"bad GEMM operands: {a.shape} x {b.shape}")
        m, k = a.shape
        _, n = b.shape
        out = np.zeros((m, n), dtype=np.result_type(a, b))
        rows = self.cluster.tile_rows
        cols = self.cluster.tile_cols
        for m0 in range(0, m, rows):
            for n0 in range(0, n, cols):
                stripe = self.cluster.compute_stripe(
                    a[m0 : m0 + rows], b[:, n0 : n0 + cols]
                )
                out[m0 : m0 + rows, n0 : n0 + cols] = stripe
        if activation is not None:
            fn: Callable[[np.ndarray], np.ndarray] = ACTIVATIONS[activation]
            out = fn(out)
        return out, self.gemm_execution(m, n, k)
