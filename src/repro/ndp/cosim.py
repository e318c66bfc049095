"""DRAM <-> NDP co-simulation validation.

The NDP GEMM engine charges memory cycles against a single effective-
bandwidth constant calibrated from the cycle-level DRAM simulator.
This module closes the loop: it expands a tile schedule into the
actual 64-byte request stream (weights from the even-bank expert
region, activations from the odd-bank activation region, outputs
written back) and replays it through the FR-FCFS controller, so tests
can bound the error of the engine's bandwidth abstraction.

This is the same validation step the paper's methodology implies:
Ramulator supplies memory behaviour, the expert simulator consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dram.config import LPDDR5X_8533, DRAMConfig
from repro.dram.controller import MemoryController
from repro.dram.request import FLAG_WRITE
from repro.ndp.device import DeviceMemoryLayout
from repro.ndp.engine import NDPGemmEngine


@dataclass(frozen=True)
class CosimResult:
    """Engine estimate vs cycle-simulated memory time for one GEMM."""

    m: int
    n: int
    k: int
    engine_mem_cycles: int
    dram_cycles: int
    dram_bytes: int

    @property
    def relative_error(self) -> float:
        """(engine - dram) / dram; positive = engine pessimistic."""
        if self.dram_cycles == 0:
            return 0.0
        return (self.engine_mem_cycles - self.dram_cycles) / self.dram_cycles


class GEMMCosim:
    """Replays a GEMM's DRAM traffic through the cycle simulator."""

    def __init__(
        self,
        engine: NDPGemmEngine,
        dram_config: DRAMConfig = LPDDR5X_8533,
    ) -> None:
        self.engine = engine
        self.dram_config = dram_config

    def request_stream(self, m: int, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The 64-byte request stream of the tile schedule, with
        weights/activations placed per the Section 3.4 layout, as
        ``(addrs, flags)`` columns (int64 byte addresses, uint8
        ``.dramtrace`` flags: output write-backs set ``FLAG_WRITE``).

        Per tile the stream reads its weight blocks, then its
        activation blocks, then writes its output blocks; each of the
        three streams walks its allocation cyclically, picking up
        where its previous tile left off.
        """
        layout = DeviceMemoryLayout(self.dram_config)
        dt = self.engine.tiler.dtype_bytes
        regions = (
            layout.block_addresses(layout.allocate(max(1, k * n * dt), "expert")),
            layout.block_addresses(layout.allocate(max(1, m * k * dt), "activation")),
            layout.block_addresses(layout.allocate(max(1, m * n * dt), "activation")),
        )
        access = self.dram_config.organization.access_bytes
        nbytes = np.array(
            [
                (t.wgt_bytes, t.act_bytes, t.out_bytes)
                for t in self.engine.tiler.tiles(m, n, k)
            ],
            dtype=np.int64,
        ).reshape(-1, 3)
        blocks = -(-nbytes // access)
        # Stream id (0 weights, 1 activations, 2 outputs) of every
        # request, in tile order; each stream's requests, taken in
        # order, are its allocation's blocks read cyclically.
        stream = np.repeat(np.tile(np.arange(3), len(blocks)), blocks.reshape(-1))
        addrs = np.empty(stream.shape[0], dtype=np.int64)
        for sid, region in enumerate(regions):
            mask = stream == sid
            addrs[mask] = region[np.arange(int(blocks[:, sid].sum())) % len(region)]
        flags = np.where(stream == 2, FLAG_WRITE, 0).astype(np.uint8)
        return addrs, flags

    def run(self, m: int, n: int, k: int) -> CosimResult:
        """Compare the engine's memory-cycle estimate with a full
        cycle-level replay of the same traffic."""
        execution = self.engine.gemm_execution(m, n, k)
        addrs, flags = self.request_stream(m, n, k)
        controller = MemoryController(self.dram_config)
        stats = controller.simulate_arrays(addrs, flags=flags)
        # Convert DRAM-controller cycles to NDP-clock cycles.
        dram_seconds = self.dram_config.timing.cycles_to_seconds(stats.total_cycles)
        dram_ndp_cycles = int(round(dram_seconds * self.engine.spec.clock_hz))
        return CosimResult(
            m=m,
            n=n,
            k=k,
            engine_mem_cycles=execution.memory_cycles,
            dram_cycles=dram_ndp_cycles,
            dram_bytes=len(addrs) * self.dram_config.organization.access_bytes,
        )
