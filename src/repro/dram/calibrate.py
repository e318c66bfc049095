"""Bandwidth calibration: cycle-level DRAM runs -> effective-bandwidth
constants for the system-level models.

The paper couples a Ramulator memory model to a cycle-level expert
simulator, then feeds the resulting NDP latencies into an end-to-end
estimate (Section 4.1).  We do the same: the calibrator streams
representative access patterns through :class:`MemoryController` and
reports sustained bandwidth, which the NDP GEMM engine then uses for
its memory-side timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.dram.address import MappingScheme
from repro.dram.config import DRAMConfig, LPDDR5X_8533
from repro.dram.controller import MemoryController
from repro.dram.request import FLAG_WRITE


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of one calibration pattern."""

    pattern: str
    nbytes: int
    sustained_bandwidth: float
    peak_bandwidth: float
    row_hit_rate: float
    total_cycles: int

    @property
    def efficiency(self) -> float:
        if self.peak_bandwidth == 0:
            return 0.0
        return self.sustained_bandwidth / self.peak_bandwidth


class BandwidthCalibrator:
    """Generates access patterns and measures sustained bandwidth."""

    def __init__(
        self,
        config: DRAMConfig = LPDDR5X_8533,
        scheme: MappingScheme = MappingScheme.RO_BA_BG_RA_CO_CH,
    ) -> None:
        self.config = config
        self.scheme = scheme

    def _controller(self) -> MemoryController:
        return MemoryController(self.config, scheme=self.scheme)

    def _run(
        self, pattern: str, addrs: np.ndarray, flags=None
    ) -> CalibrationResult:
        """Drain one pattern's ``(addrs, flags)`` columns (``flags``
        in the ``.dramtrace`` encoding, ``None`` = all reads) on a
        fresh controller."""
        controller = self._controller()
        stats = controller.simulate_arrays(addrs, flags=flags)
        return CalibrationResult(
            pattern=pattern,
            nbytes=len(addrs) * self.config.organization.access_bytes,
            sustained_bandwidth=controller.sustained_bandwidth(stats),
            peak_bandwidth=self.config.peak_bandwidth,
            row_hit_rate=stats.row_hit_rate,
            total_cycles=stats.total_cycles,
        )

    def sequential_read(self, nbytes: int = 1 << 20, base: int = 0) -> CalibrationResult:
        """Stream ``nbytes`` of contiguous reads (expert-weight fetch)."""
        step = self.config.organization.access_bytes
        count = nbytes // step
        return self._run(
            "sequential-read", base + step * np.arange(count, dtype=np.int64)
        )

    def random_read(self, nbytes: int = 1 << 20, seed: int = 7) -> CalibrationResult:
        """Uniform-random 64B reads over the full address space."""
        rng = np.random.default_rng(seed)
        org = self.config.organization
        step = org.access_bytes
        count = nbytes // step
        mapper_capacity = org.n_channels * org.channel_capacity_bytes
        blocks = rng.integers(0, mapper_capacity // step, size=count, dtype=np.int64)
        return self._run("random-read", blocks * step)

    def interleaved_streams(
        self,
        nbytes_each: int = 1 << 19,
        partitioned: bool = True,
    ) -> CalibrationResult:
        """Two interleaved streams: expert weights (reads) and
        activations (alternating read/write), either placed in
        disjoint even/odd banks (the paper's Section 3.4 layout) or
        overlapping in the same banks (ablation baseline).

        Partitioning is expressed through the *row* placement: the
        unpartitioned layout puts the two streams in different rows of
        the same banks, so interleaved access ping-pongs rows (a row
        conflict per switch); the partitioned layout gives each stream
        its own banks so both keep their rows open.
        """
        from repro.dram.address import AddressMapper

        mapper = AddressMapper(self.config.organization, self.scheme)
        org = self.config.organization
        count = nbytes_each // org.access_bytes
        i = np.arange(count, dtype=np.int64)
        channel = i % org.n_channels
        column = (i // org.n_channels) % org.columns_per_row
        row = i // org.n_channels // org.columns_per_row
        if partitioned:
            # Weights in even banks-in-group, activations in odd.
            weight = mapper.encode(channel, 0, 0, 0, row % org.n_rows, column)
            act = mapper.encode(channel, 0, 0, 1, row % org.n_rows, column)
        else:
            # Same bank, disjoint row ranges -> conflicts on switch.
            weight = mapper.encode(channel, 0, 0, 0, (2 * row) % org.n_rows, column)
            act = mapper.encode(channel, 0, 0, 0, (2 * row + 1) % org.n_rows, column)
        addrs = np.empty(2 * count, dtype=np.int64)
        addrs[0::2] = weight
        addrs[1::2] = act
        # Activation accesses alternate read, write.
        flags = np.zeros(2 * count, dtype=np.uint8)
        flags[3::4] = FLAG_WRITE
        label = "interleaved-partitioned" if partitioned else "interleaved-shared"
        return self._run(label, addrs, flags)

    def effective_bandwidth(self, nbytes: int = 1 << 20) -> float:
        """Sustained sequential-stream bandwidth -- the constant the
        system-level NDP timing model consumes."""
        return self.sequential_read(nbytes).sustained_bandwidth


@lru_cache(maxsize=32)
def calibrated_effective_bandwidth(
    config: DRAMConfig = LPDDR5X_8533,
    scheme: MappingScheme = MappingScheme.RO_BA_BG_RA_CO_CH,
    nbytes: int = 1 << 20,
) -> float:
    """Cycle-simulated effective bandwidth for ``config``, cached.

    This is the hook the system-level models use to replace the spec
    bandwidth constant with one measured on the cycle-level controller
    (``Platform(dram_config=...)``, ``NDPGemmEngine.from_dram``,
    ``CostModel.from_dram_calibrated``).  Both dataclasses are frozen,
    so the (config, scheme, nbytes) triple is a safe cache key and
    repeated Platform construction stays cheap.
    """
    return BandwidthCalibrator(config, scheme).effective_bandwidth(nbytes)
