"""The MoNDE device: memory layout, functional memory, kernel engine.

Section 3.4 "Memory Allocation": the host driver allocates fixed-size
regions for expert parameters and activations; parameters map to the
even-indexed banks and activations to the odd-indexed banks to avoid
contention when both are accessed during a kernel.

The device holds two coupled states:

- a *functional* memory (address -> NumPy tensor) so kernels produce
  real numbers, and
- a *layout* that assigns each allocation DRAM-coordinate-aware
  addresses (via the ro-ba-bg-ra-co-ch mapper), used by tests and the
  DRAM-level ablation benches to check bank placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dram.address import AddressMapper, MappingScheme
from repro.dram.config import LPDDR5X_8533, DRAMConfig
from repro.hw.specs import MONDE_DEVICE, MoNDEDeviceSpec
from repro.ndp.engine import NDPGemmEngine


@dataclass(frozen=True)
class Allocation:
    """One device-memory allocation."""

    addr: int
    nbytes: int
    region: str  # "expert" | "activation"


class DeviceMemoryLayout:
    """Bump allocator with even/odd bank partitioning.

    Addresses are synthesized through the address mapper so that every
    64-byte block of an expert allocation decodes to an even
    bank-in-group index and every activation block to an odd one,
    while staying sequential in (channel, column, row) order for
    streaming bandwidth.
    """

    def __init__(self, dram_config: DRAMConfig = LPDDR5X_8533) -> None:
        self.dram_config = dram_config
        self.mapper = AddressMapper(
            dram_config.organization, MappingScheme.RO_BA_BG_RA_CO_CH
        )
        self._next_block = {"expert": 0, "activation": 0}
        self.allocations: list[Allocation] = []

    def _block_to_addr(self, block, parity: int):
        """Map a dense block index (an int or an int64 array of them)
        to a physical address whose bank-in-group LSB equals
        ``parity``."""
        org = self.dram_config.organization
        ch = block % org.n_channels
        rest = block // org.n_channels
        co = rest % org.columns_per_row
        rest //= org.columns_per_row
        bg = rest % org.n_bankgroups
        rest //= org.n_bankgroups
        ba_half = rest % (org.banks_per_group // 2)
        rest //= org.banks_per_group // 2
        ro = rest % org.n_rows
        ba = 2 * ba_half + parity
        return self.mapper.encode(ch, 0, bg, ba, ro, co)

    def allocate(self, nbytes: int, region: str) -> Allocation:
        if region not in ("expert", "activation"):
            raise ValueError(f"region must be 'expert' or 'activation', got {region!r}")
        if nbytes < 1:
            raise ValueError("allocation must be >= 1 byte")
        parity = 0 if region == "expert" else 1
        block = self._next_block[region]
        addr = self._block_to_addr(block, parity)
        access = self.dram_config.organization.access_bytes
        n_blocks = -(-nbytes // access)
        self._next_block[region] += n_blocks
        allocation = Allocation(addr=addr, nbytes=nbytes, region=region)
        self.allocations.append(allocation)
        return allocation

    def block_addresses(self, allocation: Allocation) -> np.ndarray:
        """Physical addresses of every 64-byte block of an allocation,
        as an int64 array (used to drive the cycle-level DRAM
        simulator)."""
        org = self.dram_config.organization
        access = org.access_bytes
        parity = 0 if allocation.region == "expert" else 1
        # Recover the starting block index from the first address.
        first = self.mapper.decode(allocation.addr)
        half = org.banks_per_group // 2
        start = first.channel
        start += org.n_channels * first.column
        start += org.n_channels * org.columns_per_row * first.bankgroup
        start += (
            org.n_channels * org.columns_per_row * org.n_bankgroups * (first.bank // 2)
        )
        start += (
            org.n_channels * org.columns_per_row * org.n_bankgroups * half * first.row
        )
        n_blocks = -(-allocation.nbytes // access)
        return self._block_to_addr(start + np.arange(n_blocks, dtype=np.int64), parity)


class MoNDEDevice:
    """A functional-plus-timed MoNDE CXL memory expander with NDP.

    The device exposes exactly what the host driver needs: raw memory
    writes (CXL.mem), tensor reads/writes at allocated addresses, and
    the NDP engine the controller drives.
    """

    def __init__(
        self,
        spec: MoNDEDeviceSpec = MONDE_DEVICE,
        dram_config: DRAMConfig = LPDDR5X_8533,
        device_id: int = 0,
    ) -> None:
        self.spec = spec
        self.device_id = device_id
        self.layout = DeviceMemoryLayout(dram_config)
        self.engine = NDPGemmEngine(spec.ndp, spec.effective_bandwidth)
        self._tensors: dict[int, np.ndarray] = {}
        self._raw: dict[int, bytes] = {}

    # -- allocation ----------------------------------------------------------

    def allocate(self, nbytes: int, region: str) -> Allocation:
        return self.layout.allocate(nbytes, region)

    def store_tensor(self, tensor: np.ndarray, region: str) -> Allocation:
        """Allocate and functionally store a tensor; returns its handle."""
        allocation = self.allocate(max(1, tensor.nbytes), region)
        self._tensors[allocation.addr] = np.array(tensor)
        return allocation

    # -- functional memory -----------------------------------------------------

    def write_tensor(self, addr: int, tensor: np.ndarray) -> None:
        self._tensors[addr] = np.array(tensor)

    def read_tensor(self, addr: int) -> np.ndarray:
        if addr not in self._tensors:
            raise KeyError(f"no tensor at device address {addr:#x}")
        return self._tensors[addr]

    def write_raw(self, addr: int, payload: bytes) -> None:
        """Plain CXL.mem 64-byte write (non-NDP flit path)."""
        self._raw[addr] = bytes(payload)

    def read_raw(self, addr: int) -> Optional[bytes]:
        return self._raw.get(addr)

    # -- capacity accounting -----------------------------------------------------

    @property
    def bytes_allocated(self) -> int:
        return sum(a.nbytes for a in self.layout.allocations)

    def check_capacity(self) -> None:
        if self.bytes_allocated > self.spec.mem_capacity:
            raise MemoryError(
                f"device over-committed: {self.bytes_allocated} B allocated, "
                f"capacity {self.spec.mem_capacity} B"
            )
