"""Physical-address-to-DRAM-coordinate mapping.

Section 3.4 of the paper: data in the MoNDE memory space is mapped
``ro-ba-bg-ra-co-ch`` (fields listed MSB -> LSB) "in order to fully
utilize the DRAM bandwidth for contiguous memory accesses".  With the
channel bits lowest, consecutive 64-byte blocks interleave across all
channels; the column bits next keep each channel streaming within an
open row; bank / bank-group bits above that expose bank-level
parallelism for row-activation overlap; row bits change slowest.

A naive ``ROW_MAJOR`` scheme (channel highest, column lowest) is also
provided as the ablation baseline: contiguous data then lives in a
single channel and crosses rows within one bank, destroying both
channel parallelism and row locality for streams.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.dram.config import DRAMOrganization
from repro.dram.request import DecodedAddress


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def _log2(value: int) -> int:
    return value.bit_length() - 1


@dataclass(frozen=True)
class DecodedBatch:
    """Struct-of-arrays result of :meth:`AddressMapper.decode_batch`.

    Each field is an ``int64`` array of one DRAM coordinate per input
    address, in input order.  Indexing materializes the equivalent
    :class:`DecodedAddress` (with plain Python ints, exactly as the
    scalar :meth:`AddressMapper.decode` would have produced).
    """

    channel: np.ndarray
    rank: np.ndarray
    bankgroup: np.ndarray
    bank: np.ndarray
    row: np.ndarray
    column: np.ndarray

    def __len__(self) -> int:
        return len(self.channel)

    def __getitem__(self, i: int) -> DecodedAddress:
        return DecodedAddress(
            channel=int(self.channel[i]),
            rank=int(self.rank[i]),
            bankgroup=int(self.bankgroup[i]),
            bank=int(self.bank[i]),
            row=int(self.row[i]),
            column=int(self.column[i]),
        )

    def flat_bank_index(self, n_bankgroups: int, banks_per_group: int) -> np.ndarray:
        """Vectorized :meth:`DecodedAddress.flat_bank_index`."""
        return (
            self.rank * (n_bankgroups * banks_per_group)
            + self.bankgroup * banks_per_group
            + self.bank
        )


class MappingScheme(enum.Enum):
    #: The paper's mapping: row | bank | bankgroup | rank | column | channel.
    RO_BA_BG_RA_CO_CH = "ro-ba-bg-ra-co-ch"
    #: Naive mapping: channel | rank | bankgroup | bank | row | column.
    ROW_MAJOR = "row-major"


class AddressMapper:
    """Bit-sliced address decoder for a :class:`DRAMOrganization`.

    All geometry dimensions must be powers of two (as in real parts);
    the 6 lowest bits (64-byte access offset) are dropped first.
    """

    def __init__(
        self,
        organization: DRAMOrganization,
        scheme: MappingScheme = MappingScheme.RO_BA_BG_RA_CO_CH,
    ) -> None:
        org = organization
        for name, value in (
            ("n_channels", org.n_channels),
            ("n_ranks", org.n_ranks),
            ("n_bankgroups", org.n_bankgroups),
            ("banks_per_group", org.banks_per_group),
            ("n_rows", org.n_rows),
            ("columns_per_row", org.columns_per_row),
            ("access_bytes", org.access_bytes),
        ):
            if not _is_power_of_two(value):
                raise ValueError(f"{name} must be a power of two, got {value}")
        self.organization = org
        self.scheme = scheme
        self._offset_bits = _log2(org.access_bytes)
        self._bits = {
            "ch": _log2(org.n_channels),
            "ra": _log2(org.n_ranks),
            "bg": _log2(org.n_bankgroups),
            "ba": _log2(org.banks_per_group),
            "ro": _log2(org.n_rows),
            "co": _log2(org.columns_per_row),
        }
        if scheme is MappingScheme.RO_BA_BG_RA_CO_CH:
            self._order_lsb_to_msb = ["ch", "co", "ra", "bg", "ba", "ro"]
        elif scheme is MappingScheme.ROW_MAJOR:
            self._order_lsb_to_msb = ["co", "ro", "ba", "bg", "ra", "ch"]
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown mapping scheme: {scheme}")

    @property
    def address_bits(self) -> int:
        """Total decodable address bits (including the access offset)."""
        return self._offset_bits + sum(self._bits.values())

    @property
    def capacity_bytes(self) -> int:
        return 1 << self.address_bits

    def decode(self, addr: int) -> DecodedAddress:
        """Decode a byte address into DRAM coordinates."""
        if addr < 0:
            raise ValueError(f"address must be non-negative, got {addr}")
        if addr >= self.capacity_bytes:
            raise ValueError(
                f"address {addr:#x} beyond device capacity {self.capacity_bytes:#x}"
            )
        block = addr >> self._offset_bits
        fields: dict[str, int] = {}
        for name in self._order_lsb_to_msb:
            width = self._bits[name]
            fields[name] = block & ((1 << width) - 1)
            block >>= width
        return DecodedAddress(
            channel=fields["ch"],
            rank=fields["ra"],
            bankgroup=fields["bg"],
            bank=fields["ba"],
            row=fields["ro"],
            column=fields["co"],
        )

    def decode_batch(self, addrs) -> DecodedBatch:
        """Vectorized :meth:`decode` for a whole request stream.

        ``addrs`` is any integer sequence/array of byte addresses.
        Validation matches the scalar path: the first negative or
        beyond-capacity address raises the same ``ValueError``.
        """
        if self.address_bits >= 63:  # int64 cannot hold the address space
            decoded = [self.decode(int(addr)) for addr in addrs]
            return DecodedBatch(
                channel=np.array([d.channel for d in decoded], dtype=np.int64),
                rank=np.array([d.rank for d in decoded], dtype=np.int64),
                bankgroup=np.array([d.bankgroup for d in decoded], dtype=np.int64),
                bank=np.array([d.bank for d in decoded], dtype=np.int64),
                row=np.array([d.row for d in decoded], dtype=np.int64),
                column=np.array([d.column for d in decoded], dtype=np.int64),
            )
        try:
            a = np.asarray(addrs, dtype=np.int64)
        except OverflowError:
            # Some address exceeds int64; with address_bits < 63 it is
            # necessarily beyond capacity (or negative) -- let the
            # scalar path raise its usual ValueError for it.
            for addr in addrs:
                self.decode(int(addr))
            raise AssertionError("unreachable: an address must have overflowed")
        if a.ndim != 1:
            a = a.reshape(-1)
        if a.size:
            invalid = (a < 0) | (a >= self.capacity_bytes)
            if invalid.any():
                bad = int(a[int(np.argmax(invalid))])
                if bad < 0:
                    raise ValueError(f"address must be non-negative, got {bad}")
                raise ValueError(
                    f"address {bad:#x} beyond device capacity {self.capacity_bytes:#x}"
                )
        block = a >> self._offset_bits
        fields: dict[str, np.ndarray] = {}
        for name in self._order_lsb_to_msb:
            width = self._bits[name]
            fields[name] = block & ((1 << width) - 1)
            block = block >> width
        return DecodedBatch(
            channel=fields["ch"],
            rank=fields["ra"],
            bankgroup=fields["bg"],
            bank=fields["ba"],
            row=fields["ro"],
            column=fields["co"],
        )

    def encode(self, channel, rank, bankgroup, bank, row, column):
        """Inverse of :meth:`decode` (round-trips exactly).

        Fields are ints (returns an int) or int64 arrays broadcasting
        against each other (returns an int64 array of addresses)."""
        fields = {
            "ch": channel, "ra": rank, "bg": bankgroup,
            "ba": bank, "ro": row, "co": column,
        }
        limits = {
            "ch": self.organization.n_channels,
            "ra": self.organization.n_ranks,
            "bg": self.organization.n_bankgroups,
            "ba": self.organization.banks_per_group,
            "ro": self.organization.n_rows,
            "co": self.organization.columns_per_row,
        }
        for name, value in fields.items():
            v = np.asarray(value)
            bad = (v < 0) | (v >= limits[name])
            if bad.any():
                raise ValueError(
                    f"{name}={v[bad].flat[0]} out of range [0, {limits[name]})"
                )
        if self.address_bits >= 63 and any(np.ndim(v) for v in fields.values()):
            raise ValueError("array encode needs an address space that fits int64")
        block = 0
        for name in reversed(self._order_lsb_to_msb):
            block = (block << self._bits[name]) | fields[name]
        return block << self._offset_bits

    def sequential_stream(self, base: int, nbytes: int) -> list[int]:
        """Addresses of the 64-byte blocks covering ``[base, base+nbytes)``."""
        if base % self.organization.access_bytes != 0:
            raise ValueError("base must be access-aligned")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        step = self.organization.access_bytes
        count = -(-nbytes // step)
        return (base + step * np.arange(count, dtype=np.int64)).tolist()
