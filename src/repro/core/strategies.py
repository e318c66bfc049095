"""The evaluated execution schemes and their data-movement strategies.

Schemes (Section 4.2, Fig. 5/6):

- ``IDEAL``: a GPU with infinite memory; every parameter resident.
- ``GPU_PM``: on-demand Parameter Movement -- activated experts are
  fetched over PCIe and computed on the GPU.
- ``MD_AM``: Activation Movement -- all expert computation on the
  MoNDE NDP; only activations cross the link.
- ``MD_LB``: GPU-MoNDE load balancing -- hot experts via PMove on the
  GPU, cold experts via AMove on the NDP, overlapped.
- ``CPU_AM``: activations to the host; the CPU computes the experts
  (the Fig. 8 baseline).
- ``MULTI_GPU``: expert parallelism across GPUs, all parameters
  resident (the Fig. 10 baseline).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.hw.specs import BF16_BYTES


class Scheme(enum.Enum):
    IDEAL = "ideal"
    GPU_PM = "gpu+pm"
    MD_AM = "md+am"
    MD_LB = "md+lb"
    CPU_AM = "cpu+am"
    MULTI_GPU = "multi-gpu"

    @property
    def uses_monde(self) -> bool:
        return self in (Scheme.MD_AM, Scheme.MD_LB)


@dataclass(frozen=True)
class PMoveStrategy:
    """On-demand Parameter Movement accounting.

    Only *activated* experts cross the link (the paper implements the
    on-demand variant of [Huang+ 2023] rather than whole-layer
    over-fetch), and a GPU-side expert buffer may already hold some of
    them (``cached_mask``).
    """

    d_model: int
    d_ff: int
    dtype_bytes: int = BF16_BYTES

    @property
    def expert_bytes(self) -> int:
        return 2 * self.d_model * self.d_ff * self.dtype_bytes

    def transfer_bytes(
        self, token_counts: np.ndarray, cached_mask: np.ndarray | None = None
    ) -> int:
        """Bytes that must cross PCIe for this layer's activated,
        uncached experts."""
        active = np.asarray(token_counts) > 0
        if cached_mask is not None:
            active = active & ~np.asarray(cached_mask, dtype=bool)
        return int(active.sum()) * self.expert_bytes


@dataclass(frozen=True)
class AMoveStrategy:
    """Activation Movement accounting (Eq. 2, per-expert granularity).

    Input activations are scattered per expert (each expert receives
    its routed tokens), outputs gathered back, so total volume is
    2 * (sum of routed token counts) * d_model elements -- for top-k
    routing that is 2 * k * B * S * d_model.
    """

    d_model: int
    dtype_bytes: int = BF16_BYTES

    def transfer_bytes(self, token_counts: np.ndarray) -> int:
        routed = int(np.asarray(token_counts).sum())
        return 2 * routed * self.d_model * self.dtype_bytes

    def input_bytes(self, token_counts: np.ndarray) -> int:
        return self.token_bytes(int(np.asarray(token_counts).sum()))

    def token_bytes(self, routed: int) -> int:
        """Activation bytes of ``routed`` routing events, one way."""
        return routed * self.d_model * self.dtype_bytes

    def output_bytes(self, token_counts: np.ndarray) -> int:
        return self.input_bytes(token_counts)
