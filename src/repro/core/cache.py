"""GPU-side expert buffer with LRU replacement.

Offloading frameworks keep a bounded GPU buffer of recently used
experts: an activated expert already in the buffer needs no PMove.
The buffer explains the paper's asymmetric gains:

- *Decoders* touch few experts per step (B * top-k routing events) and
  the hot experts recur step after step, so the working set fits and
  PMove nearly vanishes -- hence the modest decoder speedups in Fig. 6
  (1.1x for Switch-Large, 1.9x for NLLB-MoE).
- *Encoders* activate most experts of every MoE layer each pass; the
  working set far exceeds the buffer and LRU thrashes, so nearly every
  activation pays a transfer -- hence the large encoder speedups.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Sequence

import numpy as np


def _expert_list(expert_ids) -> Sequence:
    """Expert ids as a flat sequence: a numpy array is flattened, any
    other sequence of ints (the layer engine passes lists and tuples)
    is used as it is."""
    if isinstance(expert_ids, np.ndarray):
        return expert_ids.ravel().tolist()
    return expert_ids


class ReplacementPolicy(enum.Enum):
    """Expert buffer replacement policies (LRU is the default; FIFO
    and NONE exist for the cache-policy ablation bench)."""

    LRU = "lru"
    FIFO = "fifo"
    NONE = "none"


class ExpertCache:
    """Replacement-policy cache keyed by (layer_id, expert_id)."""

    def __init__(
        self,
        capacity_bytes: float,
        expert_bytes: int,
        policy: ReplacementPolicy = ReplacementPolicy.LRU,
    ) -> None:
        if expert_bytes <= 0:
            raise ValueError("expert_bytes must be positive")
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        self.capacity_slots = (
            0 if policy is ReplacementPolicy.NONE else int(capacity_bytes // expert_bytes)
        )
        self.expert_bytes = expert_bytes
        self.policy = policy
        self._slots: OrderedDict[tuple[int, int], None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._slots

    def access(self, layer_id: int, expert_ids: Sequence[int]) -> tuple[int, int]:
        """Touch the given experts of one layer; returns
        (n_hits, n_misses) and installs the misses with LRU eviction.

        If the buffer cannot hold even the current layer's activated
        set, the overflow simply bypasses the cache (streamed through
        a staging buffer), which matches how offload runtimes behave.
        """
        hits = 0
        misses = 0
        for expert in _expert_list(expert_ids):
            key = (layer_id, int(expert))
            if key in self._slots:
                if self.policy is ReplacementPolicy.LRU:
                    self._slots.move_to_end(key)
                hits += 1
                continue
            misses += 1
            if self.capacity_slots == 0:
                continue
            while len(self._slots) >= self.capacity_slots:
                self._slots.popitem(last=False)
            self._slots[key] = None
        self.hits += hits
        self.misses += misses
        return hits, misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        self._slots.clear()


class ReadOnlyCacheView:
    """Non-mutating view of an :class:`ExpertCache`.

    Answers hit/miss from the current buffer contents without
    perturbing LRU order or installing speculative entries.
    """

    def __init__(self, cache: ExpertCache) -> None:
        self._cache = cache

    def access(self, layer_id: int, expert_ids: Sequence[int]) -> tuple[int, int]:
        hits = 0
        misses = 0
        for expert in _expert_list(expert_ids):
            if (layer_id, int(expert)) in self._cache:
                hits += 1
            else:
                misses += 1
        return hits, misses


class SteadyStateCacheView:
    """Steady-state hit predictor for the alpha auto-tuner.

    The tuner costs candidate partitions on *past* profiles (the paper
    re-runs profiled inference on recent batches), so it should charge
    a PMove only for experts that would still miss in steady state:
    an expert that keeps recurring stays resident in the GPU buffer --
    unless the recurring working set exceeds the buffer, in which case
    LRU thrashes and everything misses (the encoder regime).

    Costing against the current buffer instead deadlocks: an all-NDP
    partition never populates the buffer, every evaluation sees
    misses, and H stays pinned at zero.

    ``version`` counts :meth:`note` calls.  :meth:`access` reads only
    the seen counts, which only ``note`` changes, so two accesses at
    one version with the same arguments give the same answer: callers
    may reuse a result costed against this view for as long as the
    version is unchanged (the runtime's tuner evaluator does).
    """

    def __init__(self, capacity_slots: int) -> None:
        self.capacity_slots = capacity_slots
        self._seen_count: dict[tuple[int, int], int] = {}
        self.version = 0

    def note(self, layer_id: int, expert_ids: Sequence[int]) -> None:
        """Record one observed activation set for a layer."""
        self.version += 1
        for expert in _expert_list(expert_ids):
            key = (layer_id, int(expert))
            self._seen_count[key] = self._seen_count.get(key, 0) + 1

    @property
    def working_set_fits(self) -> bool:
        return len(self._seen_count) <= self.capacity_slots

    def access(self, layer_id: int, expert_ids: Sequence[int]) -> tuple[int, int]:
        hits = 0
        misses = 0
        fits = self.working_set_fits
        for expert in _expert_list(expert_ids):
            recurring = self._seen_count.get((layer_id, int(expert)), 0) >= 2
            if fits and recurring:
                hits += 1
            else:
                misses += 1
        return hits, misses
