"""Routing- and memory-trace generation for the timing models.

A :class:`RoutingTraceGenerator` produces per-layer token counts for
encoder passes and per-step counts for auto-regressive decoding; the
module-level ``*_memory_trace_arrays`` functions produce the
corresponding 64-byte DRAM request streams (streaming weight fetches,
uniform random access, and skewed MoE expert fetches) as address and
write-mask columns for the cycle-level memory controller and the
``benchmarks/perf`` harness.

Routing traces model two properties measured on trained MoE models:

- *Depth-dependent skew*: early layers route broadly (Fig. 3's layer 0
  activates ~100 of 128 experts), deeper layers concentrate sharply.
- *Temporal persistence*: each layer's expert popularity is fixed
  across decode steps, so decoders touch the same hot experts step
  after step (the property that makes the GPU expert buffer effective
  and keeps decoder PMove small -- Fig. 6's modest decoder gains).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dram.config import DRAMConfig, LPDDR5X_8533
from repro.moe.config import MoEModelConfig
from repro.workloads.distributions import mixture_popularity, sample_expert_counts


@dataclass(frozen=True)
class RoutingProfile:
    """Skew schedule across MoE-layer depth.

    Expert popularity follows the Fig. 3-calibrated hot/cold mixture
    (:func:`repro.workloads.distributions.mixture_popularity`).  The
    hot experts' event share ramps from ``hot_fraction_first`` at the
    first MoE layer to ``hot_fraction_last`` at the deepest, and the
    cold tail sparsifies (``tail_shape_first`` -> ``tail_shape_last``);
    decoder layers are floored at ``decoder_min_hot_fraction``.
    """

    hot_fraction_first: float = 0.88
    hot_fraction_last: float = 0.975
    tail_shape_first: float = 0.55
    tail_shape_last: float = 0.30
    n_hot: int = 2
    decoder_min_hot_fraction: float = 0.94

    def _ramp(self, first: float, last: float, rank: int, n_layers: int) -> float:
        if n_layers <= 1:
            return last
        frac = rank / (n_layers - 1)
        return first + frac * (last - first)

    def popularity(
        self,
        n_experts: int,
        rank: int,
        n_layers: int,
        decoder: bool,
        rng: np.random.Generator,
    ) -> np.ndarray:
        hot = self._ramp(self.hot_fraction_first, self.hot_fraction_last, rank, n_layers)
        if decoder:
            hot = max(hot, self.decoder_min_hot_fraction)
        tail = self._ramp(self.tail_shape_first, self.tail_shape_last, rank, n_layers)
        return mixture_popularity(
            n_experts, rng, hot_fraction=hot, n_hot=self.n_hot, tail_shape=tail
        )


class RoutingTraceGenerator:
    """Deterministic (seeded) routing traces for one model + batch."""

    def __init__(
        self,
        model: MoEModelConfig,
        batch: int,
        seq_len: int,
        profile: RoutingProfile | None = None,
        seed: int = 0,
    ) -> None:
        if batch < 1 or seq_len < 1:
            raise ValueError("batch and seq_len must be >= 1")
        if not model.is_moe:
            raise ValueError(f"model {model.name} has no experts to route")
        self.model = model
        self.batch = batch
        self.seq_len = seq_len
        self.profile = profile or RoutingProfile()
        self.seed = seed
        # Fixed per-layer popularity: one vector per (part, MoE rank).
        self._popularity: dict[tuple[str, int], np.ndarray] = {}
        # Routing draws by (part, MoE rank, step); callers get copies.
        self._draws: dict[tuple[str, int, int], np.ndarray] = {}

    _PART_CODES = {"encoder": 0xE, "decoder": 0xD}

    def _layer_popularity(self, part: str, rank: int, n_layers: int) -> np.ndarray:
        key = (part, rank)
        if key not in self._popularity:
            # Stable per-part code: str hash() is salted per process
            # and would make traces irreproducible across runs.
            rng = np.random.default_rng((self.seed, self._PART_CODES[part], rank))
            self._popularity[key] = self.profile.popularity(
                self.model.n_experts,
                rank,
                n_layers,
                decoder=(part == "decoder"),
                rng=rng,
            )
        return self._popularity[key]

    def _layer_counts(self, part: str, rank: int, step: int) -> np.ndarray:
        """Token counts per expert for one MoE layer pass.  Each pass
        draws from its own seed tuple, so its counts do not depend on
        which passes were drawn before it; the draw is kept."""
        key = (part, rank, step)
        if key not in self._draws:
            if part == "encoder":
                n_layers = self.model.n_moe_encoder_layers
                tokens = self.encoder_tokens
            else:
                n_layers = self.model.n_moe_decoder_layers
                tokens = self.decoder_tokens_per_step
            popularity = self._layer_popularity(part, rank, max(1, n_layers))
            rng = np.random.default_rng((self.seed, rank, step, self._PART_CODES[part]))
            self._draws[key] = sample_expert_counts(
                self.model.n_experts,
                tokens * self.model.top_k,
                0.0,
                rng,
                popularity=popularity,
            )
        return self._draws[key].copy()

    # -- encoder -------------------------------------------------------------

    @property
    def encoder_tokens(self) -> int:
        return self.batch * self.seq_len

    def encoder_layer_counts(self, moe_layer_rank: int) -> np.ndarray:
        """Token counts per expert for one encoder MoE layer pass."""
        return self._layer_counts("encoder", moe_layer_rank, 0)

    def encoder_trace(self) -> list[np.ndarray]:
        """Counts for every encoder MoE layer, shallow to deep."""
        return [
            self.encoder_layer_counts(rank)
            for rank in range(self.model.n_moe_encoder_layers)
        ]

    # -- decoder -------------------------------------------------------------

    @property
    def decoder_tokens_per_step(self) -> int:
        """Auto-regressive decoding routes one token per sequence."""
        return self.batch

    def decoder_step_counts(self, moe_layer_rank: int, step: int) -> np.ndarray:
        """Token counts per expert for one decoder MoE layer at one
        auto-regressive step."""
        return self._layer_counts("decoder", moe_layer_rank, step)

    def decoder_trace(self, n_steps: int) -> list[list[np.ndarray]]:
        """Counts[step][moe_layer_rank] for an ``n_steps`` generation."""
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        return [
            [
                self.decoder_step_counts(rank, step)
                for rank in range(self.model.n_moe_decoder_layers)
            ]
            for step in range(n_steps)
        ]


# -- DRAM request-stream generation ------------------------------------------
#
# The cycle-level memory controller consumes columns of 64-byte
# requests; these generators produce the three access shapes that
# bound its behaviour (and that ``repro bench`` times): contiguous
# streaming (expert-weight fetch), uniform random (worst case), and
# skewed MoE expert fetches (the paper's serving mix: a few hot
# experts streamed repeatedly over a long cold tail).  All address
# math is numpy-vectorized so trace generation never dominates a
# million-request simulation.
#
# Each generator returns ``(addrs, write_mask)`` columns, what
# ``MemoryController.simulate_arrays`` and the ``.dramtrace`` export
# in :mod:`repro.workloads.trace_io` consume;
# :func:`generate_trace_arrays` adds arrivals and packed flags.  Code
# that needs ``Request`` objects builds them from those columns with
# :func:`repro.dram.request.requests_from_arrays`.


def streaming_memory_trace_arrays(
    n_requests: int,
    config: DRAMConfig = LPDDR5X_8533,
    base: int = 0,
    write_fraction: float = 0.0,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous 64-byte stream from ``base``, wrapping at capacity;
    returns ``(addrs, write_mask)`` columns."""
    if n_requests < 0:
        raise ValueError("n_requests must be non-negative")
    org = config.organization
    step = org.access_bytes
    total_blocks = org.total_capacity_bytes // step
    blocks = (base // step + np.arange(n_requests, dtype=np.int64)) % total_blocks
    rng = np.random.default_rng(seed)
    writes = (
        rng.random(n_requests) < write_fraction
        if write_fraction > 0
        else np.zeros(n_requests, dtype=bool)
    )
    return blocks * step, writes


def random_memory_trace_arrays(
    n_requests: int,
    config: DRAMConfig = LPDDR5X_8533,
    write_fraction: float = 0.25,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform-random 64-byte requests over the full address space;
    returns ``(addrs, write_mask)`` columns."""
    if n_requests < 0:
        raise ValueError("n_requests must be non-negative")
    org = config.organization
    step = org.access_bytes
    rng = np.random.default_rng(seed)
    blocks = rng.integers(
        0, org.total_capacity_bytes // step, size=n_requests, dtype=np.int64
    )
    writes = rng.random(n_requests) < write_fraction
    return blocks * step, writes


def moe_expert_memory_trace_arrays(
    n_requests: int,
    config: DRAMConfig = LPDDR5X_8533,
    n_experts: int = 128,
    expert_bytes: int = 1 << 22,
    burst_blocks: int = 32,
    hot_fraction: float = 0.9,
    n_hot: int = 2,
    tail_shape: float = 0.4,
    write_fraction: float = 0.1,
    seed: int = 0,
    experts: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Skewed MoE expert-weight traffic; returns ``(addrs,
    write_mask)`` columns.

    Experts own contiguous weight regions; each *burst* picks an
    expert from the Fig. 3-calibrated hot/cold mixture and streams
    ``burst_blocks`` consecutive 64-byte blocks from that expert's
    region (resuming where the expert's previous fetch left off).  A
    ``write_fraction`` of bursts are activation writebacks.  The
    result interleaves long sequential runs (hot experts, row hits)
    with scattered cold-expert fetches (row misses) -- the mix that
    makes FR-FCFS lookahead matter.

    With an explicit ``experts`` array (one expert id per burst) the
    popularity sampling is skipped and the bursts target exactly that
    sequence -- the trace-faithful path
    :func:`repro.traffic.routing_trace.routing_dram_arrays` uses to
    replay real routing traces through the identical region layout,
    resume-offset, and writeback math.
    """
    if n_requests < 0:
        raise ValueError("n_requests must be non-negative")
    if n_experts < 1 or burst_blocks < 1:
        raise ValueError("n_experts and burst_blocks must be >= 1")
    org = config.organization
    step = org.access_bytes
    total_blocks = org.total_capacity_bytes // step
    if n_experts > total_blocks:
        raise ValueError(
            f"{n_experts} experts cannot fit in {total_blocks} blocks of capacity"
        )
    expert_blocks = max(burst_blocks, expert_bytes // step)
    if n_experts * expert_blocks > total_blocks:
        # Shrink regions to fit the device; bursts wrap inside the
        # (possibly shorter-than-burst) region via the modulo below.
        expert_blocks = total_blocks // n_experts

    rng = np.random.default_rng(seed)
    if experts is not None:
        experts = np.asarray(experts, dtype=np.int64)
        if experts.ndim != 1:
            raise ValueError("experts must be a 1-D array of expert ids")
        if len(experts) and (experts.min() < 0 or experts.max() >= n_experts):
            raise ValueError(
                f"expert ids must be in [0, {n_experts}), got "
                f"[{int(experts.min())}, {int(experts.max())}]"
            )
        n_bursts = len(experts)
        if n_requests > n_bursts * burst_blocks:
            raise ValueError(
                f"{n_requests} requests need more than the "
                f"{n_bursts} provided expert bursts x {burst_blocks} blocks"
            )
    else:
        popularity = mixture_popularity(
            n_experts, rng, hot_fraction=hot_fraction, n_hot=n_hot,
            tail_shape=tail_shape,
        )
        n_bursts = -(-n_requests // burst_blocks)
        experts = rng.choice(n_experts, size=n_bursts, p=popularity)

    # Per-burst resume offset: the k-th fetch of an expert starts
    # where its (k-1)-th left off (vectorized cumulative count).
    order = np.argsort(experts, kind="stable")
    sorted_experts = experts[order]
    group_start = np.r_[0, np.flatnonzero(np.diff(sorted_experts)) + 1]
    sizes = np.diff(np.r_[group_start, n_bursts])
    cumcount_sorted = np.arange(n_bursts) - np.repeat(group_start, sizes)
    cumcount = np.empty(n_bursts, dtype=np.int64)
    cumcount[order] = cumcount_sorted

    start_blocks = (
        experts.astype(np.int64) * expert_blocks
        + (cumcount * burst_blocks) % expert_blocks
    )
    # Offsets wrap within each expert's region, never into a neighbour's.
    offsets = np.arange(burst_blocks, dtype=np.int64)
    region_base = experts.astype(np.int64)[:, None] * expert_blocks
    blocks = (
        (start_blocks[:, None] - region_base + offsets) % expert_blocks + region_base
    )
    burst_writes = rng.random(n_bursts) < write_fraction
    writes = np.repeat(burst_writes, burst_blocks)
    addrs = blocks.reshape(-1)[:n_requests] * step
    return addrs, writes[:n_requests]


#: Named trace generators used by ``repro bench`` / benchmarks/perf;
#: each returns ``(addrs, write_mask)``.
MEMORY_TRACE_ARRAYS = {
    "streaming": streaming_memory_trace_arrays,
    "random": random_memory_trace_arrays,
    "moe-skewed": moe_expert_memory_trace_arrays,
}


def generate_trace_arrays(
    pattern: str,
    n_requests: int,
    config: DRAMConfig | None = None,
    seed: int = 0,
    arrival: str | None = None,
    arrival_gap: float = 8.0,
    **generator_kwargs,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-stop array-native trace: ``(addrs, arrive_cycles, flags)``.

    ``pattern`` selects from :data:`MEMORY_TRACE_ARRAYS` and
    ``arrival`` (optionally) from :data:`ARRIVAL_PROCESSES` with mean
    gap ``arrival_gap``; ``arrival=None`` keeps the all-at-cycle-0
    batch default.  The flags column uses the ``.dramtrace`` encoding
    (:func:`repro.workloads.trace_io.pack_flags`).  This is the shared
    entry point behind ``repro trace gen`` and the array path of
    ``repro bench``.
    """
    from repro.workloads.trace_io import pack_flags

    try:
        generator = MEMORY_TRACE_ARRAYS[pattern]
    except KeyError:
        raise ValueError(
            f"unknown pattern {pattern!r}; choose from {sorted(MEMORY_TRACE_ARRAYS)}"
        ) from None
    addrs, write_mask = generator(
        n_requests, config=config or LPDDR5X_8533, seed=seed, **generator_kwargs
    )
    if arrival is None:
        arrive_cycles = np.zeros(n_requests, dtype=np.int64)
    else:
        try:
            process = ARRIVAL_PROCESSES[arrival]
        except KeyError:
            raise ValueError(
                f"unknown arrival process {arrival!r}; "
                f"choose from {sorted(ARRIVAL_PROCESSES)}"
            ) from None
        arrive_cycles = process(n_requests, arrival_gap, seed=seed)
    return addrs, arrive_cycles, pack_flags(write_mask)


# -- arrival-process generation -----------------------------------------------
#
# The controller honors each request's arrive cycle, so a memory trace
# is really (addresses, arrivals).  These generators produce sorted
# arrival-cycle arrays for the three open-loop shapes that bound
# queueing behaviour -- Poisson (memoryless serving traffic),
# fixed-rate batches (lockstep inference steps), and on/off bursts
# (think periodic expert prefetch storms) -- all seeded and offset by
# ``start_cycle`` so multi-stream traces can be phase-shifted.


def poisson_arrival_cycles(
    n: int,
    mean_gap_cycles: float,
    seed: int = 0,
    start_cycle: int = 0,
) -> np.ndarray:
    """Open-loop Poisson arrivals: exponential inter-arrival gaps with
    the given mean, floored to integer cycles."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if mean_gap_cycles <= 0:
        raise ValueError("mean_gap_cycles must be positive")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(mean_gap_cycles, size=n)
    return start_cycle + np.floor(np.cumsum(gaps)).astype(np.int64)


def batched_arrival_cycles(
    n: int,
    batch_size: int,
    batch_gap_cycles: int,
    start_cycle: int = 0,
) -> np.ndarray:
    """Fixed-rate batched arrivals: ``batch_size`` requests land
    together every ``batch_gap_cycles`` (deterministic)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if batch_size < 1 or batch_gap_cycles < 1:
        raise ValueError("batch_size and batch_gap_cycles must be >= 1")
    batches = np.arange(n, dtype=np.int64) // batch_size
    return start_cycle + batches * batch_gap_cycles


def onoff_arrival_cycles(
    n: int,
    mean_gap_cycles: float,
    on_cycles: int,
    off_cycles: int,
    seed: int = 0,
    start_cycle: int = 0,
) -> np.ndarray:
    """On/off bursty arrivals: Poisson arrivals at ``mean_gap_cycles``
    during ``on_cycles``-long active periods separated by silent
    ``off_cycles`` gaps.  Arrivals are generated on a compressed
    active-time axis and expanded by the duty cycle, so the offered
    load during bursts is rate-exact."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if mean_gap_cycles <= 0:
        raise ValueError("mean_gap_cycles must be positive")
    if on_cycles < 1 or off_cycles < 0:
        raise ValueError("on_cycles must be >= 1 and off_cycles >= 0")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(mean_gap_cycles, size=n)
    active = np.floor(np.cumsum(gaps)).astype(np.int64)
    period = on_cycles + off_cycles
    return start_cycle + (active // on_cycles) * period + active % on_cycles


def _batched_process(
    n: int, mean_gap_cycles: float, seed: int = 0, start_cycle: int = 0
) -> np.ndarray:
    if mean_gap_cycles <= 0:
        raise ValueError("mean_gap_cycles must be positive")
    return batched_arrival_cycles(
        n,
        batch_size=64,
        batch_gap_cycles=max(1, int(round(64 * mean_gap_cycles))),
        start_cycle=start_cycle,
    )


def _onoff_process(
    n: int, mean_gap_cycles: float, seed: int = 0, start_cycle: int = 0
) -> np.ndarray:
    # 4x the offered rate while on, 1/4 duty cycle: same mean rate.
    if mean_gap_cycles <= 0:
        raise ValueError("mean_gap_cycles must be positive")
    return onoff_arrival_cycles(
        n,
        mean_gap_cycles / 4.0,
        on_cycles=max(1, int(round(256 * mean_gap_cycles))),
        off_cycles=max(1, int(round(768 * mean_gap_cycles))),
        seed=seed,
        start_cycle=start_cycle,
    )


#: Named arrival processes (``repro bench --arrival``).  Each takes
#: (n, mean_gap_cycles, seed, start_cycle) and returns sorted cycles;
#: the batched/on-off shapes keep the same offered rate as a Poisson
#: process with the same mean gap.
ARRIVAL_PROCESSES = {
    "poisson": poisson_arrival_cycles,
    "batched": _batched_process,
    "onoff": _onoff_process,
}
