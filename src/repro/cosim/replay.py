"""Expert-faithful DRAM replay of a serving run.

The synthetic replay (:func:`repro.serving.simulator.dram_replay_trace_arrays`)
streams each serving request's burst from a *seeded random* weight
region.  This module replaces that pick with the weight regions of the
experts the request actually activated: every (MoE layer, expert) owns
a contiguous region of DRAM, a request's routing decisions are drawn
per layer from the :class:`~repro.workloads.traces.RoutingProfile`'s
calibrated popularity (or taken from real
:class:`~repro.moe.gating.Router` forward passes), and the request's
blocks are split across those regions proportionally to routed tokens.
Each activation streams an expert's weights from the start of its
region -- the actual MoE weight-fetch shape, with hot experts'
regions re-read request after request (row-buffer friendly) and cold
experts scattered across the address space.

Addresses for one serving request depend only on its ``request_id``
and token counts (not on which other requests completed or in what
order), so the co-simulation driver can replay the same request set
under different arrival timings -- including the serialized
calibration pass that isolates per-request memory contention -- and
get identical per-request address streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.dram.config import DRAMConfig, LPDDR5X_8533
from repro.moe.gating import Router
from repro.serving.simulator import ServingResult
from repro.workloads.distributions import sample_expert_counts
from repro.workloads.traces import RoutingProfile


#: ``phases`` column values: prefill bursts vs per-step decode bursts.
PHASE_PREFILL = 0
PHASE_DECODE = 1


@dataclass(frozen=True)
class ReplayTrace:
    """One serving run rendered as DRAM trace columns.

    ``request_ids[i]`` is the serving ``request_id`` whose burst
    emitted DRAM request ``i``; ``tokens_by_request`` maps each
    replayed serving request to its prompt+decode token count (used to
    convert per-request delay into per-token cost inflation).

    Phase-aware replays (batching-engine serving runs) additionally
    carry ``burst_ids`` -- a unique id per contiguous burst, since one
    request then emits several bursts (one prefill, one per decode
    step) -- and ``phases`` (:data:`PHASE_PREFILL` /
    :data:`PHASE_DECODE` per DRAM request), which the co-simulation
    driver uses to attribute measured contention to prefill vs decode
    and apply distinct surcharges.  Both are ``None`` for legacy
    one-burst-per-request replays.
    """

    addrs: np.ndarray
    arrive_cycles: np.ndarray
    flags: np.ndarray
    request_ids: np.ndarray
    tokens_by_request: dict[int, int]
    burst_ids: Optional[np.ndarray] = None
    phases: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.addrs.shape[0]


class ExpertReplayPlanner:
    """Maps serving requests to the DRAM regions of their experts.

    One planner is built per (model geometry, DRAM config) and reused
    across co-simulation iterations; it keeps each request's blocks
    (:meth:`request_blocks`).  Routing decisions come from the profile's
    per-layer popularity by default, or from real gating networks when
    ``routers`` is given (one :class:`~repro.moe.gating.Router` per
    MoE layer; each request then routes seeded token embeddings
    through the actual top-k gate and its burst targets exactly the
    experts with routed tokens).
    """

    #: A request's addresses depend only on (seed, request_id, tokens),
    #: so isolation baselines computed once stay valid across
    #: co-simulation iterations.
    stable_addresses = True

    def __init__(
        self,
        n_experts: int,
        top_k: int,
        n_moe_layers: int,
        profile: Optional[RoutingProfile] = None,
        dram_config: Optional[DRAMConfig] = None,
        bytes_per_token: int = 2048,
        max_blocks_per_request: int = 4096,
        expert_bytes: int = 1 << 22,
        routers: Optional[Sequence[Router]] = None,
        max_routed_tokens: int = 64,
        seed: int = 0,
    ) -> None:
        if n_experts < 1 or n_moe_layers < 1:
            raise ValueError("n_experts and n_moe_layers must be >= 1")
        if not 1 <= top_k <= n_experts:
            raise ValueError(f"top_k must be in [1, {n_experts}], got {top_k}")
        if bytes_per_token < 1 or max_blocks_per_request < 1 or expert_bytes < 1:
            raise ValueError(
                "bytes_per_token, max_blocks_per_request, expert_bytes must be >= 1"
            )
        if max_routed_tokens < 1:
            raise ValueError("max_routed_tokens must be >= 1")
        if routers is not None and len(routers) != n_moe_layers:
            raise ValueError(
                f"{len(routers)} routers for {n_moe_layers} MoE layers"
            )
        self.n_experts = n_experts
        self.top_k = top_k
        self.n_moe_layers = n_moe_layers
        self.profile = profile or RoutingProfile()
        self.config = dram_config if dram_config is not None else LPDDR5X_8533
        self.bytes_per_token = bytes_per_token
        self.max_blocks_per_request = max_blocks_per_request
        self.routers = list(routers) if routers is not None else None
        self.max_routed_tokens = max_routed_tokens
        self.seed = seed

        org = self.config.organization
        self._step = org.access_bytes
        self._total_blocks = org.total_capacity_bytes // self._step
        self._region_blocks = max(1, expert_bytes // self._step)
        # Per-layer expert popularity, fixed for the planner's lifetime
        # (temporal persistence: the same hot experts stay hot across
        # requests, matching the routing-trace generator's model).
        self._popularity = [
            self.profile.popularity(
                n_experts,
                rank,
                n_moe_layers,
                decoder=False,
                rng=np.random.default_rng((seed, 0xE, rank)),
            )
            for rank in range(n_moe_layers)
        ]
        self._blocks: dict[tuple[int, int], np.ndarray] = {}

    def __getstate__(self) -> dict:
        # The block cache is a pure function of the rest of the state;
        # drop it so pickles shipped to sweep workers stay small.
        state = self.__dict__.copy()
        state["_blocks"] = {}
        return state

    # -- region geometry (consumed by repro.cluster sharding) -------------

    @property
    def n_regions(self) -> int:
        """Distinct physical expert-weight regions in the address
        space (sharding granularity for expert-parallel placement)."""
        return max(1, self._total_blocks // self._region_blocks)

    def region_of_addrs(self, addrs: np.ndarray) -> np.ndarray:
        """Physical expert-region index of each DRAM address -- the
        unit a :class:`repro.cluster.sharding.ShardingPolicy` places
        on a device.  Inverse of the region layout in
        :meth:`request_blocks` wherever regions do not wrap."""
        return (addrs // self._step) // self._region_blocks

    def hot_region_ids(self, hot_fraction: float) -> frozenset[int]:
        """Physical regions of the per-layer hottest experts: the top
        ``ceil(hot_fraction * n_experts)`` experts by the planner's
        calibrated popularity, per MoE layer -- the MoNDE-style
        hot/cold split where hot experts stay replicated and only the
        cold tail is sharded."""
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        n_hot = max(0, min(self.n_experts, int(np.ceil(hot_fraction * self.n_experts))))
        hot: set[int] = set()
        for layer, pop in enumerate(self._popularity):
            for expert in np.argsort(-pop, kind="stable")[:n_hot].tolist():
                region_id = layer * self.n_experts + int(expert)
                base = (region_id * self._region_blocks) % self._total_blocks
                hot.add(int(base // self._region_blocks))
        return frozenset(hot)

    # -- per-request routing + addressing ---------------------------------

    def _popularity_for(self, request_id: int) -> list[np.ndarray]:
        """Per-layer popularity in effect for one request.  The base
        planner's popularity is fixed for its lifetime; subclasses
        (e.g. :class:`repro.traffic.drift.DriftingReplayPlanner`)
        override this to drift the distribution across the request
        stream while keeping addresses a pure function of
        ``(seed, request_id, tokens)``."""
        return self._popularity

    def _layer_counts(
        self,
        rng: np.random.Generator,
        tokens: int,
        popularity: Optional[list] = None,
    ) -> list[np.ndarray]:
        """Routed-token counts per expert for each MoE layer of one
        request's pass."""
        routed = min(tokens, self.max_routed_tokens)
        if self.routers is not None:
            counts = []
            for router in self.routers:
                embeds = rng.standard_normal((routed, router.d_model))
                counts.append(router.route(embeds).tokens_per_expert)
            return counts
        events = routed * self.top_k
        return [
            sample_expert_counts(self.n_experts, events, 0.0, rng, popularity=pop)
            for pop in (popularity if popularity is not None else self._popularity)
        ]

    def request_blocks(self, request_id: int, tokens: int) -> np.ndarray:
        """Block indices fetched by one serving request, in layer
        order -- deterministic in (seed, request_id, tokens) alone, so
        computed once per planner and returned read-only."""
        key = (request_id, tokens)
        blocks = self._blocks.get(key)
        if blocks is None:
            blocks = self._request_blocks(request_id, tokens)
            blocks.flags.writeable = False
            self._blocks[key] = blocks
        return blocks

    def _request_blocks(self, request_id: int, tokens: int) -> np.ndarray:
        if tokens < 1:
            raise ValueError("tokens must be >= 1")
        n_blocks = min(
            self.max_blocks_per_request,
            -(-(tokens * self.bytes_per_token) // self._step),
        )
        rng = np.random.default_rng((self.seed, request_id))
        layer_counts = self._layer_counts(
            rng, tokens, self._popularity_for(request_id)
        )
        total_events = sum(int(c.sum()) for c in layer_counts)
        if total_events == 0:
            # Degenerate routing (no events): stream the first expert.
            layer_counts[0][0] = 1
            total_events = 1

        # Allocate the request's blocks across its activated
        # (layer, expert) regions proportionally to routed tokens;
        # largest-remainder rounding keeps the total exact.
        pairs = []
        for layer, counts in enumerate(layer_counts):
            for expert in np.flatnonzero(counts):
                pairs.append((layer, int(expert), int(counts[expert])))
        shares = np.array([c for _, _, c in pairs], dtype=np.float64)
        raw = shares * (n_blocks / total_events)
        alloc = np.floor(raw).astype(np.int64)
        shortfall = n_blocks - int(alloc.sum())
        if shortfall > 0:
            order = np.argsort(-(raw - alloc), kind="stable")
            alloc[order[:shortfall]] += 1

        chunks = []
        for (layer, expert, _), b in zip(pairs, alloc.tolist()):
            if b == 0:
                continue
            region_id = layer * self.n_experts + expert
            base = (region_id * self._region_blocks) % self._total_blocks
            # Each activation streams the expert's weights from the
            # start of its region, wrapping within the region.
            offs = np.arange(b, dtype=np.int64) % self._region_blocks
            chunks.append((base + offs) % self._total_blocks)
        return np.concatenate(chunks)

    # -- whole-run replay --------------------------------------------------

    def replay(self, result: ServingResult) -> ReplayTrace:
        """Render a serving run as DRAM columns.

        FIFO results replay as one burst per request at its
        service-start cycle (the seed behavior).  Batching-engine
        results replay phase-aware: a prefill burst at the request's
        admission step, then one decode burst per engine step --
        each decode step's weight traffic divided by that step's
        decode batch size, because a batched step streams the expert
        weights once for the whole batch (the memory-traffic
        amortization that lets continuous batching recover part of
        the FIFO saturation hockey stick).
        """
        if getattr(result, "engine", "fifo") == "batching":
            return self._replay_phases(result)
        clock_hz = self.config.timing.clock_hz
        addr_chunks: list[np.ndarray] = []
        arrive_chunks: list[np.ndarray] = []
        id_chunks: list[np.ndarray] = []
        tokens_by_request: dict[int, int] = {}
        for completed in sorted(result.completed, key=lambda c: c.request.request_id):
            request = completed.request
            tokens = request.prompt_tokens + request.decode_tokens
            blocks = self.request_blocks(request.request_id, tokens)
            start_cycle = int(round(completed.start * clock_hz))
            addr_chunks.append(blocks * self._step)
            arrive_chunks.append(np.full(len(blocks), start_cycle, dtype=np.int64))
            id_chunks.append(np.full(len(blocks), request.request_id, dtype=np.int64))
            tokens_by_request[request.request_id] = tokens
        if addr_chunks:
            addrs = np.concatenate(addr_chunks)
            arrive = np.concatenate(arrive_chunks)
            request_ids = np.concatenate(id_chunks)
        else:
            addrs = np.zeros(0, dtype=np.int64)
            arrive = np.zeros(0, dtype=np.int64)
            request_ids = np.zeros(0, dtype=np.int64)
        return ReplayTrace(
            addrs=addrs,
            arrive_cycles=arrive,
            flags=np.zeros(len(addrs), dtype=np.uint8),
            request_ids=request_ids,
            tokens_by_request=tokens_by_request,
        )

    def _replay_phases(self, result: ServingResult) -> ReplayTrace:
        """Per-phase bursts for a batching-engine serving run.

        A request's *union* of blocks is exactly
        :meth:`request_blocks` -- deterministic in (seed, request_id,
        tokens) as before.  The prompt-token share of that stream
        forms the prefill burst where the request's prefill compute
        actually runs inside its admission step
        (``prefill_start``, falling back to ``start``); the remainder
        is split evenly across the request's decode steps, and each
        step's share is truncated to ``ceil(share / batch)`` blocks at
        the step's decode-stream start (weights fetched once per step,
        amortized over the step's decode batch).  Emitting at the
        in-step offsets rather than the step boundary keeps one step's
        traffic spread the way the cost model spends its time, instead
        of spiking everything at the step start.
        """
        clock_hz = self.config.timing.clock_hz
        addr_chunks: list[np.ndarray] = []
        arrive_chunks: list[np.ndarray] = []
        id_chunks: list[np.ndarray] = []
        burst_chunks: list[np.ndarray] = []
        phase_chunks: list[np.ndarray] = []
        tokens_by_request: dict[int, int] = {}
        burst_id = 0

        def emit(blocks: np.ndarray, cycle: int, rid: int, phase: int) -> None:
            nonlocal burst_id
            if len(blocks) == 0:
                return
            addr_chunks.append(blocks * self._step)
            arrive_chunks.append(np.full(len(blocks), cycle, dtype=np.int64))
            id_chunks.append(np.full(len(blocks), rid, dtype=np.int64))
            burst_chunks.append(np.full(len(blocks), burst_id, dtype=np.int64))
            phase_chunks.append(np.full(len(blocks), phase, dtype=np.uint8))
            burst_id += 1

        for completed in sorted(result.completed, key=lambda c: c.request.request_id):
            request = completed.request
            tokens = request.prompt_tokens + request.decode_tokens
            blocks = self.request_blocks(request.request_id, tokens)
            tokens_by_request[request.request_id] = tokens
            n_pre = min(
                len(blocks),
                -(-(request.prompt_tokens * self.bytes_per_token) // self._step),
            )
            prefill_at = (
                completed.start
                if completed.prefill_start is None
                else completed.prefill_start
            )
            emit(
                blocks[:n_pre],
                int(round(prefill_at * clock_hz)),
                request.request_id,
                PHASE_PREFILL,
            )
            rest = blocks[n_pre:]
            steps = completed.decode_step_starts
            batches = completed.decode_step_batches
            if len(rest) == 0 or not steps:
                continue
            base, remainder = divmod(len(rest), len(steps))
            offset = 0
            for s, (start, batch) in enumerate(zip(steps, batches)):
                share = base + (1 if s < remainder else 0)
                if share == 0:
                    continue
                chunk = rest[offset : offset + share]
                offset += share
                emit(
                    chunk[: -(-share // max(1, batch))],
                    int(round(start * clock_hz)),
                    request.request_id,
                    PHASE_DECODE,
                )
        if addr_chunks:
            addrs = np.concatenate(addr_chunks)
            arrive = np.concatenate(arrive_chunks)
            request_ids = np.concatenate(id_chunks)
            burst_ids = np.concatenate(burst_chunks)
            phases = np.concatenate(phase_chunks)
        else:
            addrs = np.zeros(0, dtype=np.int64)
            arrive = np.zeros(0, dtype=np.int64)
            request_ids = np.zeros(0, dtype=np.int64)
            burst_ids = np.zeros(0, dtype=np.int64)
            phases = np.zeros(0, dtype=np.uint8)
        return ReplayTrace(
            addrs=addrs,
            arrive_cycles=arrive,
            flags=np.zeros(len(addrs), dtype=np.uint8),
            request_ids=request_ids,
            tokens_by_request=tokens_by_request,
            burst_ids=burst_ids,
            phases=phases,
        )

    @classmethod
    def for_model(
        cls,
        model,
        profile: Optional[RoutingProfile] = None,
        dram_config: Optional[DRAMConfig] = None,
        **kwargs,
    ) -> "ExpertReplayPlanner":
        """Planner sized from a :class:`~repro.moe.config.MoEModelConfig`
        (expert count, top-k, encoder MoE depth, per-expert bytes)."""
        return cls(
            n_experts=model.n_experts,
            top_k=model.top_k,
            n_moe_layers=max(1, model.n_moe_encoder_layers),
            profile=profile,
            dram_config=dram_config,
            expert_bytes=max(1, int(model.expert_bytes)),
            **kwargs,
        )


class SyntheticReplayPlanner:
    """Adapter giving the seeded synthetic-region replay
    (:func:`~repro.serving.simulator.dram_replay_trace_arrays`) the
    planner interface, for cosim runs without an expert model.

    Note the synthetic form resumes regions across requests in
    service-start order, so unlike :class:`ExpertReplayPlanner` its
    addresses shift when arrival timing reorders bursts; the driver's
    contention calibration therefore re-derives isolation baselines
    from the iteration's own trace.
    """

    stable_addresses = False

    def __init__(
        self,
        dram_config: Optional[DRAMConfig] = None,
        bytes_per_token: int = 2048,
        max_blocks_per_request: int = 4096,
        region_bytes: int = 1 << 22,
        n_regions: int = 128,
        seed: int = 0,
    ) -> None:
        self.config = dram_config if dram_config is not None else LPDDR5X_8533
        self.bytes_per_token = bytes_per_token
        self.max_blocks_per_request = max_blocks_per_request
        self.region_bytes = region_bytes
        self.n_regions = n_regions
        self.seed = seed
        org = self.config.organization
        # Mirror of dram_replay_trace_arrays' region sizing, so
        # region_of_addrs inverts the addresses that function emits.
        self._step = org.access_bytes
        self._region_blocks = max(
            1,
            min(region_bytes, org.total_capacity_bytes // n_regions) // self._step,
        )

    def region_of_addrs(self, addrs: np.ndarray) -> np.ndarray:
        """Synthetic-region index of each DRAM address (see
        :meth:`ExpertReplayPlanner.region_of_addrs`)."""
        return (addrs // self._step) // self._region_blocks

    def hot_region_ids(self, hot_fraction: float) -> frozenset[int]:
        """Synthetic regions have no popularity model; the first
        ``ceil(hot_fraction * n_regions)`` regions stand in as the
        hot set."""
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        n_hot = max(0, min(self.n_regions, int(np.ceil(hot_fraction * self.n_regions))))
        return frozenset(range(n_hot))

    def replay(self, result: ServingResult) -> ReplayTrace:
        from repro.serving.simulator import dram_replay_trace_arrays

        addrs, arrive, flags, request_ids = dram_replay_trace_arrays(
            result,
            dram_config=self.config,
            bytes_per_token=self.bytes_per_token,
            max_blocks_per_request=self.max_blocks_per_request,
            region_bytes=self.region_bytes,
            n_regions=self.n_regions,
            seed=self.seed,
            return_request_ids=True,
        )
        tokens_by_request = {
            c.request.request_id: c.request.prompt_tokens + c.request.decode_tokens
            for c in result.completed
        }
        return ReplayTrace(
            addrs=addrs,
            arrive_cycles=arrive,
            flags=flags,
            request_ids=request_ids,
            tokens_by_request=tokens_by_request,
        )
