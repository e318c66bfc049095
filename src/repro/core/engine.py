"""Stream-timeline execution of one MoE layer under each scheme.

This module turns per-expert routed-token counts into a concrete
schedule on the platform's hardware streams (Fig. 5):

- ``gpu``     -- GPU compute stream (gating, expert FFNs, dense ops)
- ``h2d``     -- PCIe host/device -> GPU direction (PMove weight
                 fetches, AMove outputs returning)
- ``d2h``     -- PCIe GPU -> host/device direction (AMove inputs)
- ``monde``   -- MoNDE NDP compute (per activated cold expert)
- ``cpu``     -- host CPU compute (the CPU+AM baseline)

Each scheme builder returns a :class:`LayerResult` holding the layer
makespan, the populated :class:`~repro.sim.stream.Timeline` (so tests
and Fig. 5 regeneration can assert on overlap), and accounting
(PMove/AMove bytes, H, cache hits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.cache import ExpertCache
from repro.core.load_balancer import LoadBalancer, intensity_order
from repro.core.strategies import AMoveStrategy, PMoveStrategy, Scheme
from repro.dram.config import DRAMConfig
from repro.hw.cpu import CPUModel
from repro.hw.gpu import GPUModel
from repro.hw.pcie import PCIeLink
from repro.hw.specs import (
    A100_PCIE,
    MONDE_DEVICE,
    PCIE_GEN4_X16,
    XEON_4310,
    CPUSpec,
    GPUSpec,
    MoNDEDeviceSpec,
    PCIeSpec,
)
from repro.moe.config import MoEModelConfig
from repro.ndp.engine import NDPGemmEngine
from repro.sim.stream import Segment, Timeline


@dataclass(frozen=True)
class Overheads:
    """Host-framework costs charged per MoE layer invocation.

    - ``moe_fixed``: router kernel launches, stream syncs, Python/C++
      dispatch per MoE layer.
    - ``per_routed_token``: token scatter (dispatch) + gather (combine)
      cost per routing event.
    - ``ndp_kernel``: host driver cost to issue one expert's kernels to
      the NDP (two 64-B instructions over CXL + doorbell + completion
      poll; the paper's PyTorch-level implementation pays this per
      offloaded expert).

    Defaults are calibrated so the Fig. 6 scheme ratios land on the
    paper's quoted averages (see EXPERIMENTS.md).
    """

    moe_fixed: float = 300e-6
    per_routed_token: float = 2.2e-6
    ndp_kernel: float = 150e-6


@dataclass
class Platform:
    """The evaluation platform of Table 2, as timing models.

    ``dram_config`` optionally closes the loop with the cycle-level
    memory model: when set, the MoNDE devices' effective bandwidth is
    calibrated by streaming through the FR-FCFS controller for that
    config (cached per config) instead of taken from the spec
    constant, so end-to-end scheme numbers ride on the DRAM
    simulator.
    """

    gpu_spec: GPUSpec = A100_PCIE
    pcie_spec: PCIeSpec = PCIE_GEN4_X16
    cpu_spec: CPUSpec = XEON_4310
    monde_spec: MoNDEDeviceSpec = MONDE_DEVICE
    n_monde_devices: int = 1
    overheads: Overheads = field(default_factory=Overheads)
    dram_config: Optional[DRAMConfig] = None

    def __post_init__(self) -> None:
        if self.n_monde_devices < 1:
            raise ValueError("n_monde_devices must be >= 1")
        self.gpu = GPUModel(self.gpu_spec)
        self.pcie = PCIeLink(self.pcie_spec)
        self.cpu = CPUModel(self.cpu_spec)
        if self.dram_config is not None:
            from repro.dram.calibrate import calibrated_effective_bandwidth

            self.monde_bandwidth = calibrated_effective_bandwidth(self.dram_config)
        else:
            self.monde_bandwidth = self.monde_spec.effective_bandwidth
        self.ndp_engines = [
            NDPGemmEngine(self.monde_spec.ndp, self.monde_bandwidth)
            for _ in range(self.n_monde_devices)
        ]

    @property
    def aggregate_monde_bandwidth(self) -> float:
        """Multi-MoNDE H uses the aggregate device bandwidth (3.3)."""
        return self.n_monde_devices * self.monde_bandwidth


@dataclass(frozen=True)
class LayerResult:
    """Outcome of one MoE layer under one scheme.

    Frozen: the engine may hand the same result to several calls (see
    :class:`MoELayerEngine`), so treat its timeline as read-only too.
    """

    scheme: Scheme
    seconds: float
    timeline: Timeline
    pmove_bytes: int = 0
    amove_bytes: int = 0
    h: int = 0
    n_active: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    t_gwf: float = 0.0
    t_mdwf: float = 0.0


_SINGLE_LAYER_SCHEMES = frozenset(
    (Scheme.IDEAL, Scheme.GPU_PM, Scheme.MD_AM, Scheme.MD_LB, Scheme.CPU_AM)
)


def _count_list(counts: np.ndarray) -> list[int]:
    """Validated per-expert token counts as a list of Python ints.

    Counts must be non-negative whole numbers: a fractional count
    would make an expert active (``> 0``) yet give it no tokens to
    compute.  Integral float arrays are accepted and converted.
    """
    if counts.dtype.kind in "iu":
        values = counts.tolist()
        if values and min(values) < 0:
            raise ValueError("token counts must be non-negative")
        return values
    if np.any(counts < 0):
        raise ValueError("token counts must be non-negative")
    if counts.dtype.kind != "b" and not np.all(
        np.isfinite(counts) & (counts == np.floor(counts))
    ):
        raise ValueError("token counts must be whole numbers")
    return counts.astype(np.int64).tolist()


class MoELayerEngine:
    """Builds per-scheme timelines for single MoE layer invocations.

    A call without an expert cache (``cache=None``) is a pure function
    of the scheme, the counts (their dtype and bytes) and the resolved
    token count -- and, under ``MD_LB``, of the H that ``alpha``
    resolves to, since the hot/cold partition reads alpha only through
    H and nothing else in the layer reads it at all.  The engine
    memoizes those calls per instance and returns the stored frozen
    :class:`LayerResult`, so a repeat gives the very same floats.  A
    call with an :class:`~repro.core.cache.ExpertCache` or a cache view
    reads (and may change) state outside the engine and is never served
    from the memo.
    """

    def __init__(self, model: MoEModelConfig, platform: Optional[Platform] = None) -> None:
        if not model.is_moe:
            raise ValueError(f"{model.name} has no MoE layers")
        self.model = model
        self.platform = platform or Platform()
        self.pmove = PMoveStrategy(model.d_model, model.d_ff, model.dtype_bytes)
        self.amove = AMoveStrategy(model.d_model, model.dtype_bytes)
        self.balancer = LoadBalancer(
            self.platform.pcie_spec.effective_bandwidth,
            self.platform.aggregate_monde_bandwidth,
        )
        self._memo: dict[tuple, LayerResult] = {}

    # -- shared pieces -------------------------------------------------------

    def _gating_time(self, n_tokens: int) -> float:
        """Router GEMM (T x E) + top-k on the GPU."""
        gpu = self.platform.gpu
        return gpu.gemm_time(n_tokens, self.model.n_experts, self.model.d_model) + (
            gpu.spec.kernel_launch_overhead
        )

    def _framework_overhead(self, routed: int) -> float:
        ov = self.platform.overheads
        return ov.moe_fixed + ov.per_routed_token * routed

    def _gpu_expert_time(self, tokens: int) -> float:
        return self.platform.gpu.expert_ffn_time(
            tokens, self.model.d_model, self.model.d_ff, self.model.dtype_bytes
        )

    def _ndp_expert_time(self, tokens: int, engine: NDPGemmEngine) -> float:
        compute = engine.expert_ffn_time(tokens, self.model.d_model, self.model.d_ff)
        return compute + self.platform.overheads.ndp_kernel

    def _cpu_expert_time(self, tokens: int) -> float:
        return self.platform.cpu.expert_ffn_time(
            tokens, self.model.d_model, self.model.d_ff, self.model.dtype_bytes
        )

    def _new_timeline(self) -> Timeline:
        return Timeline(["gpu", "h2d", "d2h", "monde", "cpu"])

    # -- GPU-side workflow (PMove + GPU compute) -------------------------------

    def _schedule_gpu_workflow(
        self,
        timeline: Timeline,
        counts: list[int],
        expert_ids: list[int],
        layer_id: int,
        cache: Optional[ExpertCache],
        start_after: float = 0.0,
    ) -> tuple[float, int, int, int]:
        """Schedule PMove transfers + GPU expert compute for the given
        experts; returns (finish time, pmove bytes, hits, misses).

        Transfers serialize on the h2d stream; each expert's compute
        follows its own transfer, overlapping subsequent transfers --
        the on-demand pipelined PMove of Fig. 5's GPU+PM row.
        """
        expert_bytes = self.pmove.expert_bytes
        transfer_time = self.platform.pcie.transfer_time(expert_bytes)
        hits = misses = 0
        pmove_bytes = 0
        finish = start_after
        for expert in expert_ids:
            tokens = counts[expert]
            if tokens == 0:
                continue
            cached = False
            if cache is not None:
                h, m = cache.access(layer_id, (expert,))
                cached = h == 1
                hits += h
                misses += m
            deps: tuple[Segment, ...] = ()
            if not cached:
                transfer = timeline.enqueue(
                    "h2d", transfer_time, label="p", not_before=start_after
                )
                pmove_bytes += expert_bytes
                deps = (transfer,)
            compute = timeline.enqueue(
                "gpu",
                self._gpu_expert_time(tokens),
                label="e",
                after=deps,
                not_before=start_after,
            )
            if compute.end > finish:
                finish = compute.end
        return finish, pmove_bytes, hits, misses

    # -- MoNDE-side workflow (AMove + NDP compute) ------------------------------

    def _schedule_monde_workflow(
        self,
        timeline: Timeline,
        counts: list[int],
        expert_ids: list[int],
        start_after: float = 0.0,
    ) -> tuple[float, int]:
        """Schedule AMove + NDP compute for the given experts over the
        platform's MoNDE devices (round-robin by intensity when more
        than one); returns (finish time, amove bytes)."""
        pcie = self.platform.pcie
        engines = self.platform.ndp_engines
        n_dev = len(engines)

        active = [e for e in expert_ids if counts[e] > 0]
        if not active:
            return start_after, 0
        # Round-robin by compute intensity (Section 3.3).
        order = intensity_order(counts, active)
        per_device: list[list[int]] = [order[dev::n_dev] for dev in range(n_dev)]

        amove_bytes = 0
        outputs: list[tuple[int, Segment]] = []
        for dev, experts in enumerate(per_device):
            if not experts:
                continue
            dev_bytes = self.amove.token_bytes(sum(counts[e] for e in experts))
            amove_bytes += dev_bytes
            stream_name = "monde" if dev == 0 else f"monde{dev}"
            # Input activations transferred separately to each device.
            last = timeline.enqueue(
                "d2h", pcie.transfer_time(dev_bytes), label="a", not_before=start_after
            )
            for expert in experts:
                last = timeline.enqueue(
                    stream_name,
                    self._ndp_expert_time(counts[expert], engines[dev]),
                    label="e",
                    after=(last,),
                )
            outputs.append((dev_bytes, last))

        # Outputs retrieved sequentially from each device, in device
        # order (Section 3.3); a device returns as many bytes as it got.
        finish = start_after
        for dev_bytes, last in outputs:
            amove_bytes += dev_bytes
            aout = timeline.enqueue(
                "h2d", pcie.transfer_time(dev_bytes), label="a", after=(last,)
            )
            finish = aout.end
        return finish, amove_bytes

    # -- schemes ---------------------------------------------------------------

    def layer_time(
        self,
        scheme: Scheme,
        counts: np.ndarray,
        layer_id: int = 0,
        cache: Optional[ExpertCache] = None,
        alpha: float = 1.0,
        n_tokens: Optional[int] = None,
    ) -> LayerResult:
        """Latency of one MoE layer under ``scheme`` for the routed
        ``counts`` (length-E array of non-negative whole token counts
        per expert).  Calls with ``cache=None`` are memoized (see the
        class docstring)."""
        array = np.asarray(counts)
        if array.shape != (self.model.n_experts,):
            raise ValueError(
                f"counts must have shape ({self.model.n_experts},), got {array.shape}"
            )
        if scheme not in _SINGLE_LAYER_SCHEMES:
            raise ValueError(f"scheme {scheme} is not a single-layer scheme")
        values = _count_list(array)
        routed = sum(values)
        tokens = (
            int(n_tokens)
            if n_tokens is not None
            else max(1, routed // max(1, self.model.top_k))
        )
        active = array.nonzero()[0].tolist()
        h = 0
        if scheme is Scheme.MD_LB:
            h = self.balancer.model.h_value(len(active), alpha=alpha)
        if cache is not None:
            return self._layer(scheme, values, active, routed, tokens, layer_id, cache, h)
        key = (scheme, array.dtype.str, array.tobytes(), tokens, h)
        result = self._memo.get(key)
        if result is None:
            result = self._layer(scheme, values, active, routed, tokens, layer_id, None, h)
            self._memo[key] = result
        return result

    def _layer(
        self,
        scheme: Scheme,
        counts: list[int],
        active: list[int],
        routed: int,
        tokens: int,
        layer_id: int,
        cache: Optional[ExpertCache],
        h: int,
    ) -> LayerResult:
        """Build one layer's timeline: ``active`` lists the experts with
        tokens in id order, ``routed`` is the sum of ``counts`` and
        ``h`` the number of hot experts (``MD_LB`` only)."""
        timeline = self._new_timeline()
        start = self._prologue(timeline, routed, tokens).end
        if scheme is Scheme.IDEAL:
            return self._ideal(timeline, start, counts, active)
        if scheme is Scheme.GPU_PM:
            return self._gpu_pm(timeline, start, counts, active, layer_id, cache)
        if scheme is Scheme.MD_AM:
            return self._md_am(timeline, start, counts, active)
        if scheme is Scheme.MD_LB:
            return self._md_lb(timeline, start, counts, active, layer_id, cache, h)
        return self._cpu_am(timeline, start, counts, active, routed)

    def _prologue(self, timeline: Timeline, routed: int, tokens: int) -> Segment:
        """Gating + framework dispatch on the GPU stream."""
        gating = timeline.enqueue("gpu", self._gating_time(tokens), label="g")
        return timeline.enqueue(
            "gpu", self._framework_overhead(routed), label="d", after=(gating,)
        )

    def _ideal(
        self, timeline: Timeline, start: float, counts: list[int], active: list[int]
    ) -> LayerResult:
        finish = start
        for expert in active:
            finish = timeline.enqueue(
                "gpu", self._gpu_expert_time(counts[expert]), label="e"
            ).end
        return LayerResult(
            scheme=Scheme.IDEAL,
            seconds=max(finish, start),
            timeline=timeline,
            n_active=len(active),
        )

    def _gpu_pm(
        self,
        timeline: Timeline,
        start: float,
        counts: list[int],
        active: list[int],
        layer_id: int,
        cache: Optional[ExpertCache],
    ) -> LayerResult:
        finish, pmove_bytes, hits, misses = self._schedule_gpu_workflow(
            timeline, counts, active, layer_id, cache, start_after=start
        )
        return LayerResult(
            scheme=Scheme.GPU_PM,
            seconds=max(finish, start),
            timeline=timeline,
            pmove_bytes=pmove_bytes,
            n_active=len(active),
            cache_hits=hits,
            cache_misses=misses,
            t_gwf=max(finish, start),
        )

    def _md_am(
        self, timeline: Timeline, start: float, counts: list[int], active: list[int]
    ) -> LayerResult:
        finish, amove_bytes = self._schedule_monde_workflow(
            timeline, counts, active, start_after=start
        )
        return LayerResult(
            scheme=Scheme.MD_AM,
            seconds=max(finish, start),
            timeline=timeline,
            amove_bytes=amove_bytes,
            n_active=len(active),
            t_mdwf=max(finish, start),
        )

    def _md_lb(
        self,
        timeline: Timeline,
        start: float,
        counts: list[int],
        active: list[int],
        layer_id: int,
        cache: Optional[ExpertCache],
        h: int,
    ) -> LayerResult:
        # The H most compute-intensive experts are hot, as in
        # :meth:`LoadBalancer.partition`.
        order = intensity_order(counts, active)
        gpu_finish, pmove_bytes, hits, misses = self._schedule_gpu_workflow(
            timeline, counts, order[:h], layer_id, cache, start_after=start
        )
        monde_finish, amove_bytes = self._schedule_monde_workflow(
            timeline, counts, order[h:], start_after=start
        )
        return LayerResult(
            scheme=Scheme.MD_LB,
            seconds=max(gpu_finish, monde_finish, start),
            timeline=timeline,
            pmove_bytes=pmove_bytes,
            amove_bytes=amove_bytes,
            h=h,
            n_active=len(active),
            cache_hits=hits,
            cache_misses=misses,
            t_gwf=gpu_finish,
            t_mdwf=monde_finish,
        )

    def _cpu_am(
        self,
        timeline: Timeline,
        start: float,
        counts: list[int],
        active: list[int],
        routed: int,
    ) -> LayerResult:
        if not active:
            return LayerResult(scheme=Scheme.CPU_AM, seconds=start, timeline=timeline)
        pcie = self.platform.pcie
        # Every routed token belongs to an active expert.
        nbytes = self.amove.token_bytes(routed)
        last = timeline.enqueue(
            "d2h", pcie.transfer_time(nbytes), label="a", not_before=start
        )
        for expert in active:
            last = timeline.enqueue(
                "cpu", self._cpu_expert_time(counts[expert]), label="e", after=(last,)
            )
        aout = timeline.enqueue(
            "h2d", pcie.transfer_time(nbytes), label="a", after=(last,)
        )
        return LayerResult(
            scheme=Scheme.CPU_AM,
            seconds=aout.end,
            timeline=timeline,
            amove_bytes=2 * nbytes,
            n_active=len(active),
        )
