"""End-to-end inference timing: the Fig. 6-10 measurement harness.

:class:`MoNDERuntime` walks a full encoder pass or an auto-regressive
decoder generation layer by layer, combining

- dense (non-MoE) block timing on the GPU (identical across schemes,
  since dense parameters are always GPU-resident),
- MoE layer timing from :class:`~repro.core.engine.MoELayerEngine`
  under the selected scheme, with the GPU expert buffer and the
  alpha auto-tuner threaded through, and
- routing traces from :class:`~repro.workloads.traces.RoutingTraceGenerator`.

Throughput is reported in tokens/second and normalized against the
``IDEAL`` infinite-memory GPU, as in Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.cache import ExpertCache, SteadyStateCacheView
from repro.core.engine import LayerResult, MoELayerEngine, Platform
from repro.core.load_balancer import AlphaAutoTuner
from repro.core.multi_device import multi_gpu_layer_time
from repro.core.strategies import Scheme
from repro.hw.specs import GiB
from repro.moe.config import MoEModelConfig
from repro.workloads.traces import RoutingProfile, RoutingTraceGenerator


@dataclass
class InferenceConfig:
    """One evaluation point: model, batch geometry, scheme knobs."""

    model: MoEModelConfig
    batch: int = 4
    seq_len: int = 512
    decode_steps: int = 32
    alpha: float = 1.0
    auto_tune: bool = True
    gpu_expert_buffer_bytes: float = 8 * GiB
    n_gpus: int = 2
    profile: Optional[RoutingProfile] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch < 1 or self.seq_len < 1 or self.decode_steps < 1:
            raise ValueError("batch, seq_len, decode_steps must be >= 1")
        if self.n_gpus < 1:
            raise ValueError("n_gpus must be >= 1")


@dataclass
class SchemeResult:
    """End-to-end outcome for one (scheme, part) pair."""

    scheme: Scheme
    part: str
    seconds: float
    moe_seconds: float
    dense_seconds: float
    n_tokens: int
    layer_results: list[LayerResult] = field(default_factory=list)
    cache_hit_rate: float = 0.0
    mean_h: float = 0.0
    alpha_used: float = 1.0

    @property
    def throughput(self) -> float:
        """Tokens per second."""
        if self.seconds <= 0:
            return 0.0
        return self.n_tokens / self.seconds

    @property
    def moe_fraction(self) -> float:
        return self.moe_seconds / self.seconds if self.seconds > 0 else 0.0


class MoNDERuntime:
    """Runs every evaluated scheme for one inference configuration."""

    def __init__(
        self, config: InferenceConfig, platform: Optional[Platform] = None
    ) -> None:
        self.config = config
        self.platform = platform or Platform()
        self.engine = MoELayerEngine(config.model, self.platform)
        self.trace = RoutingTraceGenerator(
            config.model,
            config.batch,
            config.seq_len,
            profile=config.profile,
            seed=config.seed,
        )
        self._cache: dict[tuple[Scheme, str], SchemeResult] = {}
        self._dense_times: dict[tuple[str, int], float] = {}

    # -- dense timing ----------------------------------------------------------

    def _dense_time(self, part: str, tokens: int) -> float:
        """GPU time of the dense (non-MoE) work over ``tokens`` tokens:
        one pass of the encoder stack, or one auto-regressive step of
        the decoder stack.  Each block runs attention (a decoder block
        self-attention on the new tokens plus cross-attention against
        the cached encoder context) and, where it is not MoE, a dense
        FFN.  Computed once per (part, tokens)."""
        key = (part, tokens)
        if key not in self._dense_times:
            model = self.config.model
            gpu = self.platform.gpu
            if part == "encoder":
                n_layers, attention_blocks = model.n_encoder_layers, 1
            else:
                n_layers, attention_blocks = model.n_decoder_layers, 2
            total = 0.0
            for i in range(n_layers):
                total += attention_blocks * gpu.dense_block_time(
                    tokens, model.d_model, model.n_heads, model.dtype_bytes
                )
                if not model.is_moe_block(i):
                    total += gpu.expert_ffn_time(
                        tokens, model.d_model, model.d_ff, model.dtype_bytes
                    )
            self._dense_times[key] = total
        return self._dense_times[key]

    # -- MoE layer dispatch ------------------------------------------------------

    def _new_cache(self) -> ExpertCache:
        return ExpertCache(
            self.config.gpu_expert_buffer_bytes, self.engine.pmove.expert_bytes
        )

    def _new_tuner(self, cache: ExpertCache) -> tuple[AlphaAutoTuner, SteadyStateCacheView]:
        """Profiled evaluator for candidate alphas.

        Candidate partitions are costed against a *steady-state* view
        of the GPU expert buffer: recurring experts count as resident
        when the recurring working set fits (decoder regime), and as
        misses when it thrashes (encoder regime).  A cached hot expert
        makes the GPU workflow nearly free, which pulls decoder-side H
        up to "everything recurring on the GPU, stragglers on the NDP".

        The evaluator memoizes ``.seconds`` by (view version, layer id,
        counts, H).  A view's answers change only when its version does,
        and an ``MD_LB`` layer reads alpha only through H (see
        :class:`~repro.core.engine.MoELayerEngine`), so within one
        retune the candidate alphas that resolve to one H cost one
        evaluation, and the tuner sums the very floats a fresh
        evaluation would give, in the same order.
        """
        view = SteadyStateCacheView(cache.capacity_slots)
        h_value = self.engine.balancer.model.h_value
        seconds: dict[tuple, float] = {}
        version = view.version

        def evaluate(counts: np.ndarray, alpha: float, context: object) -> float:
            nonlocal version
            if view.version != version:
                seconds.clear()
                version = view.version
            layer_id = int(context) if context is not None else 0
            counts = np.asarray(counts)
            h = h_value(int(np.count_nonzero(counts)), alpha=alpha)
            key = (layer_id, counts.dtype.str, counts.tobytes(), h)
            if key not in seconds:
                seconds[key] = self.engine.layer_time(
                    Scheme.MD_LB, counts, layer_id=layer_id, cache=view, alpha=alpha
                ).seconds
            return seconds[key]

        return AlphaAutoTuner(evaluate=evaluate, alpha=self.config.alpha), view

    def _moe_layer(
        self,
        scheme: Scheme,
        counts: np.ndarray,
        layer_id: int,
        cache: Optional[ExpertCache],
        tuner: Optional[tuple[AlphaAutoTuner, SteadyStateCacheView]],
        n_tokens: int,
    ) -> LayerResult:
        if scheme is Scheme.MULTI_GPU:
            return multi_gpu_layer_time(
                self.engine, counts, self.config.n_gpus, layer_id
            )
        alpha = self.config.alpha
        if scheme is Scheme.MD_LB and tuner is not None:
            tuner_obj, view = tuner
            view.note(layer_id, np.flatnonzero(np.asarray(counts) > 0))
            alpha = tuner_obj.observe(counts, context=layer_id)
        return self.engine.layer_time(
            scheme,
            counts,
            layer_id=layer_id,
            cache=cache if scheme in (Scheme.GPU_PM, Scheme.MD_LB) else None,
            alpha=alpha,
            n_tokens=n_tokens,
        )

    # -- end-to-end parts ----------------------------------------------------------

    def encoder_result(self, scheme: Scheme) -> SchemeResult:
        """One full encoder pass over B x S tokens."""
        key = (scheme, "encoder")
        if key in self._cache:
            return self._cache[key]
        model = self.config.model
        tokens = self.config.batch * self.config.seq_len
        cache = self._new_cache()
        tuner = self._new_tuner(cache) if self.config.auto_tune else None

        dense = self._dense_time("encoder", tokens)
        layers: list[LayerResult] = []
        moe = 0.0
        rank = 0
        for i in range(model.n_encoder_layers):
            if not model.is_moe_block(i):
                continue
            counts = self.trace.encoder_layer_counts(rank)
            result = self._moe_layer(scheme, counts, i, cache, tuner, tokens)
            layers.append(result)
            moe += result.seconds
            rank += 1
        result = self._finalize(scheme, "encoder", dense, moe, tokens, layers, cache, tuner)
        self._cache[key] = result
        return result

    def decoder_result(self, scheme: Scheme) -> SchemeResult:
        """An auto-regressive generation of ``decode_steps`` steps."""
        key = (scheme, "decoder")
        if key in self._cache:
            return self._cache[key]
        model = self.config.model
        step_tokens = self.config.batch
        cache = self._new_cache()
        tuner = self._new_tuner(cache) if self.config.auto_tune else None

        step_dense = self._dense_time("decoder", step_tokens)
        dense = 0.0
        moe = 0.0
        layers: list[LayerResult] = []
        moe_blocks = [i for i in range(model.n_decoder_layers) if model.is_moe_block(i)]
        for step in range(self.config.decode_steps):
            dense += step_dense
            for rank, i in enumerate(moe_blocks):
                counts = self.trace.decoder_step_counts(rank, step)
                result = self._moe_layer(scheme, counts, i, cache, tuner, step_tokens)
                layers.append(result)
                moe += result.seconds
        total_tokens = step_tokens * self.config.decode_steps
        result = self._finalize(
            scheme, "decoder", dense, moe, total_tokens, layers, cache, tuner
        )
        self._cache[key] = result
        return result

    def result(self, scheme: Scheme, part: str) -> SchemeResult:
        if part == "encoder":
            return self.encoder_result(scheme)
        if part == "decoder":
            return self.decoder_result(scheme)
        raise ValueError(f"part must be 'encoder' or 'decoder', got {part!r}")

    def _finalize(
        self,
        scheme: Scheme,
        part: str,
        dense: float,
        moe: float,
        tokens: int,
        layers: list[LayerResult],
        cache: ExpertCache,
        tuner: Optional[tuple[AlphaAutoTuner, SteadyStateCacheView]],
    ) -> SchemeResult:
        hs = [r.h for r in layers if r.scheme is Scheme.MD_LB]
        alpha_used = tuner[0].alpha if tuner is not None else self.config.alpha
        return SchemeResult(
            scheme=scheme,
            part=part,
            seconds=dense + moe,
            moe_seconds=moe,
            dense_seconds=dense,
            n_tokens=tokens,
            layer_results=layers,
            cache_hit_rate=cache.hit_rate,
            mean_h=float(np.mean(hs)) if hs else 0.0,
            alpha_used=alpha_used,
        )

    # -- normalized metrics ------------------------------------------------------------

    def normalized_throughput(self, scheme: Scheme, part: str) -> float:
        """Throughput normalized to the Ideal infinite-memory GPU
        (the Fig. 6 metric)."""
        ideal = self.result(Scheme.IDEAL, part)
        target = self.result(scheme, part)
        if ideal.throughput == 0:
            return 0.0
        return target.throughput / ideal.throughput

    def speedup(self, scheme: Scheme, baseline: Scheme, part: str) -> float:
        """Throughput of ``scheme`` over ``baseline`` (Fig. 7's
        "MoE speedup" uses MoE-layer time; this is end-to-end)."""
        base = self.result(baseline, part)
        target = self.result(scheme, part)
        if target.seconds == 0:
            return float("inf")
        return base.seconds / target.seconds

    def moe_speedup(self, scheme: Scheme, baseline: Scheme, part: str) -> float:
        """MoE-layer-only speedup (Fig. 7/8/9 metric)."""
        base = self.result(baseline, part)
        target = self.result(scheme, part)
        if target.moe_seconds == 0:
            return float("inf")
        return base.moe_seconds / target.moe_seconds
