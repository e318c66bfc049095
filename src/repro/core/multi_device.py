"""Multi-GPU expert parallelism (the Fig. 10 baseline).

With expert parallelism the expert parameters are sharded across GPUs
so everything is memory-resident (no PMove), but each MoE layer pays
an all-to-all activation exchange, and GPUs whose experts receive no
tokens sit idle -- the inefficiency the paper highlights for
auto-regressive decoders.

(Multi-MoNDE scaling, Fig. 9, lives in the layer engine itself: the
platform's ``n_monde_devices`` controls the round-robin expert
distribution and per-device streams.)
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import LayerResult, MoELayerEngine
from repro.core.strategies import Scheme
from repro.sim.stream import Segment


def shard_experts(n_experts: int, n_gpus: int) -> list[np.ndarray]:
    """Contiguous expert shards, one per GPU."""
    if n_gpus < 1:
        raise ValueError("n_gpus must be >= 1")
    return [np.asarray(shard) for shard in np.array_split(np.arange(n_experts), n_gpus)]


def multi_gpu_layer_time(
    engine: MoELayerEngine,
    counts: np.ndarray,
    n_gpus: int,
    layer_id: int = 0,
) -> LayerResult:
    """One MoE layer under ``n_gpus``-way expert parallelism.

    Timeline: gating on GPU0, all-to-all scatter of routed activations
    over the inter-GPU links (each direction modeled on the PCIe
    streams), per-GPU expert compute in parallel, all-to-all gather.
    """
    counts = np.asarray(counts)
    model = engine.model
    if counts.shape != (model.n_experts,):
        raise ValueError(f"counts must have shape ({model.n_experts},)")
    timeline = engine._new_timeline()
    routed = int(counts.sum())
    tokens = max(1, routed // max(1, model.top_k))
    prologue = engine._prologue(timeline, routed, tokens)

    pcie = engine.platform.pcie
    # Fraction of routed tokens whose expert lives on a remote GPU.
    remote = (n_gpus - 1) / n_gpus if n_gpus > 1 else 0.0
    exchange_bytes = int(routed * model.d_model * model.dtype_bytes * remote)
    scatter = timeline.enqueue(
        "d2h", pcie.transfer_time(exchange_bytes), label="a", not_before=prologue.end
    )

    shards = shard_experts(model.n_experts, n_gpus)
    finishes: list[Segment] = []
    for gpu_id, shard in enumerate(shards):
        stream = "gpu" if gpu_id == 0 else f"gpu{gpu_id}"
        prev: list[Segment] = [scatter]
        for expert in shard:
            if counts[expert] == 0:
                continue
            seg = timeline.enqueue(
                stream,
                engine._gpu_expert_time(int(counts[expert])),
                label="e",
                after=prev,
            )
            prev = [seg]
        if prev[0] is not scatter:
            finishes.append(prev[0])

    gather = timeline.enqueue(
        "h2d",
        pcie.transfer_time(exchange_bytes),
        label="a",
        after=finishes or [scatter],
    )
    return LayerResult(
        scheme=Scheme.MULTI_GPU,
        seconds=gather.end,
        timeline=timeline,
        amove_bytes=2 * exchange_bytes,
        n_active=int((counts > 0).sum()),
    )
