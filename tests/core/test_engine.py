"""MoE layer engine: per-scheme timelines and overlap (Fig. 5)."""

import numpy as np
import pytest

from repro.core.cache import ExpertCache
from repro.core.engine import MoELayerEngine, Platform
from repro.core.strategies import Scheme
from repro.sim.trace import overlap_fraction
from tests.conftest import make_counts


@pytest.fixture(scope="module")
def engine():
    from repro.moe import nllb_moe_128

    return MoELayerEngine(nllb_moe_128(), Platform())


@pytest.fixture
def skewed_counts(engine):
    """2 hot experts + 30 cold (Fig. 3 shape)."""
    hot = {0: 1500, 1: 900}
    for e in range(10, 40):
        hot[e] = 3
    return make_counts(engine.model.n_experts, hot)


def test_counts_shape_validated(engine):
    with pytest.raises(ValueError):
        engine.layer_time(Scheme.IDEAL, np.zeros(4))
    with pytest.raises(ValueError):
        engine.layer_time(Scheme.IDEAL, -np.ones(engine.model.n_experts))


def test_ideal_has_no_transfers(engine, skewed_counts):
    result = engine.layer_time(Scheme.IDEAL, skewed_counts)
    assert result.pmove_bytes == 0 and result.amove_bytes == 0
    assert not result.timeline.stream("h2d").segments
    assert not result.timeline.stream("d2h").segments


def test_gpu_pm_transfers_every_active_expert(engine, skewed_counts):
    result = engine.layer_time(Scheme.GPU_PM, skewed_counts)
    n_active = int((skewed_counts > 0).sum())
    assert result.pmove_bytes == n_active * engine.pmove.expert_bytes
    assert result.n_active == n_active


def test_gpu_pm_slower_than_ideal(engine, skewed_counts):
    ideal = engine.layer_time(Scheme.IDEAL, skewed_counts)
    pm = engine.layer_time(Scheme.GPU_PM, skewed_counts)
    assert pm.seconds > 3 * ideal.seconds


def test_gpu_pm_cache_hits_skip_transfers(engine, skewed_counts):
    cache = ExpertCache(1e12, engine.pmove.expert_bytes)  # effectively infinite
    first = engine.layer_time(Scheme.GPU_PM, skewed_counts, layer_id=0, cache=cache)
    second = engine.layer_time(Scheme.GPU_PM, skewed_counts, layer_id=0, cache=cache)
    assert first.cache_misses == first.n_active
    assert second.cache_hits == second.n_active
    assert second.pmove_bytes == 0
    assert second.seconds < first.seconds


def test_md_am_moves_activations_not_parameters(engine, skewed_counts):
    result = engine.layer_time(Scheme.MD_AM, skewed_counts)
    assert result.pmove_bytes == 0
    assert result.amove_bytes == engine.amove.transfer_bytes(
        skewed_counts[skewed_counts > 0]
    )


def test_md_am_beats_gpu_pm_on_cold_dominated_load(engine):
    """When most activated experts are cold, replacing their PMove
    with AMove wins outright."""
    counts = make_counts(engine.model.n_experts, {e: 3 for e in range(40)})
    pm = engine.layer_time(Scheme.GPU_PM, counts)
    am = engine.layer_time(Scheme.MD_AM, counts)
    assert am.seconds < 0.5 * pm.seconds


def test_very_hot_experts_favor_lb_over_am(engine, skewed_counts):
    """With two mega-hot experts, pure MD+AM is compute-bound on the
    NDP; MD+LB moves them to the GPU and wins -- the point of the
    load balancer."""
    am = engine.layer_time(Scheme.MD_AM, skewed_counts)
    lb = engine.layer_time(Scheme.MD_LB, skewed_counts, alpha=2.0)
    assert lb.seconds < am.seconds


def test_md_lb_overlaps_gpu_and_monde(engine, skewed_counts):
    result = engine.layer_time(Scheme.MD_LB, skewed_counts, alpha=1.0)
    assert result.h >= 1
    gpu_segs = [s for s in result.timeline.stream("gpu").segments if s.label == "e"]
    monde_segs = result.timeline.stream("monde").segments
    assert gpu_segs and monde_segs
    assert overlap_fraction(monde_segs, gpu_segs) > 0 or overlap_fraction(
        gpu_segs, monde_segs
    ) > 0


def test_md_lb_beats_both_pure_schemes(engine, skewed_counts):
    pm = engine.layer_time(Scheme.GPU_PM, skewed_counts)
    am = engine.layer_time(Scheme.MD_AM, skewed_counts)
    lb = engine.layer_time(Scheme.MD_LB, skewed_counts)
    assert lb.seconds <= am.seconds
    assert lb.seconds < pm.seconds


def test_md_lb_workflow_times_recorded(engine, skewed_counts):
    result = engine.layer_time(Scheme.MD_LB, skewed_counts)
    assert result.t_gwf > 0 and result.t_mdwf > 0
    assert result.seconds == pytest.approx(
        max(result.t_gwf, result.t_mdwf), rel=1e-9
    )


def test_h_zero_reduces_lb_to_am(engine, skewed_counts):
    lb = engine.layer_time(Scheme.MD_LB, skewed_counts, alpha=0.0)
    am = engine.layer_time(Scheme.MD_AM, skewed_counts)
    assert lb.h == 0
    assert lb.seconds == pytest.approx(am.seconds, rel=1e-6)


def test_cpu_am_slower_than_md_am(engine, skewed_counts):
    cpu = engine.layer_time(Scheme.CPU_AM, skewed_counts)
    md = engine.layer_time(Scheme.MD_AM, skewed_counts)
    assert cpu.seconds > md.seconds


def test_empty_layer_costs_only_prologue(engine):
    counts = np.zeros(engine.model.n_experts, dtype=int)
    result = engine.layer_time(Scheme.MD_AM, counts, n_tokens=4)
    assert result.seconds > 0
    assert result.amove_bytes == 0


def test_multi_monde_distributes_over_devices():
    from repro.moe import nllb_moe_128

    platform = Platform(n_monde_devices=4)
    engine = MoELayerEngine(nllb_moe_128(), platform)
    counts = make_counts(128, {e: 4 for e in range(40)})
    result = engine.layer_time(Scheme.MD_AM, counts)
    used = [
        name
        for name in ("monde", "monde1", "monde2", "monde3")
        if result.timeline.stream(name).segments
    ]
    assert len(used) == 4


def test_multi_monde_faster_for_cold_heavy_layers():
    from repro.moe import nllb_moe_128

    counts = make_counts(128, {e: 4 for e in range(64)})
    one = MoELayerEngine(nllb_moe_128(), Platform(n_monde_devices=1))
    four = MoELayerEngine(nllb_moe_128(), Platform(n_monde_devices=4))
    t1 = one.layer_time(Scheme.MD_AM, counts).seconds
    t4 = four.layer_time(Scheme.MD_AM, counts).seconds
    assert t4 < t1
    assert t1 / t4 > 2.0


def test_dense_model_rejected():
    from repro.moe.zoo import t5_large_dense

    with pytest.raises(ValueError):
        MoELayerEngine(t5_large_dense(), Platform())


def test_platform_validation():
    with pytest.raises(ValueError):
        Platform(n_monde_devices=0)


def test_platforms_share_no_gpu_gemm_memo(monkeypatch):
    warm, cold = Platform(), Platform()
    warm.gpu.gemm_time(64, 4096, 1024)
    computed = []
    gemm_timing = cold.gpu.gemm_timing

    def counting(*key):
        computed.append(key)
        return gemm_timing(*key)

    monkeypatch.setattr(cold.gpu, "gemm_timing", counting)
    cold.gpu.gemm_time(64, 4096, 1024)
    cold.gpu.gemm_time(64, 4096, 1024)
    assert computed == [(64, 4096, 1024, 2)]
