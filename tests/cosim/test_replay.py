"""Expert-faithful replay: routing-derived regions, determinism."""

import numpy as np
import pytest

from repro.cluster.balancer import assign_replicas
from repro.core.strategies import Scheme
from repro.cosim import ExpertReplayPlanner, SyntheticReplayPlanner, small_cosim_dram
from repro.cosim.sweep import point_requests
from repro.experiments import build_components, get_preset
from repro.moe.gating import Router
from repro.serving.simulator import CostModel, ServingSimulator
from repro.serving.workload import Request


def serve(n=6, prompt=20, decode=5):
    cost = CostModel(encode_seconds_per_token=1e-7, decode_seconds_per_token=1e-6)
    requests = [
        Request(
            request_id=i, arrival=0.001 * (i + 1),
            prompt_tokens=prompt, decode_tokens=decode,
        )
        for i in range(n)
    ]
    return ServingSimulator(cost, Scheme.MD_LB).run(requests)


def planner(**kwargs):
    defaults = dict(
        n_experts=8, top_k=2, n_moe_layers=2,
        dram_config=small_cosim_dram(), bytes_per_token=1024,
        max_blocks_per_request=256, expert_bytes=1 << 16, seed=5,
    )
    defaults.update(kwargs)
    return ExpertReplayPlanner(**defaults)


def test_validation():
    with pytest.raises(ValueError):
        planner(n_experts=0)
    with pytest.raises(ValueError):
        planner(top_k=9)  # > n_experts
    with pytest.raises(ValueError):
        planner(n_moe_layers=0)
    with pytest.raises(ValueError):
        planner(bytes_per_token=0)
    with pytest.raises(ValueError):
        planner(max_blocks_per_request=0)
    with pytest.raises(ValueError):
        planner(expert_bytes=0)
    with pytest.raises(ValueError):
        planner(max_routed_tokens=0)
    with pytest.raises(ValueError):
        p = planner()
        p.request_blocks(0, tokens=0)


def test_replay_shape_and_arrivals():
    result = serve()
    trace = planner().replay(result)
    n = len(trace)
    assert n > 0
    assert trace.addrs.shape == (n,)
    assert trace.arrive_cycles.shape == (n,)
    assert trace.flags.shape == (n,)
    assert trace.request_ids.shape == (n,)
    assert not trace.flags.any()  # weight fetches are reads
    # Arrivals are the serving service-start cycles.
    clock = small_cosim_dram().timing.clock_hz
    starts = {
        c.request.request_id: int(round(c.start * clock)) for c in result.completed
    }
    for rid in np.unique(trace.request_ids):
        burst = trace.arrive_cycles[trace.request_ids == rid]
        assert (burst == starts[int(rid)]).all()


def test_block_count_follows_tokens():
    p = planner()
    # 25 tokens * 1024 B/token / 64 B = 400 blocks, capped at 256.
    assert len(p.request_blocks(0, tokens=25)) == 256
    assert len(p.request_blocks(0, tokens=4)) == 64


def test_addresses_deterministic_and_stable():
    p = planner()
    a = p.request_blocks(3, tokens=25)
    b = p.request_blocks(3, tokens=25)
    assert (a == b).all()
    # Stable across planner instances with the same seed...
    assert (planner().request_blocks(3, tokens=25) == a).all()
    # ...and different under another seed or request id.
    assert not (planner(seed=6).request_blocks(3, tokens=25) == a).all()
    assert not (p.request_blocks(4, tokens=25) == a).all()
    assert p.stable_addresses


class _ColdPlanner:
    """``request_blocks`` from a fresh planner on every call."""

    def __init__(self, build):
        self.build = build
        self.config = build().config

    def request_blocks(self, request_id, tokens):
        return self.build().request_blocks(request_id, tokens)

    def region_of_addrs(self, addrs):
        return self.build().region_of_addrs(addrs)


def test_block_cache_is_read_only_and_matches_cold_planners():
    """Blocks are computed once per planner and returned read-only; a
    warm planner answers every request of the smoke stream exactly as
    a cold one does, and router-aware placement does not change."""
    config = get_preset("smoke")

    def build():
        return build_components(config)[2]

    requests = point_requests(
        max(config.rates), config.n_requests, config.seed, config.serving
    )
    warm = build()
    keys = [(r.request_id, r.prompt_tokens + r.decode_tokens) for r in requests]
    for key in keys:
        warm.request_blocks(*key)
    for key in keys:
        blocks = warm.request_blocks(*key)
        assert blocks is warm.request_blocks(*key)
        assert not blocks.flags.writeable
        with pytest.raises(ValueError):
            blocks[0] = 0
        np.testing.assert_array_equal(blocks, build().request_blocks(*key))
    cold = assign_replicas(requests, 2, "router_aware", planner=_ColdPlanner(build))
    assert assign_replicas(requests, 2, "router_aware", planner=warm) == cold


def test_blocks_land_in_activated_expert_regions():
    p = planner()
    region_blocks = p._region_blocks
    total_regions = p.n_moe_layers * p.n_experts
    blocks = p.request_blocks(1, tokens=25)
    regions = set((blocks // region_blocks).tolist())
    # A top-2-of-8 request touches a handful of regions, not all.
    assert 1 <= len(regions) < total_regions
    assert all(0 <= r < total_regions for r in regions)


def test_router_driven_replay_targets_routed_experts():
    """With real gating networks, a burst targets exactly the experts
    the top-k router selected for the request's tokens."""
    rng = np.random.default_rng(11)
    routers = [Router(d_model=8, n_experts=4, top_k=1, rng=rng) for _ in range(2)]
    p = ExpertReplayPlanner(
        n_experts=4, top_k=1, n_moe_layers=2,
        dram_config=small_cosim_dram(), bytes_per_token=1024,
        max_blocks_per_request=64, expert_bytes=1 << 16,
        routers=routers, max_routed_tokens=8, seed=5,
    )
    # Recompute the routing the planner will see (same seeded rng).
    req_rng = np.random.default_rng((5, 2))
    active = set()
    for layer, router in enumerate(routers):
        plan = router.route(req_rng.standard_normal((8, 8)))
        active.update(layer * 4 + e for e in plan.active_experts.tolist())
    blocks = p.request_blocks(2, tokens=8)
    touched = set((blocks // p._region_blocks).tolist())
    assert touched <= active

    with pytest.raises(ValueError):
        ExpertReplayPlanner(
            n_experts=4, top_k=1, n_moe_layers=3, routers=routers,
            dram_config=small_cosim_dram(),
        )


def test_for_model_geometry():
    from repro.moe.zoo import switch_large_128

    model = switch_large_128()
    p = ExpertReplayPlanner.for_model(model, dram_config=small_cosim_dram())
    assert p.n_experts == model.n_experts
    assert p.top_k == model.top_k
    assert p.n_moe_layers == max(1, model.n_moe_encoder_layers)


def test_synthetic_planner_matches_serving_replay():
    from repro.serving.simulator import dram_replay_trace_arrays

    result = serve()
    p = SyntheticReplayPlanner(
        dram_config=small_cosim_dram(), bytes_per_token=1024,
        max_blocks_per_request=256, seed=5,
    )
    trace = p.replay(result)
    addrs, arrive, flags = dram_replay_trace_arrays(
        result, dram_config=small_cosim_dram(), bytes_per_token=1024,
        max_blocks_per_request=256, seed=5,
    )
    assert (trace.addrs == addrs).all()
    assert (trace.arrive_cycles == arrive).all()
    assert not p.stable_addresses
    assert trace.tokens_by_request == {
        c.request.request_id: c.request.prompt_tokens + c.request.decode_tokens
        for c in result.completed
    }
