"""The layer engine's memo of cache-free calls is exact.

A call with ``cache=None`` may be answered from the engine's memo; the
answer must equal, field for field and segment for segment, what a
fresh engine computes for the same call.  Calls with an expert cache
are never memoized.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import ExpertCache
from repro.core.engine import MoELayerEngine, Platform
from repro.core.load_balancer import AlphaAutoTuner
from repro.core.strategies import Scheme
from repro.moe import nllb_moe_tiny, switch_large_128

SCHEMES = (Scheme.IDEAL, Scheme.GPU_PM, Scheme.MD_AM, Scheme.MD_LB, Scheme.CPU_AM)
LADDER = AlphaAutoTuner.__dataclass_fields__["candidates"].default
MODELS = {"sl128": switch_large_128(), "nllb_tiny": nllb_moe_tiny()}


def assert_same_result(got, want):
    """Every field equal; the timelines compared by their segments."""
    for f in dataclasses.fields(want):
        if f.name == "timeline":
            continue
        assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert got.timeline.all_segments() == want.timeline.all_segments()
    assert list(got.timeline.streams) == list(want.timeline.streams)


@st.composite
def counts_arrays(draw, n_experts):
    kind = draw(st.sampled_from(["zeros", "one-hot", "dense"]))
    values = np.zeros(n_experts, dtype=np.int64)
    if kind == "one-hot":
        values[draw(st.integers(0, n_experts - 1))] = draw(st.integers(1, 4096))
    elif kind == "dense":
        values[:] = draw(
            st.lists(
                st.integers(0, 600), min_size=n_experts, max_size=n_experts
            )
        )
    dtype = draw(st.sampled_from([np.int32, np.int64, np.float64]))
    return values.astype(dtype)


@st.composite
def layer_calls(draw):
    model = MODELS[draw(st.sampled_from(sorted(MODELS)))]
    counts = draw(counts_arrays(model.n_experts))
    n_devices = draw(st.sampled_from([1, 2]))
    n_tokens = draw(st.one_of(st.none(), st.integers(1, 4096)))
    alphas = draw(st.lists(st.sampled_from(LADDER), min_size=1, max_size=4))
    return model, counts, n_devices, n_tokens, alphas


@settings(max_examples=60, deadline=None)
@given(layer_calls())
def test_memoized_result_equals_fresh_engine(call):
    model, counts, n_devices, n_tokens, alphas = call
    memoized = MoELayerEngine(model, Platform(n_monde_devices=n_devices))
    for scheme in SCHEMES:
        for alpha in alphas:
            # Twice on the memoized engine: the second call is a memo
            # hit (and, under MD_LB, so is any earlier alpha with the
            # same H); the fresh engine computes it once.
            memoized.layer_time(scheme, counts, alpha=alpha, n_tokens=n_tokens)
            got = memoized.layer_time(scheme, counts, alpha=alpha, n_tokens=n_tokens)
            fresh = MoELayerEngine(model, Platform(n_monde_devices=n_devices))
            want = fresh.layer_time(scheme, counts, alpha=alpha, n_tokens=n_tokens)
            assert_same_result(got, want)


def test_default_tokens_share_the_explicit_entry():
    model = switch_large_128()
    engine = MoELayerEngine(model)
    counts = np.zeros(model.n_experts, dtype=np.int64)
    counts[:4] = (7, 5, 3, 1)
    default = engine.layer_time(Scheme.MD_AM, counts)
    resolved = max(1, int(counts.sum()) // model.top_k)
    assert engine.layer_time(Scheme.MD_AM, counts, n_tokens=resolved) is default
    other = engine.layer_time(Scheme.MD_AM, counts, n_tokens=resolved + 1)
    assert other is not default


def test_md_lb_memo_keys_on_h_not_alpha():
    model = switch_large_128()
    engine = MoELayerEngine(model)
    counts = np.zeros(model.n_experts, dtype=np.int64)
    counts[:3] = (40, 20, 10)
    h_of = engine.balancer.model.h_value
    by_h = {}
    for alpha in LADDER:
        result = engine.layer_time(Scheme.MD_LB, counts, alpha=alpha)
        assert result.h == h_of(3, alpha=alpha)
        assert by_h.setdefault(result.h, result) is result


def test_cache_calls_never_served_from_memo():
    model = switch_large_128()
    engine = MoELayerEngine(model)
    counts = np.zeros(model.n_experts, dtype=np.int64)
    counts[[3, 9, 27]] = (12, 6, 2)
    # Warm the memo with the cache-free answer first.
    engine.layer_time(Scheme.GPU_PM, counts)
    cache = ExpertCache(64 * engine.pmove.expert_bytes, engine.pmove.expert_bytes)
    first = engine.layer_time(Scheme.GPU_PM, counts, cache=cache)
    second = engine.layer_time(Scheme.GPU_PM, counts, cache=cache)
    assert (first.cache_hits, first.cache_misses) == (0, 3)
    assert (second.cache_hits, second.cache_misses) == (3, 0)
    assert second.pmove_bytes == 0 and first.pmove_bytes == 3 * engine.pmove.expert_bytes
    assert cache.hits == 3 and cache.misses == 3
    lb = engine.layer_time(Scheme.MD_LB, counts, cache=cache, alpha=64.0)
    assert lb.h == 3 and lb.cache_hits == 3


def test_layer_result_is_frozen():
    engine = MoELayerEngine(switch_large_128())
    result = engine.layer_time(Scheme.IDEAL, np.ones(128, dtype=np.int64))
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.seconds = 0.0


def test_fractional_counts_rejected():
    """A fractional count would make an expert active with no tokens
    to compute (a bare NDP kernel launch under MD_AM / MD_LB)."""
    model = switch_large_128()
    engine = MoELayerEngine(model)
    counts = np.zeros(model.n_experts)
    counts[:2] = (4.0, 2.0)
    whole = {s: engine.layer_time(s, counts).seconds for s in SCHEMES}
    as_int = counts.astype(np.int64)
    fresh = MoELayerEngine(model)
    assert whole == {s: fresh.layer_time(s, as_int).seconds for s in SCHEMES}
    for bad in (0.5, np.nan, np.inf):
        counts[5] = bad
        for scheme in SCHEMES:
            with pytest.raises(ValueError, match="whole numbers"):
                engine.layer_time(scheme, counts)
