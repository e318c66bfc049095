"""Routing trace generation: depth skew and temporal persistence."""

import numpy as np
import pytest

from repro.moe import nllb_moe_128
from repro.moe.zoo import t5_large_dense
from repro.workloads.traces import RoutingProfile, RoutingTraceGenerator


@pytest.fixture(scope="module")
def gen():
    return RoutingTraceGenerator(nllb_moe_128(), batch=4, seq_len=512, seed=7)


def test_encoder_counts_conserve_events(gen):
    counts = gen.encoder_layer_counts(0)
    assert counts.sum() == 4 * 512 * 2  # B*S*top_k
    assert counts.shape == (128,)


def test_decoder_counts_conserve_events(gen):
    counts = gen.decoder_step_counts(0, step=0)
    assert counts.sum() == 4 * 2  # B*top_k


def test_encoder_trace_length(gen):
    trace = gen.encoder_trace()
    assert len(trace) == nllb_moe_128().n_moe_encoder_layers


def test_decoder_trace_shape(gen):
    trace = gen.decoder_trace(5)
    assert len(trace) == 5
    assert len(trace[0]) == nllb_moe_128().n_moe_decoder_layers


def test_deeper_layers_are_sparser(gen):
    """Depth-dependent skew: deeper MoE layers activate fewer experts."""
    trace = gen.encoder_trace()
    first = np.count_nonzero(trace[0])
    last = np.count_nonzero(trace[-1])
    assert last < first


def test_layer0_activates_most_experts(gen):
    """Fig. 3: encoder layer 0 activates ~100 of 128 experts."""
    active = np.count_nonzero(gen.encoder_layer_counts(0))
    assert active > 60


def test_decoder_step_counts_deterministic(gen):
    a = gen.decoder_step_counts(2, step=3)
    b = gen.decoder_step_counts(2, step=3)
    np.testing.assert_array_equal(a, b)


DRAWS = {
    "encoder": lambda g: g.encoder_layer_counts(1),
    "decoder": lambda g: g.decoder_step_counts(1, step=5),
}


def _fresh_gen():
    return RoutingTraceGenerator(nllb_moe_128(), batch=4, seq_len=512, seed=7)


@pytest.mark.parametrize("part", sorted(DRAWS))
def test_repeated_draw_equals_fresh_generator(gen, part):
    draw = DRAWS[part]
    first, again = draw(gen), draw(gen)
    np.testing.assert_array_equal(again, draw(_fresh_gen()))
    np.testing.assert_array_equal(first, again)


def test_encoder_draw_independent_of_draw_order():
    """A layer's encoder counts come from its own seed, not from a
    stream shared with the layers drawn before it."""
    shuffled = _fresh_gen()
    later = [shuffled.encoder_layer_counts(rank) for rank in (3, 0, 2, 1)]
    in_order = _fresh_gen().encoder_trace()
    for rank, counts in zip((3, 0, 2, 1), later):
        np.testing.assert_array_equal(counts, in_order[rank])


@pytest.mark.parametrize("part", sorted(DRAWS))
def test_mutating_returned_counts_leaves_later_draws(part):
    draw, g = DRAWS[part], _fresh_gen()
    counts = draw(g)
    expected = counts.copy()
    counts += 1
    np.testing.assert_array_equal(draw(g), expected)


def test_decoder_popularity_persistent_across_steps(gen):
    """The hot expert of a decoder layer recurs across steps -- the
    property that makes the GPU expert buffer effective."""
    hot_sets = []
    for step in range(8):
        counts = gen.decoder_step_counts(0, step)
        hot_sets.append(set(np.argsort(-counts)[:1].tolist()))
    # The single hottest expert is the same in most steps.
    most_common = max(set.union(*hot_sets), key=lambda e: sum(e in s for s in hot_sets))
    recurrence = sum(most_common in s for s in hot_sets)
    assert recurrence >= 5


def test_different_seeds_differ():
    a = RoutingTraceGenerator(nllb_moe_128(), 4, 512, seed=0).encoder_layer_counts(0)
    b = RoutingTraceGenerator(nllb_moe_128(), 4, 512, seed=1).encoder_layer_counts(0)
    assert not np.array_equal(a, b)


def test_profile_ramp():
    profile = RoutingProfile(hot_fraction_first=0.8, hot_fraction_last=0.9)
    assert profile._ramp(0.8, 0.9, 0, 10) == pytest.approx(0.8)
    assert profile._ramp(0.8, 0.9, 9, 10) == pytest.approx(0.9)
    assert profile._ramp(0.8, 0.9, 0, 1) == pytest.approx(0.9)


def test_decoder_floor_applies():
    profile = RoutingProfile(
        hot_fraction_first=0.5, hot_fraction_last=0.6, decoder_min_hot_fraction=0.95
    )
    rng = np.random.default_rng(0)
    p = profile.popularity(64, 0, 4, decoder=True, rng=rng)
    top2 = np.sort(p)[::-1][:2]
    assert top2.sum() >= 0.94


def test_dense_model_rejected():
    with pytest.raises(ValueError):
        RoutingTraceGenerator(t5_large_dense(), 4, 512)


def test_geometry_validated():
    with pytest.raises(ValueError):
        RoutingTraceGenerator(nllb_moe_128(), 0, 512)
    gen = RoutingTraceGenerator(nllb_moe_128(), 1, 8)
    with pytest.raises(ValueError):
        gen.decoder_trace(0)
