"""Popularity drift: seeded re-mixes, deterministic drifting replay."""

import pickle

import numpy as np
import pytest

from repro.experiments import build_components, get_preset
from repro.traffic.drift import DriftSchedule, DriftingReplayPlanner


def test_checkpoint_indexing():
    drift = DriftSchedule(window_requests=20)
    assert drift.checkpoint_of(0) == 0
    assert drift.checkpoint_of(19) == 0
    assert drift.checkpoint_of(20) == 1
    assert drift.checkpoint_of(59) == 2


def test_invalid_schedule_rejected():
    with pytest.raises(ValueError):
        DriftSchedule(window_requests=0)
    with pytest.raises(ValueError):
        DriftSchedule(window_requests=10, mix=1.5)


def test_popularity_at_zero_is_the_base():
    base = np.array([0.6, 0.3, 0.1])
    drift = DriftSchedule(window_requests=10, mix=0.5, seed=4)
    np.testing.assert_allclose(drift.popularity_at(0, base), base)


def test_remix_is_seeded_and_compounds():
    base = np.array([0.6, 0.25, 0.1, 0.05])
    drift = DriftSchedule(window_requests=10, mix=0.5, seed=4)
    first = drift.popularity_at(3, base)
    again = drift.popularity_at(3, base)
    np.testing.assert_array_equal(first, again)
    np.testing.assert_allclose(first.sum(), 1.0)
    # A different seed or layer re-mixes differently.
    other_seed = DriftSchedule(window_requests=10, mix=0.5, seed=5)
    assert not np.allclose(other_seed.popularity_at(3, base), first)
    assert not np.allclose(drift.popularity_at(3, base, layer=1), first)


def test_mix_zero_never_moves():
    base = np.array([0.7, 0.2, 0.1])
    drift = DriftSchedule(window_requests=5, mix=0.0, seed=9)
    np.testing.assert_allclose(drift.popularity_at(7, base), base)


def _drift_planner():
    _, _, planner = build_components(get_preset("popularity_drift"))
    assert isinstance(planner, DriftingReplayPlanner)
    return planner


def test_same_preset_same_seed_bit_identical_bursts():
    a, b = _drift_planner(), _drift_planner()
    for request_id in (0, 19, 20, 45, 120):
        np.testing.assert_array_equal(
            a.request_blocks(request_id, tokens=32),
            b.request_blocks(request_id, tokens=32),
        )


def test_stable_addresses_hold_across_query_order():
    planner = _drift_planner()
    forward = [planner.request_blocks(i, tokens=16) for i in range(0, 60, 7)]
    backward = [
        planner.request_blocks(i, tokens=16) for i in reversed(range(0, 60, 7))
    ]
    for got, want in zip(forward, reversed(backward)):
        np.testing.assert_array_equal(got, want)


def test_drift_actually_changes_popularity_across_windows():
    planner = _drift_planner()
    window = planner.drift.window_requests
    before = planner._popularity_for(0)
    after = planner._popularity_for(3 * window)
    assert any(
        not np.allclose(a, b) for a, b in zip(before, after)
    )


def test_pickle_round_trip_drops_cache_and_matches():
    planner = _drift_planner()
    want = planner.request_blocks(41, tokens=24)
    assert planner._blocks and planner._drift_cache
    clone = pickle.loads(pickle.dumps(planner))
    assert clone._drift_cache == {}
    assert clone._blocks == {}
    np.testing.assert_array_equal(clone.request_blocks(41, tokens=24), want)
