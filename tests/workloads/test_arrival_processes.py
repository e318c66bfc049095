"""Arrival-process generators for open-loop memory traces."""

import numpy as np
import pytest

from repro.workloads.traces import (
    ARRIVAL_PROCESSES,
    batched_arrival_cycles,
    onoff_arrival_cycles,
    poisson_arrival_cycles,
)


def test_poisson_sorted_seeded_offset():
    a = poisson_arrival_cycles(500, 10.0, seed=3)
    b = poisson_arrival_cycles(500, 10.0, seed=3)
    c = poisson_arrival_cycles(500, 10.0, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(np.diff(a) >= 0)
    shifted = poisson_arrival_cycles(500, 10.0, seed=3, start_cycle=1000)
    assert np.array_equal(shifted, a + 1000)
    # Mean gap roughly matches the request.
    assert a[-1] / 500 == pytest.approx(10.0, rel=0.3)


def test_batched_shape():
    cycles = batched_arrival_cycles(10, batch_size=4, batch_gap_cycles=100)
    assert cycles.tolist() == [0, 0, 0, 0, 100, 100, 100, 100, 200, 200]
    offset = batched_arrival_cycles(4, batch_size=2, batch_gap_cycles=10, start_cycle=7)
    assert offset.tolist() == [7, 7, 17, 17]


def test_onoff_respects_silence_windows():
    on, off = 100, 900
    cycles = onoff_arrival_cycles(400, 5.0, on_cycles=on, off_cycles=off, seed=1)
    assert np.all(np.diff(cycles) >= 0)
    # Every arrival falls inside an on-period of the duty cycle.
    phase = cycles % (on + off)
    assert np.all(phase < on)


def test_generator_validation():
    with pytest.raises(ValueError):
        poisson_arrival_cycles(10, 0.0)
    with pytest.raises(ValueError):
        batched_arrival_cycles(10, batch_size=0, batch_gap_cycles=5)
    with pytest.raises(ValueError):
        onoff_arrival_cycles(10, 5.0, on_cycles=0, off_cycles=10)


@pytest.mark.parametrize("name", sorted(ARRIVAL_PROCESSES))
def test_named_processes_unified_signature(name):
    cycles = ARRIVAL_PROCESSES[name](200, 8.0, seed=5, start_cycle=50)
    assert len(cycles) == 200
    assert np.all(np.diff(cycles) >= 0)
    assert cycles[0] >= 50


@pytest.mark.parametrize("name", sorted(ARRIVAL_PROCESSES))
def test_named_processes_reject_nonpositive_gap(name):
    with pytest.raises(ValueError, match="positive"):
        ARRIVAL_PROCESSES[name](10, 0.0)
