"""Segment-memoized drains (`drain_segments`) are exact.

The property under test: for any segmented stream, on any geometry,
window and scheduler policy, ``drain_segments`` returns completion
cycles equal (``==``) to one cold ``simulate_arrays`` call on the
whole stream -- whether segments are far apart (memo hits), repeated,
close enough that a timing horizon is still live at the next segment
(unmemoized), or overlapping (the interleave guard).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cosim.driver import small_cosim_dram
from repro.dram.config import LPDDR5X_8533
from repro.dram.controller import SchedulerPolicy
from repro.dram.segments import (
    ControllerSpec,
    SegmentMemo,
    _horizons_expired,
    drain_segments,
    segment_starts,
)
from repro.dram.request import FLAG_WRITE

_SMALL = small_cosim_dram()


def _stretched(**long):
    """The small geometry with short bank timings and one long channel
    horizon, so that horizon can be the only live one at a segment
    boundary.  With LPDDR5X timing a live tFAW, tRRD or tWTR always
    comes with a live bank horizon, which would mask a missed check."""
    short = dict(
        tRCD=4, tRP=4, tRAS=8, tCL=6, tCWL=4, tWR=4, tCCD_S=1, tCCD_L=1,
        tRRD=1, tFAW=4, tWTR=1, burst_cycles=1,
    )
    timing = dataclasses.replace(_SMALL.timing, **{**short, **long})
    return dataclasses.replace(_SMALL, timing=timing)


CONFIGS = {
    "small": _SMALL,
    "lpddr5x": LPDDR5X_8533,
    "long-tFAW": _stretched(tFAW=200),
    "long-tRRD": _stretched(tRRD=40),
    "long-tWTR": _stretched(tWTR=60),
    "long-tCCD": _stretched(tCCD_S=8, tCCD_L=30),
    "long-data-bus": _stretched(tCL=30, burst_cycles=4),
}


def _per_access(config) -> int:
    t = config.timing
    return t.tRC + t.tCL + t.burst_cycles + 2


def _row_stride(config) -> int:
    """Byte distance between consecutive rows of one bank."""
    org = config.organization
    return org.n_channels * org.n_banks * org.row_bytes


def _one_shot(spec, addrs, arrive, flags) -> np.ndarray:
    _, timings = spec.build().simulate_arrays(addrs, arrive, flags, detail=True)
    return timings.complete_cycles


# A segment: (row, block) address picks (few rows, so hits, misses and
# conflicts all occur), relative arrival offsets and write bits.
_segment = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 63), st.integers(0, 24), st.booleans()),
    min_size=1,
    max_size=24,
)


def _stream(spec, protos, picks, gaps):
    """Concatenate ``protos[picks[i]]``, placing each segment after the
    first by the i-th gap mode:

    - ``wide``: the isolation serializer's spacing, so every timing
      horizon has expired (the memo path);
    - ``tight``: ``amount`` cycles after the command bus of the stream
      so far goes idle, so tFAW / tWTR / bank horizons may still be
      live (the unmemoized path);
    - ``overlap``: before the previous segment's last arrival (the
      interleave guard).
    """
    config = spec.config
    stride = _row_stride(config)
    addrs, arrive, flags, starts = [], [], [], []
    for i, pick in enumerate(picks):
        seg = protos[pick]
        offsets = np.cumsum([off for _, _, off, _ in seg])
        offsets -= offsets[0]
        if i == 0:
            a0 = 0
        else:
            mode, amount = gaps[i - 1]
            if mode == "wide":
                a0 = prev_a0 + prev_last + prev_len * _per_access(config) + 64
            elif mode == "tight":
                probe = spec.build()
                probe.simulate_arrays(
                    np.array(addrs), np.array(arrive), np.array(flags, dtype=np.uint8)
                )
                a0 = max(ch._cmd_bus_next for ch in probe.channels) + amount
            else:
                a0 = prev_a0 + max(prev_last - amount, 0)
        starts.append(len(addrs))
        for (row, block, _, write), off in zip(seg, offsets.tolist()):
            addrs.append(row * stride + block * 64)
            arrive.append(a0 + off)
            flags.append(FLAG_WRITE if write else 0)
        prev_a0, prev_last, prev_len = a0, int(offsets[-1]), len(seg)
    return (
        np.array(addrs, dtype=np.int64),
        np.array(arrive, dtype=np.int64),
        np.array(flags, dtype=np.uint8),
        starts,
    )


@settings(max_examples=200, deadline=None)
@given(
    config=st.sampled_from(sorted(CONFIGS)),
    window=st.sampled_from([1, 8, 64]),
    policy=st.sampled_from(list(SchedulerPolicy)),
    protos=st.lists(_segment, min_size=1, max_size=3),
    picks=st.lists(st.integers(0, 2), min_size=1, max_size=8),
    gaps=st.lists(
        st.tuples(
            st.sampled_from(["wide", "tight", "tight", "overlap"]),
            st.integers(0, 64),
        ),
        min_size=8,
        max_size=8,
    ),
)
def test_drain_segments_equals_one_shot(config, window, policy, protos, picks, gaps):
    spec = ControllerSpec(CONFIGS[config], window=window, policy=policy)
    picks = [p % len(protos) for p in picks]
    addrs, arrive, flags, starts = _stream(spec, protos, picks, gaps)
    expected = _one_shot(spec, addrs, arrive, flags)
    memo = SegmentMemo()
    cold = drain_segments(spec, addrs, arrive, flags, starts, memo)
    assert np.array_equal(cold, expected)
    # A second pass reuses everything the first stored.
    warm = drain_segments(spec, addrs, arrive, flags, starts, memo)
    assert np.array_equal(warm, expected)


@pytest.mark.parametrize("config", [c for c in CONFIGS if c.startswith("long")])
def test_segment_repeated_behind_its_own_live_horizon(config):
    """``[X, X wide, X tight]``: the third X has the second's memo key
    (same content, same open rows), but one long channel horizon of
    the second may still be live at its first arrival.  A missed
    horizon check turns that into a wrong memo hit."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        spec = ControllerSpec(CONFIGS[config], window=int(rng.choice([1, 8, 64])))
        seg = [
            (
                int(rng.integers(0, 6)),
                int(rng.integers(0, 64)),
                int(rng.integers(0, 5)),
                bool(rng.random() < 0.4),
            )
            for _ in range(int(rng.integers(1, 12)))
        ]
        gaps = [("wide", 0), ("tight", int(rng.integers(0, 64)))]
        addrs, arrive, flags, starts = _stream(spec, [seg], [0, 0, 0], gaps)
        got = drain_segments(spec, addrs, arrive, flags, starts, SegmentMemo())
        assert np.array_equal(got, _one_shot(spec, addrs, arrive, flags))


def _wide_stream(config, segments):
    """``segments`` (address lists) at the isolation serializer's
    spacing, all elements of a segment arriving together."""
    addrs, arrive, ids = [], [], []
    base = 0
    for sid, seg in enumerate(segments):
        addrs.extend(seg)
        arrive.extend([base] * len(seg))
        ids.extend([sid] * len(seg))
        base += len(seg) * _per_access(config) + 64
    n = len(addrs)
    return (
        np.array(addrs, dtype=np.int64),
        np.array(arrive, dtype=np.int64),
        np.zeros(n, dtype=np.uint8),
        segment_starts(np.array(ids)),
    )


def test_memo_hit_equals_memo_less_drain():
    config = small_cosim_dram()
    spec = ControllerSpec(config)
    stride = _row_stride(config)
    a = [r * stride + b * 64 for r in (0, 3) for b in range(12)]
    b = [5 * stride + k * 192 for k in range(9)]
    addrs, arrive, flags, starts = _wide_stream(config, [a, b, a, b, a])
    memo = SegmentMemo()
    got = drain_segments(spec, addrs, arrive, flags, starts, memo)
    assert memo.hits >= 1 and memo.live == 0 and memo.interleaved == 0
    assert np.array_equal(got, _one_shot(spec, addrs, arrive, flags))
    # A new stream with the same segments is served from the memo alone.
    hits = memo.hits
    again = drain_segments(spec, addrs, arrive + 12345, flags, starts, memo)
    assert memo.hits == hits + len(starts)
    assert np.array_equal(again, got + 12345)


@pytest.mark.parametrize("variant", ["offsets", "write bits"])
def test_memo_key_covers_offsets_and_write_bits(variant):
    """``[A, A, B]`` where B has A's addresses but other arrival offsets
    or write bits.  A opens one row per bank, so B starts from the open
    rows the second A started from, and only the content digest tells
    their keys apart."""
    config = small_cosim_dram()
    spec = ControllerSpec(config)
    stride = _row_stride(config)
    rows = [3 * stride + bank * (stride // 4) for bank in (0, 1)]
    addrs = np.array([row + b * 64 for row in rows for b in range(6)])
    offsets = np.zeros(len(addrs), dtype=np.int64)
    writes = np.zeros(len(addrs), dtype=np.uint8)
    if variant == "offsets":
        other = (offsets + np.arange(len(addrs)) * 9, writes)
    else:
        other = (offsets, np.full(len(addrs), FLAG_WRITE, dtype=np.uint8))
    gap = len(addrs) * (_per_access(config) + 9) + 64
    stream_addrs = np.concatenate([addrs] * 3)
    arrive = np.concatenate((offsets, gap + offsets, 2 * gap + other[0]))
    flags = np.concatenate((writes, writes, other[1]))
    starts = [0, len(addrs), 2 * len(addrs)]
    memo = SegmentMemo()
    got = drain_segments(spec, stream_addrs, arrive, flags, starts, memo)
    assert np.array_equal(got, _one_shot(spec, stream_addrs, arrive, flags))
    assert memo.misses == 3


def test_live_residual_segment_is_never_stored():
    """A segment that starts while a horizon of the previous one is
    still live drains unmemoized and leaves no memo entry."""
    config = small_cosim_dram()
    spec = ControllerSpec(config)
    stride = _row_stride(config)
    # Four writes to four banks: ACTs fill the tFAW history and the
    # last write leaves a tWTR tail behind the command bus.
    first = [bank * (stride // 4) + 64 * ch for bank in range(4) for ch in range(2)]
    writes = np.full(len(first), FLAG_WRITE, dtype=np.uint8)
    probe = spec.build()
    probe.simulate_arrays(np.array(first), np.zeros(len(first), np.int64), writes)
    a0 = max(ch._cmd_bus_next for ch in probe.channels)
    assert not _horizons_expired(probe.channels, a0)
    second = [7 * stride + 64 * k for k in range(6)]
    addrs = np.array(first + second, dtype=np.int64)
    arrive = np.array([0] * len(first) + [a0] * len(second), dtype=np.int64)
    flags = np.concatenate((writes, np.zeros(len(second), dtype=np.uint8)))
    memo = SegmentMemo()
    got = drain_segments(spec, addrs, arrive, flags, [0, len(first)], memo)
    assert np.array_equal(got, _one_shot(spec, addrs, arrive, flags))
    assert (memo.misses, memo.live, memo.interleaved) == (1, 1, 0)
    assert len(memo) == 1  # only the cold first segment


def test_overlapping_segments_take_the_interleave_guard():
    config = small_cosim_dram()
    spec = ControllerSpec(config)
    stride = _row_stride(config)
    seg = [r * stride + b * 64 for r in range(3) for b in range(8)]
    addrs = np.array(seg * 3, dtype=np.int64)
    arrive = np.array([0] * 24 + [10] * 24 + [5000] * 24, dtype=np.int64)
    flags = np.zeros(len(addrs), dtype=np.uint8)
    memo = SegmentMemo()
    got = drain_segments(spec, addrs, arrive, flags, [0, 24, 48], memo)
    assert memo.interleaved == 1
    assert np.array_equal(got, _one_shot(spec, addrs, arrive, flags))


def test_memo_evicts_oldest_beyond_its_element_cap():
    config = small_cosim_dram()
    spec = ControllerSpec(config)
    stride = _row_stride(config)
    segments = [[r * stride + b * 64 for b in range(10)] for r in range(4)]
    addrs, arrive, flags, starts = _wide_stream(config, segments)
    memo = SegmentMemo(max_elements=25)
    got = drain_segments(spec, addrs, arrive, flags, starts, memo)
    assert np.array_equal(got, _one_shot(spec, addrs, arrive, flags))
    assert memo.misses == 4 and len(memo) == 2 and memo.elements == 20


def test_segment_starts_validated():
    config = small_cosim_dram()
    spec = ControllerSpec(config)
    addrs = np.arange(4, dtype=np.int64) * 64
    arrive = np.zeros(4, dtype=np.int64)
    for bad in ([], [1], [0, 0], [0, 4]):
        with pytest.raises(ValueError):
            drain_segments(spec, addrs, arrive, None, bad, SegmentMemo())
