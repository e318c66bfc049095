"""Segmented streams drain exactly through the busy-period memo.

A segmented stream is what the isolation baseline serializes: runs of
requests (segments), each placed after the stream so far.  The
property under test: for any segmented stream, on any geometry,
window and scheduler policy, a drain with a ``SegmentMemo`` returns
stats, timings and channel state equal to one cold drain of the whole
stream -- whether segments are far apart (memo hits), repeated, close
enough that a timing horizon is still live at the next segment, or
overlapping the previous segment's arrivals.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.busy_period import SegmentMemo
from repro.dram.controller import ControllerSpec, SchedulerPolicy
from repro.dram.request import FLAG_WRITE
from tests.dram.test_busy_period_memo import CONFIGS, _assert_same, _run


def _per_access(config) -> int:
    t = config.timing
    return t.tRC + t.tCL + t.burst_cycles + 2


def _row_stride(config) -> int:
    """Byte distance between consecutive rows of one bank."""
    org = config.organization
    return org.n_channels * org.n_banks * org.row_bytes


# A segment: (row, block) address picks (few rows, so hits, misses and
# conflicts all occur), relative arrival offsets and write bits.  Zero
# offsets are drawn often: the memo keys the run of requests arriving
# together, as a serialized isolated request's accesses do.
_segment = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.integers(0, 63),
        st.one_of(st.just(0), st.integers(0, 24)),
        st.booleans(),
    ),
    min_size=1,
    max_size=24,
)


def _stream(spec, protos, picks, gaps):
    """Concatenate ``protos[picks[i]]``, placing each segment after the
    first by the i-th gap mode:

    - ``wide``: the isolation serializer's spacing, so every timing
      horizon has expired (memo lookups and stores);
    - ``tight``: ``amount`` cycles after the command bus of the stream
      so far goes idle, so tFAW / tWTR / bank horizons may still be
      live (the memo stays out);
    - ``overlap``: before the previous segment's last arrival, so the
      two segments interleave in one busy period.
    """
    config = spec.config
    stride = _row_stride(config)
    addrs, arrive, flags = [], [], []
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
                probe, _, _ = _run(
                    spec, np.array(addrs), np.array(arrive), np.array(flags, np.uint8)
                )
                a0 = max(ch._cmd_bus_next for ch in probe.channels) + amount
            else:
                a0 = prev_a0 + max(prev_last - amount, 0)
        for (row, block, _, write), off in zip(seg, offsets.tolist()):
            addrs.append(row * stride + block * 64)
            arrive.append(a0 + off)
            flags.append(FLAG_WRITE if write else 0)
        prev_a0, prev_last, prev_len = a0, int(offsets[-1]), len(seg)
    order = np.argsort(arrive, kind="stable")
    return (
        np.array(addrs, dtype=np.int64)[order],
        np.array(arrive, dtype=np.int64)[order],
        np.array(flags, dtype=np.uint8)[order],
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
    stream = _stream(spec, protos, picks, gaps)
    expected = _run(spec, *stream)
    memo = SegmentMemo()
    _assert_same(_run(spec, *stream, memo=memo), expected)
    # A second pass reuses everything the first stored.
    _assert_same(_run(spec, *stream, memo=memo), expected)
