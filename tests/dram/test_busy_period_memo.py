"""The busy-period memo of main drains is exact.

``MemoryController.simulate_arrays(..., memo=SegmentMemo())`` skips
re-draining a segment (the requests that arrive together at an idle
jump) whose outcome it has already stored for the same spec, content
and open rows.  The property under test: stats, per-request timings
and every channel's post-drain state equal a cold drain without the
memo, for any stream -- repeated bursts far apart (hits), close
behind each other (live horizons), or with the next arrival exactly
at a stored busy period's end or one cycle before it.  Command
recording, streaming feeds and the drain pool bypass the memo.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cosim.driver import small_cosim_dram
from repro.dram.address import AddressMapper
from repro.dram.config import LPDDR5X_8533
from repro.dram.busy_period import horizons_expired
from repro.dram.controller import ControllerSpec, MemoryController, SchedulerPolicy
from repro.dram.parallel import ChannelState, ParallelDrainExecutor
from repro.dram.request import FLAG_WRITE
from repro.dram.segments import SegmentMemo
from repro.workloads.trace_io import write_trace

_SMALL = small_cosim_dram()
CONFIGS = {
    "small": _SMALL,
    "lpddr5x": LPDDR5X_8533,
    # Short bank timings under a long tFAW: the fifth ACT of a burst
    # waits on the tFAW history the memo must carry.
    "long-tFAW": dataclasses.replace(
        _SMALL,
        timing=dataclasses.replace(
            _SMALL.timing, tRCD=4, tRP=4, tRAS=8, tRRD=1, tFAW=120, tWTR=30
        ),
    ),
}


def _address(config, channel, bank, row, column) -> int:
    """Byte address of (channel, flat bank, row, column), rank 0."""
    org = config.organization
    return AddressMapper(org).encode(
        channel % org.n_channels,
        0,
        (bank // org.banks_per_group) % org.n_bankgroups,
        bank % org.banks_per_group,
        row,
        column,
    )


def _run(spec, addrs, arrive, flags, memo=None, recording=False):
    controller = spec.build()
    for channel in controller.channels:
        channel.record_commands = recording
    stats, timings = controller.simulate_arrays(
        addrs, arrive, flags, detail=True, memo=memo
    )
    return controller, stats, timings


def _assert_same(a, b) -> None:
    """Two ``_run`` results agree on stats, timings and channel state."""
    (ca, sa, ta), (cb, sb, tb) = a, b
    assert dataclasses.asdict(sa) == dataclasses.asdict(sb)
    for name in ("first_command_cycles", "complete_cycles", "queue_delays", "row_hits"):
        assert np.array_equal(getattr(ta, name), getattr(tb, name)), name
    for x, y in zip(ca.channels, cb.channels):
        assert ChannelState.capture(x) == ChannelState.capture(y)


# A burst element: (channel, flat bank, row, column, write, sub-run).
# Few rows so hits, misses and conflicts all occur; up to 24 elements
# over 4+ banks and 6 rows, so a burst can issue more than 4 ACTs; the
# sub-run splits a burst into runs that arrive a few cycles apart.
_burst = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.integers(0, 3),
        st.integers(0, 5),
        st.integers(0, 15),
        st.booleans(),
        st.sampled_from([0, 0, 0, 1, 2]),
    ),
    min_size=1,
    max_size=24,
)


def _stream(spec, bursts, picks, gaps):
    """Concatenate ``bursts[picks[i]]``; burst i > 0 arrives after
    burst i - 1 by the gap ``gaps[i - 1]``: a cycle count, or
    ``"end"`` / ``"end-1"`` for the cycle the stream so far leaves the
    command bus idle (or one cycle before it)."""
    config = spec.config
    addrs, arrive, flags = [], [], []
    a0 = 0
    for i, pick in enumerate(picks):
        if i:
            gap = gaps[i - 1]
            if isinstance(gap, str):
                probe, _, _ = _run(
                    spec, np.array(addrs), np.array(arrive), np.array(flags, np.uint8)
                )
                a0 = max(ch._cmd_bus_next for ch in probe.channels)
                a0 -= gap == "end-1"
            else:
                a0 += gap
        for ch, bank, row, col, write, sub in bursts[pick]:
            addrs.append(_address(config, ch, bank, row, col))
            arrive.append(a0 + 3 * sub)
            flags.append(FLAG_WRITE if write else 0)
        a0 = max(a0, max(arrive))
    order = np.argsort(arrive, kind="stable")
    return (
        np.array(addrs, dtype=np.int64)[order],
        np.array(arrive, dtype=np.int64)[order],
        np.array(flags, dtype=np.uint8)[order],
    )


@settings(max_examples=300, deadline=None)
@given(
    config=st.sampled_from(sorted(CONFIGS)),
    window=st.sampled_from([1, 4, 64]),
    policy=st.sampled_from(list(SchedulerPolicy)),
    cap=st.sampled_from([1, 512]),
    bursts=st.lists(_burst, min_size=1, max_size=3),
    picks=st.lists(st.integers(0, 2), min_size=1, max_size=10),
    gaps=st.lists(
        st.one_of(st.integers(0, 3000), st.sampled_from(["end", "end-1"])),
        min_size=9,
        max_size=9,
    ),
)
def test_memoized_drain_equals_cold(config, window, policy, cap, bursts, picks, gaps):
    spec = ControllerSpec(
        CONFIGS[config], window=window, policy=policy, starvation_cap=cap
    )
    picks = [p % len(bursts) for p in picks]
    stream = _stream(spec, bursts, picks, gaps)
    cold = _run(spec, *stream)
    memo = SegmentMemo()
    _assert_same(_run(spec, *stream, memo=memo), cold)
    # A second drain reuses everything the first stored.
    _assert_same(_run(spec, *stream, memo=memo), cold)


def _wide(spec, bursts, gap=5000):
    """``bursts`` (address lists), each arriving at once, ``gap``
    cycles apart: every horizon has expired at each arrival."""
    addrs = np.array([a for burst in bursts for a in burst], dtype=np.int64)
    arrive = np.repeat(np.arange(len(bursts)) * gap, [len(b) for b in bursts])
    return addrs, arrive.astype(np.int64), np.zeros(len(addrs), dtype=np.uint8)


def _spread_burst(config, channel=0):
    """Eight rows over four banks of one channel: more than 4 ACTs."""
    return [
        _address(config, channel, bank, row, col)
        for row in (1, 2)
        for bank in range(4)
        for col in range(3)
    ]


def test_repeated_burst_is_served_from_the_memo():
    spec = ControllerSpec(_SMALL)
    burst = _spread_burst(_SMALL)
    stream = _wide(spec, [burst] * 5)
    memo = SegmentMemo()
    _assert_same(_run(spec, *stream, memo=memo), _run(spec, *stream))
    # Burst 1 arrives at cycle 0 on an idle channel: no idle jump, no
    # lookup.  FR-FCFS serves the open row first, so each burst leaves
    # every bank on the other of its two rows: bursts 2 and 3 start
    # from new open rows and are stored, bursts 4 and 5 hit them.
    assert (memo.main_misses, memo.main_stores, memo.main_hits) == (2, 2, 2)
    assert (memo.hits, memo.misses) == (0, 0)  # isolation counters untouched
    assert memo.elements == 2 * len(burst)


@pytest.mark.parametrize("early, hits", [(0, 1), (1, 0)])
def test_next_arrival_at_the_stored_end(early, hits):
    """``[X, X, X, X, Y]``: the fourth X starts from the open rows the
    second did (see above), so it has the second's key.  It is served
    from the memo only if Y arrives at or after the cycle its stored
    busy period leaves the command bus idle."""
    spec = ControllerSpec(_SMALL)
    burst = _spread_burst(_SMALL)
    gap = 5000
    probe, _, _ = _run(spec, *_wide(spec, [burst, burst], gap))
    end = probe.channels[0]._cmd_bus_next - gap
    y = _address(_SMALL, 0, 0, 7, 0)
    stream = _wide(spec, [burst] * 4 + [[y]], gap)
    stream[1][-1] = 3 * gap + end - early
    memo = SegmentMemo()
    _assert_same(_run(spec, *stream, memo=memo), _run(spec, *stream))
    assert memo.main_hits == hits


def test_burst_behind_a_live_tfaw_window_drains_cold():
    """``[X, X, X, X]`` on short bank timings under a long tFAW: the
    fourth X has the second's key, but arrives after every horizon
    except the third X's tFAW window has expired.  Its first ACTs must
    wait for that window, so the stored outcome does not apply."""
    config = CONFIGS["long-tFAW"]
    spec = ControllerSpec(config)
    burst = _spread_burst(config)
    gap = 5000
    probe, _, _ = _run(spec, *_wide(spec, [burst] * 3, gap))
    ch = probe.channels[0]

    def expired(a0, hist):
        return horizons_expired(
            config.timing, a0, ch._cmd_bus_next, ch._data_bus_next,
            ch._last_col_cycle, ch._read_after_write_ok, ch._last_act_cycle,
            hist,
            [b.earliest_act for b in ch.banks],
            [b.earliest_pre for b in ch.banks],
            [b.earliest_col for b in ch.banks],
        )

    a0 = ch._cmd_bus_next
    while not expired(a0, ()):
        a0 += 1
    assert not expired(a0, ch._act_history)  # tFAW is the one live horizon
    stream = _wide(spec, [burst] * 4, gap)
    stream[1][3 * len(burst) :] = a0
    memo = SegmentMemo()
    _assert_same(_run(spec, *stream, memo=memo), _run(spec, *stream))
    assert (memo.main_misses, memo.main_hits) == (2, 0)


def test_busy_period_overrun_by_the_next_arrival_is_not_stored():
    """``[X, X + Y, X, X]``: Y arrives while the second X drains and
    competes with it, so that outcome is not X's alone and must not be
    stored.  X reads one column of bank 2 then eight of bank 0 (the
    other bank group, ``tCCD_L`` apart); Y, a row hit on bank 2, slips
    into a ``tCCD_L`` gap and resets it.  Both leave the same open
    rows, so the third X has the second's key: it drains cold and is
    stored, and the fourth X hits it."""
    config = dataclasses.replace(
        _SMALL, timing=dataclasses.replace(_SMALL.timing, tCCD_S=1, tCCD_L=4)
    )
    spec = ControllerSpec(config)
    burst = [_address(config, 0, 2, 1, 0)] + [
        _address(config, 0, 0, 1, col) for col in range(8)
    ]
    k, gap = len(burst), 5000
    for delay in range(1, 80):
        addrs, arrive, flags = _wide(
            spec, [burst, burst + [_address(config, 0, 2, 1, 9)], burst, burst], gap
        )
        arrive[2 * k] = gap + delay  # Y
        cold = _run(spec, addrs, arrive, flags)
        done = cold[2].complete_cycles
        second, third = done[k : 2 * k] - gap, done[2 * k + 1 : 3 * k + 1] - 2 * gap
        if not np.array_equal(second, third):
            break  # Y moved the second X's schedule
    else:
        pytest.fail("no arrival of Y competes with X")
    memo = SegmentMemo()
    _assert_same(_run(spec, addrs, arrive, flags, memo=memo), cold)
    assert (memo.main_misses, memo.main_stores, memo.main_hits) == (2, 1, 1)


def test_one_memo_serves_two_specs_and_devices():
    """Keys carry the spec: a memo shared by controllers of two specs
    (two devices each) serves each spec only its own outcomes."""
    memo = SegmentMemo()
    specs = [ControllerSpec(_SMALL, window=4), ControllerSpec(_SMALL, window=64)]
    burst = _spread_burst(_SMALL) + _spread_burst(_SMALL, channel=1)
    stream = _wide(specs[0], [burst] * 4)
    colds = [_run(spec, *stream) for spec in specs]
    # The specs schedule the stream differently, so a key without the
    # spec would hand one spec the other's outcome.
    firsts = [timings.first_command_cycles for _, _, timings in colds]
    assert not np.array_equal(*firsts)
    for spec, cold in zip(specs, colds):
        _assert_same(_run(spec, *stream, memo=memo), cold)
    assert memo.main_stores > 0 and memo.main_hits > 0
    misses, stores = memo.main_misses, memo.main_stores
    # The second device of each spec is served from the memo alone.
    for spec, cold in zip(specs, colds):
        _assert_same(_run(spec, *stream, memo=memo), cold)
    assert (memo.main_misses, memo.main_stores) == (misses, stores)


def _memoized_reference(spec, stream):
    memo = SegmentMemo()
    reference = _run(spec, *stream, memo=memo)
    assert memo.main_hits > 0
    return reference


def test_record_commands_bypasses_the_memo():
    spec = ControllerSpec(_SMALL)
    stream = _wide(spec, [_spread_burst(_SMALL) + _spread_burst(_SMALL, 1)] * 4)
    reference = _memoized_reference(spec, stream)
    memo = SegmentMemo()
    recorded = _run(spec, *stream, memo=memo, recording=True)
    assert (memo.main_hits, memo.main_misses, memo.main_stores) == (0, 0, 0)
    _assert_same(recorded, reference)
    # Every command is recorded, exactly as without a memo.
    plain = _run(spec, *stream, recording=True)
    stats = recorded[1]
    for with_memo, without in zip(recorded[0].channels, plain[0].channels):
        assert with_memo.commands == without.commands
    issued = sum(len(ch.commands) for ch in recorded[0].channels)
    assert issued == stats.requests + stats.activates + stats.precharges


def test_streaming_drain_matches_the_memoized_drain(tmp_path):
    """``simulate_trace_streaming`` takes no memo: its compacting feeds
    renumber requests, so it always drains cold."""
    spec = ControllerSpec(_SMALL)
    stream = _wide(spec, [_spread_burst(_SMALL) + _spread_burst(_SMALL, 1)] * 4)
    reference = _memoized_reference(spec, stream)
    path = tmp_path / "bursts.dramtrace"
    write_trace(path, *stream)
    controller = spec.build()
    stats = controller.simulate_trace_streaming(path, window=16)
    assert dataclasses.asdict(stats) == dataclasses.asdict(reference[1])
    for x, y in zip(controller.channels, reference[0].channels):
        assert ChannelState.capture(x) == ChannelState.capture(y)


def test_drain_executor_bypasses_the_memo():
    spec = ControllerSpec(_SMALL)
    stream = _wide(spec, [_spread_burst(_SMALL) + _spread_burst(_SMALL, 1)] * 4)
    reference = _memoized_reference(spec, stream)
    memo = SegmentMemo()
    with ParallelDrainExecutor(2) as executor:
        controller = MemoryController(
            spec.config, window=spec.window, executor=executor
        )
        stats, timings = controller.simulate_arrays(*stream, detail=True, memo=memo)
    assert (memo.main_hits, memo.main_misses, memo.main_stores) == (0, 0, 0)
    _assert_same((controller, stats, timings), reference)
