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
from repro.dram.busy_period import SegmentMemo, horizons_expired
from repro.dram.controller import ControllerSpec, MemoryController, SchedulerPolicy
from repro.dram.parallel import ChannelState, ParallelDrainExecutor
from repro.dram.request import FLAG_WRITE, CommandKind
from repro.workloads.trace_io import write_trace

_SMALL = small_cosim_dram()


def _stretched(**long):
    """The small geometry with short bank timings and one long channel
    horizon, so that horizon can be the only live one at an idle jump.
    With LPDDR5X timing a live tFAW, tRRD or tWTR always comes with a
    live bank horizon, which would mask a missed check."""
    short = dict(
        tRCD=4, tRP=4, tRAS=8, tCL=6, tCWL=4, tWR=4, tCCD_S=1, tCCD_L=1,
        tRRD=1, tFAW=4, tWTR=1, burst_cycles=1,
    )
    timing = dataclasses.replace(_SMALL.timing, **{**short, **long})
    return dataclasses.replace(_SMALL, timing=timing)


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
    "long-tRRD": _stretched(tRRD=40),
    "long-tWTR": _stretched(tWTR=60),
    "long-tCCD": _stretched(tCCD_S=8, tCCD_L=30),
    "long-data-bus": _stretched(tCL=30, burst_cycles=4),
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
    ``("end", delta)`` for ``delta`` cycles after the cycle the stream
    so far leaves the command bus idle."""
    config = spec.config
    addrs, arrive, flags = [], [], []
    a0 = 0
    for i, pick in enumerate(picks):
        if i:
            gap = gaps[i - 1]
            if isinstance(gap, tuple):
                probe, _, _ = _run(
                    spec, np.array(addrs), np.array(arrive), np.array(flags, np.uint8)
                )
                a0 = max(ch._cmd_bus_next for ch in probe.channels) + gap[1]
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
        st.one_of(st.integers(0, 3000), st.sampled_from([("end", 0), ("end", -1)])),
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


def test_each_horizon_alone_keeps_the_memo_out():
    """``horizons_expired`` at its boundaries: every horizon exactly
    expired at ``a0`` passes, and any one of them a cycle later fails.
    The drain loop always passes ``cb == a0``, and a bank's ACT or
    column horizon is rarely the only live one at an idle jump, so the
    drain tests above seldom or never reach those terms."""
    t = _SMALL.timing
    a0 = 1000
    expired = dict(
        cb=a0,
        dnext=a0 + min(t.tCL, t.tCWL),
        lcc=a0 - t.tCCD_L,
        raw=a0 + t.tCL,
        lact=a0 - t.tRRD,
        hist=[a0 - t.tFAW - 3, a0 - t.tFAW],
        eact=[0, a0],
        epre=[0, a0],
        ecol=[0, a0],
    )
    assert horizons_expired(t, a0, **expired)
    for name, value in expired.items():
        live = [*value[:-1], value[-1] + 1] if isinstance(value, list) else value + 1
        assert not horizons_expired(t, a0, **{**expired, name: live}), name


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
    assert (memo.misses, memo.stores, memo.hits) == (2, 2, 2)
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
    assert memo.hits == hits


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
    assert (memo.misses, memo.hits) == (2, 0)


def test_hit_fills_the_tfaw_history_for_the_next_act():
    """``[Z, X]`` then ``[Z, X, Y]`` on one memo, under a long tFAW.
    Z leaves one ACT in the history; the second stream's X is a hit
    whose stored ACT tail fills that history, and Y, arriving at X's
    stored end, needs a PRE and an ACT that must wait exactly until
    the oldest of those ACTs leaves the tFAW window."""
    config = CONFIGS["long-tFAW"]
    spec = ControllerSpec(config)
    z = _address(config, 0, 0, 9, 0)
    burst = _spread_burst(config)
    gap = 5000
    prefix = _wide(spec, [[z], burst], gap)
    memo = SegmentMemo()
    first = _run(spec, *prefix, memo=memo)
    assert (memo.misses, memo.stores) == (1, 1)
    end = first[0].channels[0]._cmd_bus_next - gap

    y = _address(config, 0, 0, 5, 0)
    stream = _wide(spec, [[z], burst, [y]], gap)
    stream[1][-1] = gap + end
    _assert_same(_run(spec, *stream, memo=memo), _run(spec, *stream))
    assert memo.hits == 1
    recorded, _, _ = _run(spec, *stream, recording=True)
    acts = [
        c.cycle
        for c in recorded.channels[0].commands
        if c.kind is CommandKind.ACTIVATE
    ]
    assert acts[-1] == acts[-5] + config.timing.tFAW


@pytest.mark.parametrize("config", [c for c in CONFIGS if c.startswith("long")])
def test_burst_repeated_behind_its_own_live_horizon(config):
    """``[X, X wide, X tight]``: the third X has the second's key (same
    content, same open rows), but one long channel horizon of the
    second may still be live at its first arrival.  A missed horizon
    check turns that into a wrong memo hit."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        spec = ControllerSpec(CONFIGS[config], window=int(rng.choice([1, 4, 64])))
        # One bank per channel, so every row change needs a PRE and an
        # ACT on the bank the previous X just left.
        burst = [
            (
                int(rng.integers(0, 2)),
                0,
                int(rng.integers(0, 6)),
                int(rng.integers(0, 16)),
                bool(rng.random() < 0.4),
                0,
            )
            for _ in range(int(rng.integers(1, 12)))
        ]
        gaps = [5000, ("end", int(rng.integers(0, 64)))]
        stream = _stream(spec, [burst], [0, 0, 0], gaps)
        _assert_same(_run(spec, *stream, memo=SegmentMemo()), _run(spec, *stream))


def test_shifted_stream_is_served_from_the_memo_alone():
    """The same bursts shifted by a constant: every lookup of the
    second drain hits what the first stored, and its timings are the
    first drain's shifted."""
    spec = ControllerSpec(_SMALL)
    a = _spread_burst(_SMALL) + _spread_burst(_SMALL, channel=1)
    b = [_address(_SMALL, 0, bank, 5, col) for bank in (1, 3) for col in range(5)]
    addrs, arrive, flags = _wide(spec, [a, b, a, b, a])
    arrive += 5000  # the first burst arrives behind an idle jump too
    memo = SegmentMemo()
    first = _run(spec, addrs, arrive, flags, memo=memo)
    _assert_same(first, _run(spec, addrs, arrive, flags))
    lookups, stores = memo.hits + memo.misses, memo.stores
    assert memo.hits >= 1
    hits, misses = memo.hits, memo.misses
    shifted = _run(spec, addrs, arrive + 12345, flags, memo=memo)
    assert (memo.hits, memo.misses, memo.stores) == (hits + lookups, misses, stores)
    assert np.array_equal(
        shifted[2].complete_cycles, first[2].complete_cycles + 12345
    )
    _assert_same(shifted, _run(spec, addrs, arrive + 12345, flags))


def test_hit_past_int32_cycles():
    """Stored outcomes are int32 and relative to their arrival ``a0``;
    applying one at ``a0 >= 2**33`` must widen before adding.  A memo
    filled by the stream near cycle 0 serves the same stream shifted
    past ``2**33``, which equals a cold drain of it."""
    spec = ControllerSpec(_SMALL)
    a = _spread_burst(_SMALL) + _spread_burst(_SMALL, channel=1)
    b = [_address(_SMALL, 0, bank, 5, col) for bank in (1, 3) for col in range(5)]
    addrs, arrive, flags = _wide(spec, [a, b, a, b, a])
    flags[::3] = FLAG_WRITE
    arrive += 5000
    memo = SegmentMemo()
    _run(spec, addrs, arrive, flags, memo=memo)
    hits = memo.hits
    far = arrive + (1 << 33)
    shifted = _run(spec, addrs, far, flags, memo=memo)
    assert memo.hits > hits
    _assert_same(shifted, _run(spec, addrs, far, flags))
    assert shifted[2].complete_cycles.min() > 1 << 33


@pytest.mark.parametrize("variant", ["offsets", "write bits"])
def test_memo_key_covers_offsets_and_write_bits(variant):
    """``[A, A, B]`` where B has A's addresses but other arrival offsets
    or write bits.  A opens one row per bank, so B starts from the open
    rows the second A started from, and only the content tells their
    keys apart."""
    spec = ControllerSpec(_SMALL)
    burst = [_address(_SMALL, 0, bank, 3, col) for bank in (0, 1) for col in range(6)]
    addrs, arrive, flags = _wide(spec, [burst] * 3)
    tail = slice(2 * len(burst), None)
    if variant == "offsets":
        arrive[tail] += np.arange(len(burst)) * 9
    else:
        flags[tail] = FLAG_WRITE
    stream = (addrs, arrive, flags)
    memo = SegmentMemo()
    _assert_same(_run(spec, *stream, memo=memo), _run(spec, *stream))
    assert memo.hits == 0 and memo.stores >= 1


def test_memo_evicts_oldest_beyond_its_element_cap():
    spec = ControllerSpec(_SMALL)
    bursts = [
        [_address(_SMALL, 0, 0, row, col) for col in range(10)] for row in range(4)
    ]
    stream = _wide(spec, bursts)
    stream[1][:] += 5000
    memo = SegmentMemo(max_elements=25)
    _assert_same(_run(spec, *stream, memo=memo), _run(spec, *stream))
    assert (memo.misses, memo.stores) == (4, 4)
    assert len(memo) == 2 and memo.elements == 20


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
    assert (memo.misses, memo.stores, memo.hits) == (2, 1, 1)


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
    assert memo.stores > 0 and memo.hits > 0
    misses, stores = memo.misses, memo.stores
    # The second device of each spec is served from the memo alone.
    for spec, cold in zip(specs, colds):
        _assert_same(_run(spec, *stream, memo=memo), cold)
    assert (memo.misses, memo.stores) == (misses, stores)


def _memoized_reference(spec, stream):
    memo = SegmentMemo()
    reference = _run(spec, *stream, memo=memo)
    assert memo.hits > 0
    return reference


def test_record_commands_bypasses_the_memo():
    spec = ControllerSpec(_SMALL)
    stream = _wide(spec, [_spread_burst(_SMALL) + _spread_burst(_SMALL, 1)] * 4)
    reference = _memoized_reference(spec, stream)
    memo = SegmentMemo()
    recorded = _run(spec, *stream, memo=memo, recording=True)
    assert (memo.hits, memo.misses, memo.stores) == (0, 0, 0)
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
    assert (memo.hits, memo.misses, memo.stores) == (0, 0, 0)
    _assert_same((controller, stats, timings), reference)


def test_key_packing_geometry_checked_at_construction():
    """The memo key packs (flat bank, row, column, write bit) into one
    int64 per request; a geometry where that could overflow is refused
    when the controller is built, and the largest one that fits is not."""
    org = _SMALL.organization
    fits = (1 << 62) // (org.n_banks * org.columns_per_row)
    big = dataclasses.replace(
        _SMALL, organization=dataclasses.replace(org, n_rows=fits)
    )
    MemoryController(big)
    too_big = dataclasses.replace(
        _SMALL, organization=dataclasses.replace(org, n_rows=fits + 1)
    )
    with pytest.raises(ValueError, match="int64"):
        MemoryController(too_big)
