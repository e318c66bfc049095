"""Open-loop arrival semantics: equivalence, queueing stats, hygiene.

The controller honors ``Request.arrive_cycle``: requests become
schedulable only once channel time reaches their arrival, idle gaps
are skipped, and queue delays are aggregated into
:class:`ControllerStats`.  The indexed scheduler and the reference
oracle implement the same semantics and must agree bit-for-bit on
stats, per-request completion cycles, and full command streams for
nonzero and bursty arrivals too.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.dram.config import DRAMConfig, DRAMOrganization, LPDDR5X_8533
from repro.dram.controller import MemoryController, SchedulerPolicy
from repro.dram.reference import ReferenceMemoryController
from repro.dram.request import Request, RequestKind
from repro.dram.timing import DRAMTiming

SMALL_ORG = DRAMOrganization(
    n_channels=2,
    n_ranks=1,
    n_bankgroups=2,
    banks_per_group=2,
    n_rows=64,
    row_bytes=512,
    access_bytes=64,
)

# Spiky timing corner: distinct tCCD_S/tCCD_L, multi-cycle bursts,
# long write recovery (same corner the base equivalence suite uses).
SPIKY_TIMING = DRAMTiming(
    clock_hz=1e9,
    tRCD=5,
    tRP=4,
    tCL=7,
    tCWL=3,
    tRAS=11,
    tCCD_S=2,
    tCCD_L=5,
    tRRD=3,
    tFAW=20,
    tWR=9,
    tWTR=4,
    burst_cycles=2,
)

SMALL_CONFIG = DRAMConfig(organization=SMALL_ORG, timing=SPIKY_TIMING)


def make_trace(config, n, seed, arrival="poisson", mean_gap=12.0, write_fraction=0.3):
    rng = np.random.default_rng(seed)
    org = config.organization
    step = org.access_bytes
    blocks = rng.integers(0, org.total_capacity_bytes // step, size=n)
    writes = rng.random(n) < write_fraction
    if arrival == "poisson":
        cycles = np.floor(np.cumsum(rng.exponential(mean_gap, n))).astype(np.int64)
    elif arrival == "bursty":
        # Tight batches separated by long silences, with jitter that
        # makes some arrivals land mid-drain.
        cycles = (np.arange(n) // 16) * int(mean_gap * 40) + rng.integers(0, 7, size=n)
        cycles = np.sort(cycles)
    elif arrival == "zero":
        cycles = np.zeros(n, dtype=np.int64)
    else:
        raise ValueError(arrival)
    return [
        Request(
            addr=int(b) * step,
            kind=RequestKind.WRITE if w else RequestKind.READ,
            arrive_cycle=int(c),
        )
        for b, w, c in zip(blocks, writes, cycles)
    ]


def assert_equivalent(config, trace_kwargs, ctrl_kwargs):
    return assert_requests_equivalent(
        config, lambda: make_trace(config, **trace_kwargs), ctrl_kwargs
    )


def assert_requests_equivalent(config, build, ctrl_kwargs):
    """Indexed vs reference on the request list ``build()`` returns
    (called once per scheduler, so each gets fresh objects)."""
    fast = MemoryController(config, **ctrl_kwargs)
    ref = ReferenceMemoryController(config, **ctrl_kwargs)
    for c in fast.channels + ref.channels:
        c.record_commands = True
    fast_reqs = build()
    ref_reqs = build()

    fast_stats = fast.simulate(fast_reqs)
    ref_stats = ref.simulate(ref_reqs)

    assert dataclasses.asdict(fast_stats) == dataclasses.asdict(ref_stats)
    for i, (a, b) in enumerate(zip(fast_reqs, ref_reqs)):
        assert a.complete_cycle == b.complete_cycle, f"request {i}"
        assert a.first_command_cycle == b.first_command_cycle, f"request {i}"
        assert a.row_hit == b.row_hit, f"request {i}"
    for cf, cr in zip(fast.channels, ref.channels):
        assert cf.commands == cr.commands
        assert cf._cmd_bus_next == cr._cmd_bus_next
        assert cf._data_bus_next == cr._data_bus_next
    return fast_stats


@pytest.mark.parametrize("policy", [SchedulerPolicy.FR_FCFS, SchedulerPolicy.FCFS])
@pytest.mark.parametrize("window", [1, 8, 64])
@pytest.mark.parametrize("arrival", ["poisson", "bursty"])
def test_arrival_equivalence_small_config(policy, window, arrival):
    assert_equivalent(
        SMALL_CONFIG,
        dict(n=300, seed=17, arrival=arrival),
        dict(policy=policy, window=window),
    )


@pytest.mark.parametrize("arrival", ["poisson", "bursty"])
@pytest.mark.parametrize("seed", range(3))
def test_arrival_equivalence_paper_config(arrival, seed):
    assert_equivalent(
        LPDDR5X_8533,
        dict(n=250, seed=seed, arrival=arrival, mean_gap=6.0),
        dict(window=64),
    )


@pytest.mark.parametrize("cap", [1, 3, 512])
def test_arrival_equivalence_starvation_cap(cap):
    assert_equivalent(
        SMALL_CONFIG,
        dict(n=250, seed=29, arrival="bursty", write_fraction=0.5),
        dict(window=16, starvation_cap=cap),
    )


def requests_at(config, spec):
    """Requests from ``(bankgroup, bank, row, column, arrive, write)``
    tuples, all on channel 0 rank 0 of ``config``."""
    mapper = MemoryController(config).mapper
    return [
        Request(
            addr=mapper.encode(0, 0, bg, ba, row, co),
            kind=RequestKind.WRITE if w else RequestKind.READ,
            arrive_cycle=a,
        )
        for bg, ba, row, co, a, w in spec
    ]


def streak_spec(seed, waves=6, gap=30):
    """Waves of same-row streaks over all four banks of a channel, the
    streaks interleaved so column commands alternate bank groups.  A
    wave's rows often differ from the previous wave's, so once the
    streaks drain the ACT/PRE candidates refill; while they run every
    bank holds a column candidate and the ACT/PRE heaps sit empty."""
    rng = np.random.default_rng(seed)
    spec = []
    for w in range(waves):
        base = w * gap + int(rng.integers(0, gap // 2))
        streaks = [
            [(bg, ba, int(rng.integers(0, 3)))] * int(rng.integers(2, 7))
            for bg in (0, 1)
            for ba in (0, 1)
        ]
        k = 0
        while any(streaks):
            for streak in streaks:
                if streak:
                    bg, ba, r = streak.pop()
                    spec.append(
                        (bg, ba, r, k % 8, base + k // 3, bool(rng.random() < 0.3))
                    )
                    k += 1
    return spec


def class_switch_spec(seed, n=160, switch_every=4):
    """Banks (0, 1) and (1, 1) stream hits to one row while banks
    (0, 0) and (1, 0) switch rows every ``switch_every``-th request.
    With the streaming banks open and busy, a switching bank's PRE
    waits (tRAS, write recovery) with no ACT candidate anywhere, so
    channel time moves the ACT floor past its estimate; the ACT that
    follows then waits (tRP, tRRD, tFAW) while the PRE heaps are
    empty.  Column candidates decide alone in between."""
    rng = np.random.default_rng(seed)
    spec = []
    for k in range(n):
        arrive = 2 * k + int(rng.integers(0, 3))
        write = bool(rng.random() < 0.3)
        if k % switch_every == switch_every - 1:
            bg, ba, r = int(rng.integers(0, 2)), 0, int(rng.integers(0, 4))
        else:
            bg, ba, r = k % 2, 1, 7
        spec.append((bg, ba, r, k % 8, arrive, write))
    spec.sort(key=lambda e: e[4])
    return spec


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("switch_every", [3, 6])
@pytest.mark.parametrize("window", [4, 16, 64])
def test_act_and_pre_heaps_drain_one_class_at_a_time(seed, switch_every, window):
    """Only PRE candidates filed while the ACT floor moves, and only
    ACT candidates filed while the command bus (the PRE floor) moves:
    each class's floor, migration and winner run only while its own
    heaps hold entries, so each must still be exact when the other
    class sits empty."""
    spec = class_switch_spec(seed, switch_every=switch_every)
    assert_requests_equivalent(
        SMALL_CONFIG, lambda: requests_at(SMALL_CONFIG, spec), dict(window=window)
    )


@pytest.mark.parametrize("arrive", [3, 6, 7, 9, 11, 14])
def test_open_row_hit_admitted_to_bank_waiting_to_precharge(arrive):
    """Bank (0, 0) serves row 1, then waits (tRAS) to precharge for the
    row-2 request behind it; a row-1 request admitted meanwhile must
    turn the bank's candidate from PRE back into a column command."""
    spec = [
        (0, 0, 1, 0, 0, False),
        (0, 0, 2, 0, 0, False),
        (1, 1, 3, 0, 1, True),
        (1, 1, 4, 0, 2, False),
        (0, 0, 1, 1, arrive, False),
        (1, 1, 3, 1, arrive + 1, False),
    ]
    for window in (4, 64):
        assert_requests_equivalent(
            SMALL_CONFIG, lambda: requests_at(SMALL_CONFIG, spec), dict(window=window)
        )


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("window", [4, 8, 64])
def test_same_row_streaks_empty_and_refill_heaps(seed, window):
    spec = streak_spec(seed)
    assert_requests_equivalent(
        SMALL_CONFIG, lambda: requests_at(SMALL_CONFIG, spec), dict(window=window)
    )


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "ctrl_kwargs",
    [
        dict(policy=SchedulerPolicy.FCFS, window=16),
        dict(starvation_cap=1, window=16),
        dict(starvation_cap=2, window=8),
    ],
    ids=["fcfs", "cap1", "cap2"],
)
def test_head_path_retires_column_within_a_streak(seed, ctrl_kwargs):
    """The head path (FCFS, or FR-FCFS past its starvation cap) issues
    the head's column command while younger hits to the same row wait;
    the FR-FCFS arbitration that follows must see the next of them."""
    spec = streak_spec(seed, waves=4, gap=12)
    assert_requests_equivalent(
        SMALL_CONFIG, lambda: requests_at(SMALL_CONFIG, spec), ctrl_kwargs
    )


def test_zero_arrivals_match_default_trace():
    """An explicit all-zero arrival trace must produce exactly the same
    schedule, stats, and completion cycles as the legacy no-arrival
    path (bit-identical batch behaviour)."""
    ctrl_a = MemoryController(SMALL_CONFIG)
    ctrl_b = MemoryController(SMALL_CONFIG)
    for c in ctrl_a.channels + ctrl_b.channels:
        c.record_commands = True
    with_zero = make_trace(SMALL_CONFIG, n=300, seed=5, arrival="zero")
    plain = [Request(addr=r.addr, kind=r.kind) for r in with_zero]
    stats_a = ctrl_a.simulate(with_zero)
    stats_b = ctrl_b.simulate(plain)
    assert dataclasses.asdict(stats_a) == dataclasses.asdict(stats_b)
    assert [r.complete_cycle for r in with_zero] == [r.complete_cycle for r in plain]
    for ca, cb in zip(ctrl_a.channels, ctrl_b.channels):
        assert ca.commands == cb.commands
    assert all(v == 0 for v in stats_a.idle_channel_cycles.values())


def test_sparse_arrivals_have_zero_queue_delay():
    """Property: when inter-arrival gaps dwarf service time, every
    request is served the cycle it arrives -- queue delay 0."""
    ctrl = MemoryController(LPDDR5X_8533)
    rng = np.random.default_rng(11)
    n = 200
    gap = 2000  # >> tRC + tCL + burst at the paper timing
    blocks = rng.integers(
        0, LPDDR5X_8533.organization.total_capacity_bytes // 64, size=n
    )
    reqs = [
        Request(addr=int(b) * 64, kind=RequestKind.READ, arrive_cycle=i * gap)
        for i, b in enumerate(blocks)
    ]
    stats = ctrl.simulate(reqs)
    assert all(r.queue_delay() == 0 for r in reqs)
    assert stats.queue_delay_mean == 0.0
    assert stats.queue_delay_p99 == 0.0
    assert stats.queue_delay_max == 0
    assert sum(stats.idle_channel_cycles.values()) > 0


def test_bursty_arrivals_have_nonzero_queue_delay():
    ctrl = MemoryController(SMALL_CONFIG)
    reqs = make_trace(SMALL_CONFIG, n=400, seed=3, arrival="bursty")
    stats = ctrl.simulate(reqs)
    assert stats.queue_delay_p99 > 0
    assert stats.queue_delay_max >= stats.queue_delay_p99
    assert stats.queue_delay_mean > 0
    # Bursts are separated by silences, so channels also idle.
    assert sum(stats.idle_channel_cycles.values()) > 0


def test_queue_delay_and_latency_ordering():
    """first command >= arrival, completion > first command."""
    ctrl = MemoryController(SMALL_CONFIG)
    reqs = make_trace(SMALL_CONFIG, n=300, seed=41, arrival="poisson")
    ctrl.simulate(reqs)
    for r in reqs:
        assert r.first_command_cycle >= r.arrive_cycle
        assert r.complete_cycle > r.first_command_cycle
        assert r.latency() >= r.queue_delay()


def test_arrival_order_beats_input_order():
    """Queues are ordered by arrival: a late-submitted request with an
    early arrive_cycle is served like an early one."""
    ctrl = MemoryController(SMALL_CONFIG, policy=SchedulerPolicy.FCFS)
    # Two requests to the same bank/row region; input order reversed
    # relative to arrival order.
    late = Request(addr=0, kind=RequestKind.READ, arrive_cycle=500)
    early = Request(addr=64, kind=RequestKind.READ, arrive_cycle=0)
    ctrl.simulate([late, early])
    assert early.first_command_cycle < late.first_command_cycle


def test_negative_arrival_rejected():
    bad = [Request(addr=0, kind=RequestKind.READ, arrive_cycle=-1)]
    with pytest.raises(ValueError, match="arrive_cycle"):
        MemoryController(SMALL_CONFIG).simulate(bad)
    bad2 = [Request(addr=0, kind=RequestKind.READ, arrive_cycle=-1)]
    with pytest.raises(ValueError, match="arrive_cycle"):
        ReferenceMemoryController(SMALL_CONFIG).simulate(bad2)


def test_resimulating_same_requests_resets_stale_state():
    """Regression: re-simulating the same Request list must not reuse
    prior complete_cycle/row_hit/decoded values."""
    reqs = make_trace(SMALL_CONFIG, n=200, seed=13, arrival="zero")
    first = MemoryController(SMALL_CONFIG).simulate(reqs)
    first_cycles = [r.complete_cycle for r in reqs]
    second = MemoryController(SMALL_CONFIG).simulate(reqs)
    assert dataclasses.asdict(first) == dataclasses.asdict(second)
    assert [r.complete_cycle for r in reqs] == first_cycles
    # Same for the reference oracle.
    ref_reqs = make_trace(SMALL_CONFIG, n=200, seed=13, arrival="zero")
    ref_first = ReferenceMemoryController(SMALL_CONFIG).simulate(ref_reqs)
    ref_second = ReferenceMemoryController(SMALL_CONFIG).simulate(ref_reqs)
    assert dataclasses.asdict(ref_first) == dataclasses.asdict(ref_second)
    assert dataclasses.asdict(first) == dataclasses.asdict(ref_first)


def test_channel_cycle_dicts_cover_idle_channels():
    """Channels that received no requests still get (0) entries, so
    utilization reports never KeyError."""
    org = LPDDR5X_8533.organization
    for ctrl in (
        MemoryController(LPDDR5X_8533),
        ReferenceMemoryController(LPDDR5X_8533),
    ):
        # All requests land on one channel (consecutive rows, channel 0).
        reqs = [
            Request(addr=ctrl.mapper.encode(0, 0, 0, 0, row=0, column=i % 8),
                    kind=RequestKind.READ)
            for i in range(8)
        ]
        stats = ctrl.simulate(reqs)
        assert set(stats.busy_channel_cycles) == set(range(org.n_channels))
        assert set(stats.idle_channel_cycles) == set(range(org.n_channels))
        busy = [v for v in stats.busy_channel_cycles.values() if v > 0]
        assert len(busy) == 1  # only the targeted channel worked

    empty_stats = MemoryController(LPDDR5X_8533).simulate([])
    assert set(empty_stats.busy_channel_cycles) == set(range(org.n_channels))
    assert all(v == 0 for v in empty_stats.busy_channel_cycles.values())
