"""ShardedDramBackend: pass-through identity, merged stats, transfers."""

from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.cluster.backend import ShardedDramBackend
from repro.core.strategies import Scheme
from repro.cosim import CosimDriver, ExpertReplayPlanner, small_cosim_dram
from repro.cosim.driver import segment_starts
from repro.cosim.replay import ReplayTrace
from repro.dram.busy_period import SegmentMemo
from repro.dram.controller import MemoryController
from repro.serving.simulator import CostModel


EXPERT_BYTES = 1 << 17


@pytest.fixture(scope="module")
def planner():
    return ExpertReplayPlanner(
        n_experts=8, top_k=2, n_moe_layers=2,
        dram_config=small_cosim_dram(), bytes_per_token=4096,
        max_blocks_per_request=256, expert_bytes=EXPERT_BYTES, seed=3,
    )


@pytest.fixture(scope="module")
def trace_arrays(planner):
    """A trace spanning the expert regions replay traffic hits
    (region id = layer * n_experts + expert)."""
    step = planner.config.organization.access_bytes
    rng = np.random.default_rng(1)
    n = 400
    region = rng.integers(0, planner.n_experts * planner.n_moe_layers, size=n)
    offset = rng.integers(0, EXPERT_BYTES // step, size=n)
    addrs = (region * EXPERT_BYTES + offset * step).astype(np.int64)
    arrive = np.sort(rng.integers(0, 5000, size=n)).astype(np.int64)
    flags = np.zeros(n, dtype=np.uint8)
    request_ids = rng.integers(0, 12, size=n).astype(np.int64)
    return addrs, arrive, flags, request_ids


@dataclass
class FakeTrace:
    addrs: np.ndarray
    request_ids: np.ndarray
    tokens_by_request: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.addrs)


def test_single_device_is_controller_passthrough(trace_arrays):
    addrs, arrive, flags, request_ids = trace_arrays
    ref_stats, ref_timings = MemoryController(
        small_cosim_dram(), window=64
    ).simulate_arrays(addrs, arrive, flags, detail=True)
    backend = ShardedDramBackend(small_cosim_dram(), n_devices=1)
    stats, timings = backend.simulate(addrs, arrive, flags, request_ids)
    assert stats == ref_stats
    assert np.array_equal(timings.complete_cycles, ref_timings.complete_cycles)
    assert np.array_equal(timings.queue_delays, ref_timings.queue_delays)
    assert backend.transfer_seconds(
        FakeTrace(addrs, request_ids)
    ) == {}


def test_multi_device_merges_counters(planner, trace_arrays):
    addrs, arrive, flags, request_ids = trace_arrays
    backend = ShardedDramBackend(
        small_cosim_dram(), n_devices=2, policy="expert_parallel",
        planner=planner,
    )
    device = backend.device_map(addrs, request_ids)
    assert set(np.unique(device)) == {0, 1}
    stats, timings = backend.simulate(addrs, arrive, flags, request_ids)
    # Every element was simulated exactly once, somewhere.
    assert stats.requests == len(addrs)
    assert stats.reads == len(addrs)
    # Devices run concurrently: the merged span is the max, so it is
    # no longer than a single controller serving the full trace.
    ref_stats, _ = MemoryController(
        small_cosim_dram(), window=64
    ).simulate_arrays(addrs, arrive, flags, detail=True)
    assert stats.total_cycles <= ref_stats.total_cycles
    # Both devices' channels are accounted for (re-keyed dev*C + ch).
    n_channels = small_cosim_dram().organization.n_channels
    assert len(stats.busy_channel_cycles) == 2 * n_channels
    assert (timings.complete_cycles > 0).all()
    # Queue percentiles are recomputed over the merged delays.
    assert stats.queue_delay_p99 >= stats.queue_delay_mean >= 0.0


@pytest.mark.parametrize("n_devices", [1, 2])
def test_simulate_with_memo_is_exact(planner, trace_arrays, n_devices):
    """Both the 1-device pass-through and the per-device path take the
    busy-period memo; results equal the memo-less drain exactly."""
    addrs, _, flags, request_ids = trace_arrays
    # Each request's elements arrive together, the requests one after
    # another with idle gaps, the whole round repeated: the same bursts
    # reach each device's idle channels again and again.
    order = np.argsort(request_ids, kind="stable")
    rounds = 4
    ids = np.tile(request_ids[order], rounds)
    burst = segment_starts(ids)
    lengths = np.diff(np.append(burst, len(ids)))
    arrive = np.repeat(np.arange(len(burst)) * 3000, lengths).astype(np.int64)
    stream = (np.tile(addrs[order], rounds), arrive, np.tile(flags, rounds))
    backend = ShardedDramBackend(
        small_cosim_dram(), n_devices=n_devices, policy="expert_parallel",
        planner=planner,
    )
    memo = SegmentMemo()
    stats, timings = backend.simulate(*stream, ids, memo=memo)
    ref_stats, ref_timings = backend.simulate(*stream, ids)
    assert memo.hits > 0
    assert stats == ref_stats
    for name in ("first_command_cycles", "complete_cycles", "queue_delays", "row_hits"):
        assert np.array_equal(getattr(timings, name), getattr(ref_timings, name))


@pytest.mark.parametrize("n_devices", [1, 2])
def test_returned_timings_own_their_memory(planner, trace_arrays, n_devices):
    """Two successive ``simulate`` calls (the 1-device pass-through is
    ``simulate_arrays(detail=True)``) return writable arrays of their
    own: writing into the first result leaves the second unchanged."""
    addrs, arrive, flags, request_ids = trace_arrays
    backend = ShardedDramBackend(
        small_cosim_dram(), n_devices=n_devices, policy="expert_parallel",
        planner=planner,
    )
    memo = SegmentMemo()
    _, first = backend.simulate(addrs, arrive, flags, request_ids, memo=memo)
    _, second = backend.simulate(addrs, arrive, flags, request_ids, memo=memo)
    names = ("first_command_cycles", "complete_cycles", "queue_delays", "row_hits")
    dtypes = (np.int64, np.int64, np.int64, np.bool_)
    want = {name: getattr(second, name).copy() for name in names}
    for name, dtype in zip(names, dtypes):
        a, b = getattr(first, name), getattr(second, name)
        assert a.dtype == dtype and b.dtype == dtype, name
        assert a.flags.writeable and b.flags.writeable, name
        assert np.array_equal(a, b), name
        a[:] = ~a if dtype == np.bool_ else a + 1
    for name in names:
        assert np.array_equal(getattr(second, name), want[name]), name


@pytest.mark.parametrize("n_devices", [1, 2])
def test_isolation_baselines_equal_a_cold_drain(planner, trace_arrays, n_devices):
    """The driver's isolation baselines drain the serialized stream
    through ``simulate`` with its memo: they equal a cold, memo-less
    drain of that stream, and a second call is served from the memo."""
    addrs, arrive, flags, request_ids = trace_arrays
    order = np.argsort(request_ids, kind="stable")
    trace = ReplayTrace(
        addrs=addrs[order],
        arrive_cycles=arrive[order],
        flags=flags[order],
        request_ids=request_ids[order],
        tokens_by_request={},
    )
    backend = ShardedDramBackend(
        small_cosim_dram(), n_devices=n_devices, policy="expert_parallel",
        planner=planner,
    )
    cost = CostModel(encode_seconds_per_token=2e-9, decode_seconds_per_token=2e-8)
    driver, serializer = (
        CosimDriver(cost, Scheme.MD_LB, planner, backend=backend) for _ in range(2)
    )

    def cold(offsets):
        serial, _, starts = serializer._isolated_completions(trace, offsets)
        _, timings = backend.simulate(
            trace.addrs, serial, trace.flags, trace.request_ids
        )
        return serial, timings.complete_cycles, starts

    serial, complete, _ = cold(offsets=True)
    latencies = complete - serial
    serial, complete, starts = cold(offsets=False)
    makespans = {
        int(trace.request_ids[lo]): int(complete[lo:hi].max() - serial[lo])
        for lo, hi in zip(starts, np.append(starts[1:], len(trace)))
    }
    memo = driver.drain_memo
    for _ in range(2):  # cold, then served from the driver's memo
        hits = memo.hits
        assert np.array_equal(driver._isolated_element_latencies(trace), latencies)
        assert driver._isolated_makespans(trace) == makespans
    assert memo.hits > hits


def test_multi_device_needs_planner_and_request_ids(planner, trace_arrays):
    addrs, arrive, flags, _ = trace_arrays
    with pytest.raises(ValueError, match="planner"):
        ShardedDramBackend(small_cosim_dram(), n_devices=2)
    backend = ShardedDramBackend(
        small_cosim_dram(), n_devices=2, policy="replicated", planner=planner
    )
    with pytest.raises(ValueError, match="request_ids"):
        backend.simulate(addrs, arrive, flags)


def test_transfer_seconds_policies(planner, trace_arrays):
    addrs, _, _, request_ids = trace_arrays
    tokens = {int(r): 32 for r in np.unique(request_ids)}
    trace = FakeTrace(addrs, request_ids, tokens)

    def total(policy, abpt, hot_fraction=0.25):
        return ShardedDramBackend(
            small_cosim_dram(), n_devices=2, policy=policy, planner=planner,
            activation_bytes_per_token=abpt, hot_fraction=hot_fraction,
        ).transfer_seconds(trace)

    # Nothing crosses a link: replicated placement, or a free payload.
    assert total("replicated", 512) == {}
    assert total("expert_parallel", 0) == {}
    ep = total("expert_parallel", 512)
    assert ep and all(v > 0 for v in ep.values())
    # Keeping the hot experts home strictly reduces shipped traffic.
    hc = total("hot_cold", 512)
    assert sum(hc.values()) < sum(ep.values())
    # Double the payload, double every round trip (latency term aside,
    # transfers scale with bytes).
    ep2 = total("expert_parallel", 1024)
    for rid, seconds in ep.items():
        assert ep2[rid] > seconds
