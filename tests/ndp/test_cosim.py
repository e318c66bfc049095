"""DRAM <-> NDP co-simulation: the bandwidth abstraction is honest."""

import numpy as np
import pytest

from repro.dram.request import FLAG_WRITE
from repro.hw.specs import MONDE_DEVICE
from repro.ndp.cosim import GEMMCosim
from repro.ndp.engine import NDPGemmEngine

#: (dram_cycles, dram_bytes) per GEMM shape, recorded from the
#: Request-object replay this column form replaced; must not move.
PINNED_RUNS = {
    (4, 1024, 512): (2151, 1073152),
    (1, 512, 256): (556, 264320),
    (4, 768, 512): (1617, 804864),
    (8, 512, 300): (698, 325120),
}


@pytest.fixture(scope="module")
def cosim():
    engine = NDPGemmEngine(MONDE_DEVICE.ndp, MONDE_DEVICE.effective_bandwidth)
    return GEMMCosim(engine)


def test_request_stream_covers_all_traffic(cosim):
    m, n, k = 4, 512, 256
    addrs, flags = cosim.request_stream(m, n, k)
    assert addrs.dtype == np.int64 and flags.dtype == np.uint8
    assert addrs.shape == flags.shape
    total = len(addrs) * 64
    expected = cosim.engine.tiler.total_traffic_bytes(m, n, k)
    # Block-rounding can only add partial-block padding.
    assert expected <= total <= expected * 1.1


def test_weights_read_activations_mixed(cosim):
    _, flags = cosim.request_stream(4, 512, 256)
    writes = int(np.count_nonzero(flags & FLAG_WRITE))
    reads = len(flags) - writes
    assert reads > writes > 0


def test_streams_respect_bank_partition(cosim):
    """Weight requests decode to even banks, activation/output to odd:
    even banks see only reads, every write lands in an odd bank, and
    the even-bank requests are exactly the weight blocks."""
    m, n, k = 4, 256, 128
    addrs, flags = cosim.request_stream(m, n, k)
    from repro.dram.address import AddressMapper
    from repro.dram.config import LPDDR5X_8533

    even = AddressMapper(LPDDR5X_8533.organization).decode_batch(addrs).bank % 2 == 0
    write = (flags & FLAG_WRITE) != 0
    assert not write[even].any()
    assert (~even[write]).all()
    tiles = cosim.engine.tiler.tiles(m, n, k)
    weight_blocks = sum(-(-t.wgt_bytes // 64) for t in tiles)
    assert int(even.sum()) == weight_blocks == 1024
    assert len(addrs) == 1072


def test_cold_expert_estimate_within_tolerance(cosim):
    """For a cold-expert GEMM the engine's effective-bandwidth model
    must agree with the cycle-level replay to within 25%."""
    result = cosim.run(4, 1024, 512)
    assert abs(result.relative_error) < 0.25
    assert (result.dram_cycles, result.dram_bytes) == PINNED_RUNS[(4, 1024, 512)]


@pytest.mark.parametrize("shape", [(1, 512, 256), (4, 768, 512), (8, 512, 300)])
def test_estimates_track_cycle_sim_across_shapes(cosim, shape):
    result = cosim.run(*shape)
    assert abs(result.relative_error) < 0.35
    assert result.dram_cycles > 0
    assert (result.dram_cycles, result.dram_bytes) == PINNED_RUNS[shape]
