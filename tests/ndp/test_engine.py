"""NDP GEMM engine: cycle model + functional execution."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.specs import MONDE_DEVICE
from repro.ndp.engine import GEMMExecution, NDPGemmEngine


@pytest.fixture(scope="module")
def engine() -> NDPGemmEngine:
    return NDPGemmEngine(MONDE_DEVICE.ndp, MONDE_DEVICE.effective_bandwidth)


def test_zero_gemm_is_free(engine):
    ex = engine.gemm_execution(0, 10, 10)
    assert ex.seconds == 0.0 and ex.n_tiles == 0


def test_grouped_matches_tile_stream(engine):
    """The closed-form walk must agree exactly with iterating tiles."""
    for m, n, k in [(1, 256, 64), (4, 512, 100), (7, 300, 129), (33, 768, 200)]:
        comp = mem = pipe = traffic = 0
        first = None
        for t in engine.tiler.tiles(m, n, k):
            c = engine.cluster.stripe_cycles(t.k)
            b = t.act_bytes + t.wgt_bytes + t.out_bytes
            mc = int(np.ceil(b / engine.bytes_per_cycle))
            if first is None:
                first = mc
            comp += c
            mem += mc
            pipe += max(c, mc)
            traffic += b
        ex = engine.gemm_execution(m, n, k)
        assert ex.compute_cycles == comp
        assert ex.memory_cycles == mem
        assert ex.pipelined_cycles == first + pipe
        assert ex.dram_bytes == traffic


def _tile_by_tile(engine: NDPGemmEngine, m: int, n: int, k: int) -> GEMMExecution:
    """The oracle: cost ``engine.tiler.tiles`` one tile at a time."""
    comp = mem = pipe = traffic = n_tiles = first = 0
    for t in engine.tiler.tiles(m, n, k):
        c = engine.cluster.stripe_cycles(t.k)
        b = t.act_bytes + t.wgt_bytes + t.out_bytes
        mc = int(np.ceil(b / engine.bytes_per_cycle))
        if n_tiles == 0:
            first = mc
        comp += c
        mem += mc
        pipe += max(c, mc)
        traffic += b
        n_tiles += 1
    total = first + pipe
    seconds = total / engine.spec.clock_hz
    return GEMMExecution(m, n, k, n_tiles, comp, mem, total, traffic, seconds)


def _near(unit: int):
    """Sizes on and either side of multiples of ``unit``, plus any
    size up to three units and a bit."""
    edges = [1, unit - 1, unit, unit + 1, 2 * unit, 2 * unit + 1]
    return st.one_of(
        st.sampled_from([e for e in edges if e >= 1]), st.integers(1, 3 * unit + 1)
    )


@st.composite
def _engine_and_shape(draw):
    if draw(st.booleans()):
        engine = NDPGemmEngine(MONDE_DEVICE.ndp, MONDE_DEVICE.effective_bandwidth)
    else:
        spec = replace(
            MONDE_DEVICE.ndp,
            n_arrays=draw(st.integers(1, 64)),
            array_rows=draw(st.integers(1, 8)),
            array_cols=draw(st.integers(1, 8)),
            exp_buffer_bytes=draw(st.integers(1, 128 * 1024)),
        )
        bandwidth = draw(st.floats(1e8, 2e12, allow_nan=False, allow_infinity=False))
        dtype_bytes = draw(st.sampled_from([1, 2, 3, 4]))
        engine = NDPGemmEngine(spec, bandwidth, dtype_bytes=dtype_bytes)
    tiler = engine.tiler
    m = draw(_near(tiler.tile_rows))
    n = draw(_near(tiler.tile_cols))
    k = draw(_near(tiler.k_chunk(min(n, tiler.tile_cols))))
    return engine, m, n, k


@settings(max_examples=300, deadline=None)
@given(case=_engine_and_shape())
def test_closed_form_equals_tile_stream_property(case):
    """Every field, ``seconds`` included, is exactly the tile-by-tile
    cost, across geometries and shapes straddling every tile and
    k-chunk boundary."""
    engine, m, n, k = case
    assert engine.gemm_execution(m, n, k) == _tile_by_tile(engine, m, n, k)


@pytest.mark.parametrize(
    "m, n, k",
    [(1, 256, 88), (1, 256, 89), (4, 100, 1), (1, 255, 450), (5, 513, 177)],
)
def test_closed_form_equals_tile_stream_at_chunk_edges(engine, m, n, k):
    """The default design point's chunk is 88 deep at full width:
    ``k == chunk``, ``chunk + 1``, ``n < tile_cols`` and ``m == 1``."""
    assert engine.tiler.k_chunk(engine.tiler.tile_cols) == 88
    assert engine.gemm_execution(m, n, k) == _tile_by_tile(engine, m, n, k)


def test_repeated_shape_returns_cached_object(engine):
    first = engine.gemm_execution(3, 2048, 8192)
    assert engine.gemm_execution(3, 2048, 8192) is first


def test_engines_do_not_share_memo_entries():
    slow = NDPGemmEngine(MONDE_DEVICE.ndp, MONDE_DEVICE.effective_bandwidth)
    fast = NDPGemmEngine(MONDE_DEVICE.ndp, 2 * MONDE_DEVICE.effective_bandwidth)
    a = slow.gemm_execution(4, 2048, 8192)
    b = fast.gemm_execution(4, 2048, 8192)
    assert a.memory_cycles > b.memory_cycles
    assert a.seconds > b.seconds
    assert slow.gemm_execution(4, 2048, 8192) is a


@pytest.mark.parametrize("shape", [(0, 10, 10), (3, 0, 7), (3, 7, 0), (0, 0, 0)])
def test_zero_dimension_is_all_zero(engine, shape):
    for _ in range(2):  # computed, then served from the memo
        assert engine.gemm_execution(*shape) == GEMMExecution(
            *shape, 0, 0, 0, 0, 0, 0.0
        )


@pytest.mark.parametrize("shape", [(1, 256, 64), (7, 300, 129), (33, 768, 200)])
def test_tiler_counts_match_execution(engine, shape):
    ex = engine.gemm_execution(*shape)
    assert engine.tiler.count_tiles(*shape) == ex.n_tiles
    assert engine.tiler.total_traffic_bytes(*shape) == ex.dram_bytes


@pytest.mark.parametrize("shape", [(-1, 256, 64), (4, -1, 64), (4, 256, -2)])
def test_negative_gemm_dims_rejected(shape):
    engine = NDPGemmEngine(MONDE_DEVICE.ndp, MONDE_DEVICE.effective_bandwidth)
    for _ in range(2):  # an invalid shape is never cached
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            engine.gemm_execution(*shape)
    assert shape not in engine._memo


def test_negative_tokens_rejected(engine):
    with pytest.raises(ValueError, match="-3"):
        engine.expert_ffn_time(-3, 2048, 8192)


def test_cold_expert_is_bandwidth_bound(engine):
    """Cold experts (M <= 4) stream the weights once: time ~=
    expert_bytes / device bandwidth (the Eq. 4 approximation)."""
    ex1 = engine.gemm_execution(1, 8192, 2048)
    ex2 = engine.gemm_execution(4, 8192, 2048)
    stream = 2 * 8192 * 2048 / MONDE_DEVICE.effective_bandwidth
    assert ex1.seconds == pytest.approx(stream, rel=0.12)
    assert ex2.seconds == pytest.approx(stream, rel=0.12)
    # Compute and memory are within the rate-matched band; the time is
    # set by the weight stream, not by MAC throughput.
    assert ex1.compute_cycles < 1.1 * ex1.memory_cycles


def test_rate_matched_design_point(engine):
    """Section 3.1's intent: at M = 4 the 4x256 stripes keep both the
    MAC arrays and the DRAM stream near-fully utilized."""
    ex = engine.gemm_execution(4, 8192, 2048)
    ratio = ex.compute_cycles / ex.memory_cycles
    assert 0.5 < ratio < 1.5


def test_hot_expert_is_compute_bound(engine):
    ex = engine.gemm_execution(2048, 8192, 2048)
    assert not ex.is_memory_bound
    assert ex.achieved_flops < MONDE_DEVICE.ndp.peak_flops


def test_monotonic_in_tokens(engine):
    times = [
        engine.expert_ffn_time(t, 2048, 8192) for t in (1, 4, 16, 64, 256, 2048)
    ]
    for a, b in zip(times, times[1:]):
        assert b >= a


def test_expert_batch_time_sums_actives(engine):
    counts = [3, 0, 5, 0]
    expected = engine.expert_ffn_time(3, 1024, 4096) + engine.expert_ffn_time(
        5, 1024, 4096
    )
    assert engine.expert_batch_time(counts, 1024, 4096) == pytest.approx(expected)


def test_run_gemm_functional(engine):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 40))
    b = rng.normal(size=(40, 300))
    out, ex = engine.run_gemm(a, b)
    np.testing.assert_allclose(out, a @ b)
    assert ex.m == 6 and ex.n == 300 and ex.k == 40


def test_run_gemm_fused_relu(engine):
    rng = np.random.default_rng(1)
    a = rng.normal(size=(2, 8))
    b = rng.normal(size=(8, 16))
    out, _ = engine.run_gemm(a, b, activation="relu")
    np.testing.assert_allclose(out, np.maximum(a @ b, 0))


def test_run_gemm_fused_gelu(engine):
    from repro.moe.functional import gelu

    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 8))
    b = rng.normal(size=(8, 16))
    out, _ = engine.run_gemm(a, b, activation="gelu")
    np.testing.assert_allclose(out, gelu(a @ b))


def test_run_gemm_rejects_bad_shapes(engine):
    with pytest.raises(ValueError):
        engine.run_gemm(np.zeros((2, 3)), np.zeros((4, 5)))


def test_bad_bandwidth_rejected():
    with pytest.raises(ValueError):
        NDPGemmEngine(MONDE_DEVICE.ndp, 0)


def test_paper_fig7b_bandwidth_scaling():
    """Doubling device bandwidth (with rate-matched compute) roughly
    halves cold-expert latency -- the Fig. 7(b) mechanism."""
    base = NDPGemmEngine(MONDE_DEVICE.ndp, MONDE_DEVICE.effective_bandwidth)
    fast_spec = MONDE_DEVICE.scaled_bandwidth(2.0)
    fast = NDPGemmEngine(fast_spec.ndp, fast_spec.effective_bandwidth)
    t_base = base.expert_ffn_time(4, 2048, 8192)
    t_fast = fast.expert_ffn_time(4, 2048, 8192)
    speedup = t_base / t_fast
    assert 1.6 < speedup < 2.2


@settings(max_examples=20, deadline=None)
@given(m=st.integers(1, 16), n=st.integers(1, 512), k=st.integers(1, 256))
def test_functional_equals_matmul_property(m, n, k):
    engine = NDPGemmEngine(MONDE_DEVICE.ndp, MONDE_DEVICE.effective_bandwidth)
    rng = np.random.default_rng(m + 31 * n + 997 * k)
    a = rng.normal(size=(m, k))
    b = rng.normal(size=(k, n))
    out, ex = engine.run_gemm(a, b)
    np.testing.assert_allclose(out, a @ b, rtol=1e-9)
    assert ex.pipelined_cycles >= ex.compute_cycles or ex.is_memory_bound
