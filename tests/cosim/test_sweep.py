"""Load-sweep runner: hockey stick, serialization, rendering."""

import json
from dataclasses import replace

import pytest

from repro.cluster import ClusterConfig, ClusterCurve, ClusterSweepResult
from repro.core.strategies import Scheme
from repro.cosim import (
    ExpertReplayPlanner,
    SweepResult,
    format_sweep,
    run_load_sweep,
    slo_capacity,
    small_cosim_dram,
)
from repro.cosim.sweep import _failed_point, run_sweep_grid
from repro.dram.busy_period import SegmentMemo
from repro.experiments import (
    LoopConfig,
    ServingConfig,
    build_components,
    get_preset,
    run_experiment,
)
from repro.serving.simulator import CostModel

RATES = [2e4, 1e6, 4e6]


@pytest.fixture(scope="module")
def sweep():
    cost = CostModel(encode_seconds_per_token=2e-9, decode_seconds_per_token=2e-8)
    planner = ExpertReplayPlanner(
        n_experts=16, top_k=2, n_moe_layers=2,
        dram_config=small_cosim_dram(), bytes_per_token=8192,
        max_blocks_per_request=1024, expert_bytes=1 << 18, seed=1,
    )
    return run_load_sweep(
        cost, Scheme.MD_LB, planner, RATES,
        n_requests=60, seed=1,
        serving=ServingConfig(mean_prompt_tokens=20, mean_decode_tokens=5),
        loop=LoopConfig(max_iterations=16),
    )


def test_hockey_stick_and_convergence(sweep):
    """The acceptance criteria: converged within budget at low load,
    monotone closed-loop p99 across the rate grid, closed >= open at
    saturation while matching open at near-zero load."""
    result, runs = sweep
    assert len(result.points) == len(RATES)
    low, mid, high = result.points
    assert low.converged and low.n_iterations <= 16
    closed = [p.closed_p99 for p in result.points]
    assert closed == sorted(closed)
    assert closed[0] < closed[-1]
    # Near-zero load: closed-loop matches open-loop within tolerance.
    assert low.closed_p99 == pytest.approx(low.open_p99, rel=0.05)
    # Saturating load: the feedback strictly inflates the tail.
    assert high.closed_p99 >= high.open_p99
    assert high.closed_p99 > 5 * high.open_p99
    # Open-loop curves come from iteration 0 of each run.
    assert runs[0].open_loop.latency_percentile(99) == pytest.approx(low.open_p99)


def test_json_round_trip(sweep, tmp_path):
    result, _ = sweep
    path = tmp_path / "sweep.json"
    result.save(path)
    loaded = SweepResult.load(path)
    assert loaded.scheme == result.scheme
    assert loaded.points == result.points
    assert loaded.config == result.config
    assert loaded.n_requests == result.n_requests


def test_version_rejection(sweep, tmp_path):
    result, _ = sweep
    doc = result.to_dict()
    doc["version"] = 99
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="format version"):
        SweepResult.load(path)
    doc["version"] = 1
    doc["kind"] = "other"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="cosim sweep"):
        SweepResult.load(path)


def test_format_sweep_renders(sweep):
    result, _ = sweep
    table = format_sweep(result)
    lines = table.splitlines()
    assert "closed p99" in lines[0]
    assert len(lines) == 2 + len(RATES)


def test_rate_grid_validation(sweep):
    cost = CostModel(encode_seconds_per_token=1e-9, decode_seconds_per_token=1e-8)
    planner = ExpertReplayPlanner(
        n_experts=4, top_k=1, n_moe_layers=1, dram_config=small_cosim_dram()
    )
    with pytest.raises(ValueError):
        run_load_sweep(cost, Scheme.MD_LB, planner, [])
    with pytest.raises(ValueError):
        run_load_sweep(cost, Scheme.MD_LB, planner, [2.0, 1.0])


def test_parallel_sweep_matches_serial(sweep):
    """Rate-grid points are independent; running them over a worker
    pool must reproduce the serial sweep bit for bit (each worker gets
    the same pickled planner/cost model and per-point seeding)."""
    serial_result, _ = sweep
    cost = CostModel(encode_seconds_per_token=2e-9, decode_seconds_per_token=2e-8)
    planner = ExpertReplayPlanner(
        n_experts=16, top_k=2, n_moe_layers=2,
        dram_config=small_cosim_dram(), bytes_per_token=8192,
        max_blocks_per_request=1024, expert_bytes=1 << 18, seed=1,
    )
    parallel_result, parallel_runs = run_load_sweep(
        cost, Scheme.MD_LB, planner, RATES,
        n_requests=60, seed=1,
        serving=ServingConfig(mean_prompt_tokens=20, mean_decode_tokens=5),
        loop=LoopConfig(max_iterations=16),
        workers=2,
    )
    assert parallel_result.points == serial_result.points
    assert parallel_result.to_dict() == serial_result.to_dict()
    assert len(parallel_runs) == len(RATES)
    assert all(run.closed_loop is not None for run in parallel_runs)


def test_workers_validation(sweep):
    _, _ = sweep
    cost = CostModel(encode_seconds_per_token=2e-9, decode_seconds_per_token=2e-8)
    planner = ExpertReplayPlanner(
        n_experts=16, top_k=2, n_moe_layers=2,
        dram_config=small_cosim_dram(), bytes_per_token=8192,
        max_blocks_per_request=1024, expert_bytes=1 << 18, seed=1,
    )
    with pytest.raises(ValueError):
        run_load_sweep(cost, Scheme.MD_LB, planner, [1.0], workers=-1)


def _recording_memos(monkeypatch):
    """Every SegmentMemo a sweep creates, in creation order."""
    import repro.cosim.sweep as sweep_module

    memos = []

    class RecordingMemo(SegmentMemo):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            memos.append(self)

    monkeypatch.setattr(sweep_module, "SegmentMemo", RecordingMemo)
    return memos


def test_isolation_memo_is_scoped_to_one_sweep(monkeypatch):
    """Each sweep starts with an empty drain memo: two identical sweeps
    in one process drain exactly the same busy periods, main and
    isolation alike, so no memo state outlives its sweep."""
    memos = _recording_memos(monkeypatch)
    config = replace(get_preset("decode_heavy"), n_requests=20, rates=(1e5, 1e6))
    cost, scheme, planner = build_components(config)
    results = [
        run_load_sweep(
            cost, scheme, planner, list(config.rates),
            n_requests=config.n_requests, seed=config.seed,
            serving=config.serving, loop=config.loop,
        )[0]
        for _ in range(2)
    ]
    assert len(memos) == 2
    first, second = memos
    assert first.hits > 0 and first.misses > 0 and first.stores > 0
    counts = [(m.hits, m.misses, m.stores) for m in memos]
    assert counts[0] == counts[1]
    assert results[0].to_dict() == results[1].to_dict()


def test_decode_heavy_json_identical_serial_and_pooled():
    """The memo is exact, so a pooled sweep (one memo copy per point)
    writes the same document as a serial one (one memo for the whole
    grid)."""
    config = get_preset("decode_heavy")
    serial, _ = run_experiment(config, workers=0)
    pooled, _ = run_experiment(config, workers=2)
    assert json.dumps(serial.to_dict()) == json.dumps(pooled.to_dict())


#: rate -> closed p99 (seconds) of the scripted grid; None raises
SLO_GRID = {1.0: 1e-3, 2.0: None, 4.0: 2e-3}


def _scripted_point(*key, **_kwargs):
    """Point function replaying ``SLO_GRID``: its middle rate raises."""
    rate = key[-1]
    p99 = SLO_GRID[rate]
    if p99 is None:
        raise RuntimeError("point blew up")
    point = replace(
        _failed_point(rate, RuntimeError()),
        failed=False, error="", converged=True, closed_p99=p99,
    )
    return point, None


@pytest.mark.parametrize("kind", ["single", "cluster"])
def test_slo_capacity_counts_failed_points(kind):
    """A failed point is an SLO violation: the capacity stops below it
    instead of reading past it to a compliant higher rate."""
    header = dict(scheme="md+lb", arrival="poisson", n_requests=1, seed=0)
    if kind == "single":
        doc = SweepResult(**header)
        curves = {(): doc}
    else:
        doc = ClusterSweepResult(**header, cluster=ClusterConfig(replicas=(1,)))
        curves = {(1, "replicated"): ClusterCurve(replicas=1, policy="replicated")}
        doc.curves = list(curves.values())
    run_sweep_grid(
        doc, curves, list(SLO_GRID), _scripted_point, {}, slo_p99_seconds=5e-3
    )
    (curve,) = curves.values()
    assert [p.failed for p in curve.points] == [False, True, False]
    assert curve.slo_capacity_rps == slo_capacity(curve.points, 5e-3) == 1.0
    if kind == "cluster":
        assert doc.devices_for_load(1.0) == 1
        assert doc.devices_for_load(4.0) is None
