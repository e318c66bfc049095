"""Cluster sweep: single-replica equivalence anchor, fleet physics,
serialization."""

import json
from dataclasses import replace

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterCurve,
    ClusterSweepResult,
    format_cluster_sweep,
    run_cluster_sweep,
)
from repro.core.strategies import Scheme
from repro.cosim import (
    ExpertReplayPlanner,
    run_load_sweep,
    small_cosim_dram,
)
from repro.experiments import LoopConfig, ServingConfig
from repro.serving.simulator import CostModel

RATES = [2e4, 1e6, 4e6]
SWEEP_KWARGS = dict(
    n_requests=60, seed=1,
    serving=ServingConfig(mean_prompt_tokens=20, mean_decode_tokens=5),
    loop=LoopConfig(max_iterations=16),
)


@pytest.fixture(scope="module")
def cost():
    return CostModel(encode_seconds_per_token=2e-9, decode_seconds_per_token=2e-8)


@pytest.fixture(scope="module")
def planner():
    return ExpertReplayPlanner(
        n_experts=16, top_k=2, n_moe_layers=2,
        dram_config=small_cosim_dram(), bytes_per_token=8192,
        max_blocks_per_request=1024, expert_bytes=1 << 18, seed=1,
    )


@pytest.fixture(scope="module")
def cluster_sweep(cost, planner):
    cluster = ClusterConfig(
        replicas=(1, 2),
        devices_per_replica=1,
        policies=("replicated",),
        balancer="round_robin",
        activation_bytes_per_token=0,
    )
    return run_cluster_sweep(
        cost, Scheme.MD_LB, planner, RATES, cluster=cluster, **SWEEP_KWARGS
    )


def test_single_replica_bit_identical_to_cosim_sweep(cost, planner, cluster_sweep):
    """The pinned equivalence anchor: one replica, replicated sharding,
    one device, zero activation bytes reproduces the single-device
    sweep bit for bit -- same SweepPoint dataclasses, field by field."""
    single, _ = run_load_sweep(cost, Scheme.MD_LB, planner, RATES, **SWEEP_KWARGS)
    result, _ = cluster_sweep
    anchor = result.curve(1, "replicated")
    assert anchor.points == single.points


def test_replicas_add_capacity(cluster_sweep):
    """Two replicas split the same offered load, so every grid point's
    fleet tail is no worse than the single replica's and the SLO
    capacity is monotone non-decreasing in replica count."""
    result, _ = cluster_sweep
    one = result.curve(1, "replicated")
    two = result.curve(2, "replicated")
    assert len(two.points) == len(RATES)
    for p1, p2 in zip(one.points, two.points):
        assert p2.rate == p1.rate
        assert p2.closed_p99 <= p1.closed_p99
    assert two.slo_capacity_rps >= one.slo_capacity_rps
    # The saturating top rate is where replication actually pays.
    assert two.points[-1].closed_p99 < one.points[-1].closed_p99


def test_shared_slo_and_devices_for_load(cluster_sweep):
    result, _ = cluster_sweep
    assert result.slo_p99_seconds > 0.0
    assert result.slo_auto
    # The lowest rate is sustained by the smallest fleet swept.
    assert result.devices_for_load(RATES[0]) == 1
    # An absurd offered load is beyond every curve.
    assert result.devices_for_load(1e12) is None
    with pytest.raises(KeyError):
        result.curve(3, "replicated")


def test_json_round_trip(cluster_sweep, tmp_path):
    result, _ = cluster_sweep
    path = tmp_path / "cluster.json"
    result.save(path)
    loaded = ClusterSweepResult.load(path)
    assert loaded.scheme == result.scheme
    assert loaded.cluster == result.cluster
    assert loaded.slo_p99_seconds == result.slo_p99_seconds
    assert [c.replicas for c in loaded.curves] == [c.replicas for c in result.curves]
    for got, want in zip(loaded.curves, result.curves):
        assert got.policy == want.policy
        assert got.slo_capacity_rps == want.slo_capacity_rps
        assert got.points == want.points


def test_version_and_kind_rejection(cluster_sweep, tmp_path):
    result, _ = cluster_sweep
    doc = result.to_dict()
    doc["version"] = 99
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="format version"):
        ClusterSweepResult.load(path)
    doc["version"] = 1
    doc["kind"] = "cosim_sweep"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="cluster sweep"):
        ClusterSweepResult.load(path)


def test_format_cluster_sweep(cluster_sweep):
    result, _ = cluster_sweep
    table = format_cluster_sweep(result)
    assert "replicas" in table and "slo cap (req/s)" in table
    assert "replicated" in table
    assert "unconv pts" in table
    # A hand-built curve with one non-converged and one failed point:
    # each is counted in its own column, neither in the other's.
    ok = result.curve(1, "replicated").points[0]
    assert ok.converged and not ok.failed
    curve = ClusterCurve(
        replicas=3,
        policy="replicated",
        points=[
            ok,
            replace(ok, converged=False),
            replace(ok, converged=False, failed=True, error="boom"),
        ],
    )
    table = format_cluster_sweep(replace(result, curves=[curve]))
    header, _rule, row = table.splitlines()
    assert header.split()[-4:] == ["failed", "pts", "unconv", "pts"]
    assert row.split()[-2:] == ["1", "1"]


def test_validation(cost, planner):
    with pytest.raises(ValueError, match="rates"):
        run_cluster_sweep(cost, Scheme.MD_LB, planner, [])
    with pytest.raises(ValueError, match="sorted"):
        run_cluster_sweep(cost, Scheme.MD_LB, planner, [2.0, 1.0])
    with pytest.raises(ValueError, match="planner"):
        run_cluster_sweep(cost, Scheme.MD_LB, None, [1.0])


def test_batching_cluster_sweep_records_batching_settings(cost, planner):
    """A batching cluster sweep records the engine's admission knobs in
    its provenance, exactly as the single-device sweep does."""
    serving = ServingConfig(
        engine="batching", mean_prompt_tokens=8, mean_decode_tokens=24,
        max_batch=4, prefill_token_budget=512, priority="decode",
        decode_marginal_fraction=0.25,
    )
    kwargs = dict(n_requests=10, seed=1, serving=serving,
                  loop=LoopConfig(max_iterations=2))
    cluster = ClusterConfig(replicas=(1,), devices_per_replica=1,
                            policies=("replicated",))
    result, _ = run_cluster_sweep(
        cost, Scheme.MD_LB, planner, [2e4], cluster=cluster, **kwargs
    )
    single, _ = run_load_sweep(cost, Scheme.MD_LB, planner, [2e4], **kwargs)
    batching_keys = (
        "max_batch", "priority", "prefill_token_budget", "decode_marginal_fraction"
    )
    assert {k: result.config[k] for k in batching_keys} == {
        "max_batch": 4, "priority": "decode", "prefill_token_budget": 512,
        "decode_marginal_fraction": 0.25,
    }
    assert {k: result.config[k] for k in batching_keys} == {
        k: single.config[k] for k in batching_keys
    }
    assert result.config["engine"] == "batching"
