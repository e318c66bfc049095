"""Traffic columns on the sweep runners (serving-only: fast)."""

import json

from repro.core.strategies import Scheme
from repro.cosim.sweep import SweepResult, run_load_sweep
from repro.experiments.config import ServingConfig, TenantConfig, TrafficConfig
from repro.serving.simulator import CostModel

_COST = CostModel(
    encode_seconds_per_token=2e-9, decode_seconds_per_token=2e-8
)
_TENANTS = (
    TenantConfig(name="chat", share=0.6, mean_prompt_tokens=8,
                 mean_decode_tokens=24, slo_p99_ms=1.0),
    TenantConfig(name="batch", share=0.4, mean_prompt_tokens=24,
                 mean_decode_tokens=4),
)


def _sweep(traffic):
    return run_load_sweep(
        _COST,
        Scheme.MD_LB,
        None,  # serving-only: no DRAM feedback, runs in milliseconds
        [1e5, 1e6],
        n_requests=50,
        seed=2,
        serving=ServingConfig(mean_prompt_tokens=8, mean_decode_tokens=24),
        traffic=traffic,
    )


def test_tenant_columns_populated():
    sweep, _ = _sweep(TrafficConfig(tenants=_TENANTS))
    assert sweep.tenant_slo_p99_ms == {"chat": 1.0, "batch": None}
    assert sweep.config["traffic"]["tenants"][0]["name"] == "chat"
    for p in sweep.points:
        assert set(p.tenant_closed_p99) == {"chat", "batch"}
        assert p.tenant_completed == {"chat": 30, "batch": 20}
        assert all(v > 0 for v in p.tenant_closed_p99.values())


def test_flash_window_columns_populated():
    sweep, _ = _sweep(
        TrafficConfig(
            shape="flash_crowd", flash_at=0.5, flash_duration=0.1,
            flash_magnitude=8.0,
        )
    )
    for p in sweep.points:
        assert p.closed_flash_p99 > 0
        assert p.closed_steady_p99 > 0


def test_legacy_sweep_unchanged_without_traffic():
    sweep, _ = _sweep(None)
    assert "traffic" not in sweep.config
    assert sweep.tenant_slo_p99_ms == {}
    for p in sweep.points:
        assert p.tenant_closed_p99 == {} and p.tenant_completed == {}
        assert p.closed_flash_p99 == 0.0 and p.closed_steady_p99 == 0.0


def test_traffic_sweep_serializes_and_round_trips():
    sweep, _ = _sweep(TrafficConfig(tenants=_TENANTS))
    payload = json.dumps(sweep.to_dict())
    again = SweepResult.from_dict(json.loads(payload))
    assert again.to_dict() == sweep.to_dict()
    assert again.points[0].tenant_closed_p99 == sweep.points[0].tenant_closed_p99


def test_traffic_sweep_deterministic():
    a, _ = _sweep(TrafficConfig(shape="diurnal", tenants=_TENANTS))
    b, _ = _sweep(TrafficConfig(shape="diurnal", tenants=_TENANTS))
    assert a.to_dict() == b.to_dict()
