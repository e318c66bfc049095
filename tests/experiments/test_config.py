"""Experiment-config API: round-trips, validation, presets, and the
driver reading the serving and loop layers directly."""

import json

import pytest

from repro.experiments import (
    CostConfig,
    ExperimentConfig,
    LoopConfig,
    PRESET_NAMES,
    ReplayConfig,
    ServingConfig,
    get_preset,
)


def test_round_trip_defaults(tmp_path):
    config = ExperimentConfig()
    path = tmp_path / "exp.json"
    config.save(path)
    assert ExperimentConfig.load(path) == config


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_round_trip_presets(name, tmp_path):
    config = get_preset(name)
    assert ExperimentConfig.from_dict(config.to_dict()) == config
    path = tmp_path / f"{name}.json"
    config.save(path)
    assert ExperimentConfig.load(path) == config


def test_get_preset_unknown():
    with pytest.raises(ValueError, match="cluster_smoke"):
        get_preset("smokey")


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="unknown ExperimentConfig keys"):
        ExperimentConfig.from_dict({"mode": "cosim", "turbo": True})
    with pytest.raises(ValueError, match="unknown LoopConfig keys"):
        ExperimentConfig.from_dict({"loop": {"dampening": 0.5}})
    with pytest.raises(ValueError, match="unknown ReplayConfig keys"):
        ReplayConfig.from_dict({"dram": "small", "channels": 4})


def test_validation_errors():
    with pytest.raises(ValueError, match="mode"):
        ExperimentConfig(mode="fleet")
    with pytest.raises(ValueError):
        ExperimentConfig(scheme="warp")
    with pytest.raises(ValueError, match="n_requests"):
        ExperimentConfig(n_requests=0)
    with pytest.raises(ValueError, match="rates"):
        ExperimentConfig(rates=())
    with pytest.raises(ValueError, match="sorted"):
        ExperimentConfig(rates=(2.0, 1.0))
    with pytest.raises(ValueError, match="together"):
        CostConfig(encode_us=1.0)
    with pytest.raises(ValueError, match="together"):
        CostConfig(decode_us=1.0)
    with pytest.raises(ValueError, match="dram"):
        ReplayConfig(dram="hbm3")
    with pytest.raises(ValueError, match="engine"):
        ServingConfig(engine="vllm")


def test_cost_synthetic_property():
    assert not CostConfig().synthetic
    assert CostConfig(encode_us=0.002, decode_us=0.02).synthetic


def test_config_validation():
    with pytest.raises(ValueError):
        LoopConfig(damping=0.0)
    with pytest.raises(ValueError):
        LoopConfig(damping=1.5)
    with pytest.raises(ValueError):
        LoopConfig(damping_decay=-1)
    with pytest.raises(ValueError):
        LoopConfig(max_iterations=0)
    with pytest.raises(ValueError):
        LoopConfig(p99_tolerance=-0.1)
    with pytest.raises(ValueError):
        ServingConfig(queue_limit=0)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("loop", "damping", 0),
        ("loop", "max_iterations", 0),
        ("serving", "max_batch", 0),
        ("serving", "decode_marginal_fraction", 2),
    ],
)
def test_bad_config_file_fails_at_load(section, key, value, tmp_path):
    """A bad knob in a config file is rejected when the file loads,
    naming the field -- not later, inside build_components."""
    data = ExperimentConfig().to_dict()
    data[section][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.load(path)


def test_driver_reads_loop_and_serving_layers():
    """The driver, its estimator, its DRAM backend and its surcharge
    search take every knob from the two config layers."""
    from repro.core.strategies import Scheme
    from repro.cosim import CosimDriver, SyntheticReplayPlanner, small_cosim_dram
    from repro.cosim.driver import _SurchargeSearch
    from repro.serving.engine import BatchConfig
    from repro.serving.simulator import CostModel

    cost = CostModel(encode_seconds_per_token=2e-9, decode_seconds_per_token=2e-8)
    planner = SyntheticReplayPlanner(dram_config=small_cosim_dram(), seed=1)
    serving = ServingConfig(
        engine="batching", queue_limit=512, max_batch=4,
        prefill_token_budget=256, priority="decode",
        decode_marginal_fraction=0.25,
    )
    loop = LoopConfig(damping=0.3, max_iterations=5, scheduler_window=32)
    driver = CosimDriver(cost, Scheme.MD_LB, planner, serving=serving, loop=loop)
    assert driver.serving is serving and driver.loop is loop
    assert driver.backend.window == 32
    assert driver.estimator.batch_config == BatchConfig(
        max_batch=4, prefill_token_budget=256, priority="decode", queue_limit=512
    )
    assert driver.estimator.cost_model.decode_marginal_fraction == 0.25
    assert _SurchargeSearch(driver.loop).update(0, 1.0) == 0.3

    fifo = CosimDriver(cost, Scheme.MD_LB, planner)
    assert fifo.serving == ServingConfig() and fifo.loop == LoopConfig()
    assert fifo.estimator.queue_limit == ServingConfig().queue_limit
    assert fifo.estimator.n_surcharges == 1
    assert driver.estimator.n_surcharges == 2


def test_replaced_is_functional_update():
    base = get_preset("smoke")
    cluster_mode = base.replaced(mode="cluster")
    assert cluster_mode.mode == "cluster"
    assert base.mode == "cosim"
    assert cluster_mode.replay == base.replay


def test_preset_shapes():
    smoke = get_preset("smoke")
    assert smoke.mode == "cosim"
    assert smoke.cost.synthetic
    assert smoke.replay.dram == "small"
    decode_heavy = get_preset("decode_heavy")
    assert decode_heavy.serving.engine == "batching"
    cluster = get_preset("cluster_smoke")
    assert cluster.mode == "cluster"
    assert cluster.cluster.replicas == (1, 2)
    assert set(cluster.cluster.policies) <= {
        "replicated", "expert_parallel", "hot_cold"
    }
