"""CLI smoke tests."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_characterize(capsys):
    assert main(["characterize"]) == 0
    out = capsys.readouterr().out
    assert "Switch-Large-128" in out and "NLLB-MoE" in out
    assert "transfer ms" in out


def test_area_power(capsys):
    assert main(["area-power"]) == 0
    out = capsys.readouterr().out
    assert "systolic_pe" in out
    assert "1.6%" in out


def test_skew(capsys):
    assert main(["skew", "--workload", "flores", "--batch", "1"]) == 0
    out = capsys.readouterr().out
    assert "active" in out and "128+" in out


def test_evaluate_small(capsys):
    assert main([
        "evaluate", "--workload", "xsum", "--batch", "1", "--decode-steps", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "md+lb" in out and "vs Ideal" in out
    assert "MD+LB over GPU+PM" in out


def test_dram(capsys):
    assert main(["dram"]) == 0
    out = capsys.readouterr().out
    assert "sequential-read" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


COSIM_SMALL = [
    "--encode-us", "0.002", "--decode-us", "0.02", "--small-dram",
    "--bytes-per-token", "8192", "--max-blocks", "512",
    "--mean-prompt-tokens", "20", "--mean-decode-tokens", "5",
    "--requests", "30", "--max-iters", "12",
]


def test_cosim_single_run(capsys, tmp_path):
    trace = tmp_path / "cosim.dramtrace"
    code = main(
        ["cosim", "--rate", "1e6", "--export-trace", str(trace)] + COSIM_SMALL
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "closed-loop p99" in out
    assert "converged" in out
    assert "exported" in out
    from repro.workloads.trace_io import read_header

    _, n = read_header(trace)
    assert n > 0


def test_cosim_single_run_drain_workers(monkeypatch, capsys):
    """`repro cosim --workers 2` fans the run's DRAM drains over a
    worker pool and prints exactly what the serial run prints."""
    from repro.dram.parallel import ParallelDrainExecutor

    drains = []
    real_drain = ParallelDrainExecutor.drain

    def counting_drain(self, *args, **kwargs):
        drains.append(self.workers)
        return real_drain(self, *args, **kwargs)

    monkeypatch.setattr(ParallelDrainExecutor, "drain", counting_drain)
    argv = ["cosim", "--rate", "1e6"] + COSIM_SMALL
    assert main(argv) == 0
    serial = capsys.readouterr().out
    assert not drains
    assert main(argv + ["--workers", "2"]) == 0
    assert capsys.readouterr().out == serial
    assert drains and set(drains) == {2}
    assert main(argv + ["--workers", "-1"]) == 2


def test_cosim_sweep(capsys, tmp_path):
    from repro.cosim import SweepResult

    output = tmp_path / "sweep.json"
    code = main(
        ["cosim", "sweep", "--rates", "2e4,1e6", "--output", str(output)]
        + COSIM_SMALL
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "closed p99" in out
    loaded = SweepResult.load(output)
    assert [p.rate for p in loaded.points] == [2e4, 1e6]


def test_cosim_mismatched_cost_flags(capsys):
    assert main(["cosim", "--encode-us", "1.0"]) == 2
    assert "together" in capsys.readouterr().err


def test_cosim_preset_and_config_are_exclusive(capsys, tmp_path):
    assert main(["cosim", "sweep", "--preset", "smoke", "--config", "x.json"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err
    assert main(["cosim", "sweep", "--config", str(tmp_path / "no.json")]) == 2


def test_cosim_preset_flag_overrides(capsys, tmp_path):
    output = tmp_path / "sweep.json"
    code = main([
        "cosim", "sweep", "--preset", "smoke",
        "--rates", "2e4,1e6", "--requests", "30", "--output", str(output),
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    from repro.cosim import SweepResult

    loaded = SweepResult.load(output)
    assert [p.rate for p in loaded.points] == [2e4, 1e6]
    assert loaded.n_requests == 30


def test_cluster_sweep_from_config_file(capsys, tmp_path):
    from repro.cluster import ClusterSweepResult
    from repro.experiments import get_preset

    config = tmp_path / "cluster.json"
    get_preset("cluster_smoke").replaced(
        rates=(2e4, 1e6), n_requests=30
    ).save(config)
    output = tmp_path / "cluster_sweep.json"
    code = main([
        "cluster", "sweep", "--config", str(config),
        "--replicas", "1,2", "--policies", "replicated",
        "--output", str(output),
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "slo cap (req/s)" in out
    loaded = ClusterSweepResult.load(output)
    assert [c.replicas for c in loaded.curves] == [1, 2]
    assert all(len(c.points) == 2 for c in loaded.curves)


class _Captured(Exception):
    """Raised by the stand-in ``run_experiment`` with the config the CLI
    resolved, so flag resolution is observed without simulating."""


def _resolved_config(monkeypatch, argv):
    import repro.experiments

    def capture(config, **kwargs):
        raise _Captured(config)

    monkeypatch.setattr(repro.experiments, "run_experiment", capture)
    with pytest.raises(_Captured) as info:
        main(argv)
    return info.value.args[0]


def _flat(config) -> dict:
    flat = {}
    for key, value in config.to_dict().items():
        if isinstance(value, dict):
            flat.update({f"{key}.{k}": v for k, v in value.items()})
        else:
            flat[key] = value
    return flat


# (flag tokens, the config fields they set).  --encode-us and
# --decode-us are only valid together, so they form one case.
SHARED_SWEEP_FLAGS = [
    (["--scheme", "gpu+pm"], {"scheme": "gpu+pm"}),
    (["--workload", "xsum"], {"cost.workload": "xsum"}),
    (["--arrival", "onoff"], {"serving.arrival": "onoff"}),
    (["--requests", "7"], {"n_requests": 7}),
    (["--seed", "5"], {"seed": 5}),
    (["--mean-prompt-tokens", "9"], {"serving.mean_prompt_tokens": 9}),
    (["--mean-decode-tokens", "3"], {"serving.mean_decode_tokens": 3}),
    (
        ["--encode-us", "0.5", "--decode-us", "0.7"],
        {"cost.encode_us": 0.5, "cost.decode_us": 0.7},
    ),
    (["--bytes-per-token", "4096"], {"replay.bytes_per_token": 4096}),
    (["--max-blocks", "64"], {"replay.max_blocks_per_request": 64}),
    (["--damping", "0.3"], {"loop.damping": 0.3}),
    (["--max-iters", "3"], {"loop.max_iterations": 3}),
    (["--tol", "0.1"], {"loop.p99_tolerance": 0.1}),
    (["--small-dram"], {"replay.dram": "small"}),
    (["--synthetic-regions"], {"replay.synthetic": True}),
    # The one parallelism knob is an execution detail, not a field of
    # the experiment it runs.
    (["--workers", "2"], {}),
    (["--engine", "batching"], {"serving.engine": "batching"}),
    (["--max-batch", "3"], {"serving.max_batch": 3}),
    (["--prefill-budget", "100"], {"serving.prefill_token_budget": 100}),
    (["--priority", "decode"], {"serving.priority": "decode"}),
    (["--decode-marginal", "0.25"], {"serving.decode_marginal_fraction": 0.25}),
    (["--slo-p99-ms", "2.5"], {"slo_p99_ms": 2.5}),
    (["--rates", "3,1"], {"rates": [1.0, 3.0]}),
]
CLUSTER_SWEEP_FLAGS = [
    (["--replicas", "1,3"], {"cluster.replicas": [1, 3]}),
    (["--devices-per-replica", "2"], {"cluster.devices_per_replica": 2}),
    (["--policies", "hot_cold,replicated"],
     {"cluster.policies": ["hot_cold", "replicated"]}),
    (["--balancer", "least_loaded"], {"cluster.balancer": "least_loaded"}),
    (["--hot-fraction", "0.5"], {"cluster.hot_fraction": 0.5}),
    (["--activation-bytes", "128"], {"cluster.activation_bytes_per_token": 128}),
]


@pytest.mark.parametrize(
    "command, tokens, expected",
    [(cmd, tokens, expected)
     for cmd in ("cosim", "cluster") for tokens, expected in SHARED_SWEEP_FLAGS]
    + [("cluster", tokens, expected) for tokens, expected in CLUSTER_SWEEP_FLAGS],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_sweep_flag_sets_exactly_its_field(monkeypatch, command, tokens, expected):
    """Every sweep flag overrides its own config field and nothing
    else; cluster flags land in the cluster layer."""
    base = _flat(_resolved_config(monkeypatch, [command, "sweep"]))
    got = _flat(_resolved_config(monkeypatch, [command, "sweep"] + tokens))
    changed = {k: v for k, v in got.items() if base[k] != v}
    assert changed == expected


def test_cosim_sweep_rejects_cluster_mode_config(monkeypatch, capsys, tmp_path):
    """A cluster-mode base config names the right subcommand and exits
    before simulating anything."""
    import repro.experiments
    from repro.experiments import get_preset

    def refuse(config, **kwargs):
        raise AssertionError("cosim sweep simulated a cluster-mode config")

    monkeypatch.setattr(repro.experiments, "run_experiment", refuse)
    config = tmp_path / "cluster.json"
    get_preset("cluster_smoke").save(config)
    for base in (["--preset", "cluster_smoke"], ["--config", str(config)]):
        assert main(["cosim", "sweep"] + base) == 2
        assert "repro cluster sweep" in capsys.readouterr().err


@pytest.mark.parametrize("tokens", [
    ["--export-trace", "out.dramtrace"],
    ["--export-rate", "1.0"],
])
def test_cluster_sweep_rejects_cosim_only_flags(monkeypatch, tokens):
    import repro.experiments

    def capture(config, **kwargs):
        raise _Captured(config)

    monkeypatch.setattr(repro.experiments, "run_experiment", capture)
    with pytest.raises(SystemExit) as exc:
        main(["cluster", "sweep"] + tokens)
    assert exc.value.code == 2


def test_single_rate_cosim_honours_traffic(monkeypatch):
    """`repro cosim` serves the traffic scenario's request stream, the
    same stream `cosim sweep` runs at that rate."""
    from repro.cosim import CosimDriver
    from repro.cosim.sweep import point_requests
    from repro.experiments import get_preset

    def capture(self, requests):
        raise _Captured(requests)

    monkeypatch.setattr(CosimDriver, "run", capture)
    with pytest.raises(_Captured) as info:
        main(["cosim", "--preset", "flash_crowd_smoke", "--rate", "1e6"])
    served = info.value.args[0]
    exp = get_preset("flash_crowd_smoke")
    expected = point_requests(1e6, exp.n_requests, exp.seed, exp.serving, exp.traffic)
    assert {r.tenant for r in served} == {"chat", "batch"}
    assert [r.arrival for r in served] == [r.arrival for r in expected]
