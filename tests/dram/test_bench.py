"""The perf harness itself (tiny sizes; the real run is ``repro bench``)."""

from __future__ import annotations

import json

import pytest

from repro.dram.bench import (
    all_identity_checks_pass,
    bench_controller,
    format_bench,
    write_bench,
)


def test_payload_shape_and_equivalence(tmp_path):
    payload = bench_controller(n_requests=400, patterns=("random",), seed=1)
    entry = payload["patterns"]["random"]
    assert entry["indexed"]["n_requests"] == 400
    assert entry["reference"]["n_requests"] == 400
    assert entry["speedup"] > 0
    # Same-length runs must agree bit-for-bit.
    assert entry["stats_identical"] is True
    # End-to-end paths: arrays (native columns) vs objects (Request
    # list construction included in the timed region).
    assert entry["arrays"]["n_requests"] == 400
    assert entry["objects"]["ingest_seconds"] > 0.0
    assert entry["objects"]["elapsed_seconds"] > entry["indexed"]["elapsed_seconds"]
    assert entry["object_layer_speedup"] > 0
    assert entry["array_path_identical"] is True

    path = tmp_path / "BENCH_controller.json"
    write_bench(payload, str(path))
    assert json.loads(path.read_text())["benchmark"] == "dram-controller-throughput"


def test_reference_cap_is_recorded():
    payload = bench_controller(
        n_requests=400, patterns=("streaming",), reference_requests=200, seed=1
    )
    entry = payload["patterns"]["streaming"]
    assert entry["reference"]["n_requests"] == 200
    # A capped reference is checked against an indexed drain of the
    # same 200-request prefix.
    assert entry["stats_identical"] is True
    assert payload["reference_requests"] == 200


def test_smoke_payload_checks_every_reference(tmp_path):
    """`repro bench --smoke` caps the reference below the indexed run,
    and still compares the two schedulers on every pattern."""
    from repro.cli import main

    out = tmp_path / "BENCH_smoke.json"
    assert main(["bench", "--smoke", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["reference_requests"] < payload["n_requests"]
    for pattern, entry in payload["patterns"].items():
        assert entry["stats_identical"] is True, pattern
    assert all_identity_checks_pass(payload)


def test_capped_reference_mismatch_fails_the_gate(monkeypatch, tmp_path):
    import repro.dram.bench as bench_mod

    real = bench_mod.ReferenceMemoryController.simulate

    def off_by_one(self, requests):
        stats = real(self, requests)
        stats.total_cycles += 1
        return stats

    monkeypatch.setattr(bench_mod.ReferenceMemoryController, "simulate", off_by_one)
    payload = bench_controller(
        n_requests=400, patterns=("random",), reference_requests=200, seed=1
    )
    assert payload["patterns"]["random"]["stats_identical"] is False
    assert not all_identity_checks_pass(payload)

    from repro.cli import main

    out = tmp_path / "B.json"
    rc = main(
        [
            "bench",
            "--requests", "300",
            "--reference-requests", "150",
            "--patterns", "random",
            "--output", str(out),
        ]
    )
    assert rc == 1


def test_no_reference():
    payload = bench_controller(
        n_requests=200, patterns=("moe-skewed",), include_reference=False
    )
    entry = payload["patterns"]["moe-skewed"]
    assert "reference" not in entry and "speedup" not in entry


def test_unknown_pattern():
    with pytest.raises(ValueError, match="unknown pattern"):
        bench_controller(n_requests=10, patterns=("nope",))


def test_open_loop_arrivals_threaded():
    payload = bench_controller(
        n_requests=400, patterns=("random",), arrival="poisson",
        arrival_gap=20.0, seed=1,
    )
    assert payload["arrival"] == "poisson"
    assert payload["arrival_gap_cycles"] == 20.0
    entry = payload["patterns"]["random"]
    # Both implementations ran the same open-loop trace bit-identically.
    assert entry["stats_identical"] is True
    assert entry["indexed"]["idle_cycles"] > 0
    assert entry["indexed"]["queue_delay_mean"] >= 0.0


def test_unknown_arrival_process():
    with pytest.raises(ValueError, match="unknown arrival"):
        bench_controller(n_requests=10, patterns=("random",), arrival="nope")


def test_format_bench_renders():
    payload = bench_controller(n_requests=200, patterns=("random",), seed=2)
    table = format_bench(payload)
    assert "random" in table and "arrays vs objects" in table
    for impl in ("arrays", "objects", "indexed", "reference"):
        assert impl in table


def test_cli_bench(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "BENCH_controller.json"
    rc = main(
        [
            "bench",
            "--requests", "300",
            "--reference-requests", "150",
            "--patterns", "random",
            "--output", str(out),
        ]
    )
    assert rc == 0
    assert out.exists()
    assert "random" in capsys.readouterr().out


def test_cli_bench_open_loop(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "BENCH_controller.json"
    rc = main(
        [
            "bench",
            "--requests", "300",
            "--reference-requests", "300",
            "--patterns", "streaming",
            "--arrival", "batched",
            "--arrival-gap", "4",
            "--output", str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["arrival"] == "batched"
    assert payload["patterns"]["streaming"]["stats_identical"] is True
    assert "q-delay p99" in capsys.readouterr().out


def test_bench_trace_file_matches_in_memory(tmp_path):
    """`bench --trace-file` on an exported trace reproduces the
    in-memory generator path's stats bit-for-bit."""
    from repro.dram.bench import bench_trace_file
    from repro.workloads.trace_io import generate_trace_file

    path = tmp_path / "random.dramtrace"
    generate_trace_file(
        path, "random", 600, seed=1, arrival="poisson", arrival_gap=9.0
    )
    file_payload = bench_trace_file(str(path), include_reference=True)
    in_memory = bench_controller(
        n_requests=600, patterns=("random",), include_reference=False,
        seed=1, arrival="poisson", arrival_gap=9.0,
    )
    entry = file_payload["patterns"]["random"]
    assert entry["array_path_identical"] is True
    assert entry["stats_identical"] is True
    # File loading is inside the arrays path's timed region.
    assert entry["arrays"]["ingest_seconds"] > 0.0
    mem = in_memory["patterns"]["random"]["arrays"]
    for field in (
        "total_cycles", "row_hits", "row_misses", "row_conflicts",
        "activates", "precharges", "queue_delay_mean", "queue_delay_p99",
    ):
        assert entry["arrays"][field] == mem[field], field


def test_bench_trace_file_rejects_empty(tmp_path):
    from repro.dram.bench import bench_trace_file
    from repro.workloads.trace_io import write_trace

    path = tmp_path / "empty.dramtrace"
    write_trace(path, [])
    with pytest.raises(ValueError, match="empty trace"):
        bench_trace_file(str(path))


def test_cli_bench_trace_file(tmp_path, capsys):
    from repro.cli import main
    from repro.workloads.trace_io import generate_trace_file

    trace_path = tmp_path / "stream.dramtrace"
    generate_trace_file(trace_path, "streaming", 400, seed=3)
    out = tmp_path / "BENCH_controller.json"
    rc = main(
        [
            "bench",
            "--trace-file", str(trace_path),
            "--no-reference",
            "--output", str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["trace_file"] == str(trace_path)
    assert payload["patterns"]["stream"]["array_path_identical"] is True
    assert "arrays" in capsys.readouterr().out


def test_cli_bench_trace_file_rejects_generation_flags(tmp_path, capsys):
    from repro.cli import main
    from repro.workloads.trace_io import generate_trace_file

    trace_path = tmp_path / "t.dramtrace"
    generate_trace_file(trace_path, "streaming", 100, seed=3)
    rc = main(
        [
            "bench",
            "--trace-file", str(trace_path),
            "--arrival", "poisson",
            "--output", str(tmp_path / "B.json"),
        ]
    )
    assert rc == 2
    assert "--arrival" in capsys.readouterr().err


def test_parallel_entry_recorded_and_identical():
    payload = bench_controller(
        n_requests=600, patterns=("random",), include_reference=False,
        seed=1, workers=2,
    )
    entry = payload["patterns"]["random"]
    assert entry["parallel"]["n_requests"] == 600
    assert entry["parallel_workers"] == 2
    assert entry["parallel_identical"] is True
    assert entry["parallel_speedup"] > 0
    assert payload["workers"] == 2
    assert all_identity_checks_pass(payload)
    assert "parallel(w=2)" in format_bench(payload)


def test_trace_file_streaming_entry(tmp_path):
    from repro.dram.bench import bench_trace_file
    from repro.workloads.trace_io import generate_trace_file

    path = tmp_path / "b.dramtrace"
    generate_trace_file(path, "random", 800, seed=1, arrival="poisson")
    payload = bench_trace_file(
        str(path), include_reference=False, workers=2, stream_window=150
    )
    entry = payload["patterns"]["b"]
    assert entry["streaming"]["n_requests"] == 800
    assert entry["streaming_window"] == 150
    assert entry["streaming_identical"] is True
    assert entry["parallel_identical"] is True
    assert all_identity_checks_pass(payload)
    assert "streaming(win=150)" in format_bench(payload)


def test_identity_gate_covers_new_checks():
    payload = {"patterns": {"p": {"parallel_identical": False}}}
    assert not all_identity_checks_pass(payload)
    payload = {"patterns": {"p": {"streaming_identical": False}}}
    assert not all_identity_checks_pass(payload)
    # A reference run whose identity check is missing must not pass.
    payload = {"patterns": {"p": {"reference": {}}}}
    assert not all_identity_checks_pass(payload)
