"""Sweep checkpoint/resume: durability, identity, isolation.

The fault-tolerance contract of :func:`repro.cosim.run_load_sweep`:
an interrupted sweep resumed from its ``*.sweep.ckpt`` sidecar must
produce output **bit-identical** to the uninterrupted run, a stale or
mismatched checkpoint must be rejected rather than spliced in, a torn
final line must be tolerated, and one failing grid point must not take
the sweep down with it.
"""

from __future__ import annotations

import json

import pytest

from repro.core.strategies import Scheme
from repro.cosim import (
    ExpertReplayPlanner,
    SweepInterrupted,
    run_load_sweep,
    small_cosim_dram,
)
from repro.cosim.sweep import load_checkpoint
from repro.experiments import LoopConfig, ServingConfig
from repro.faults import interrupt_after
from repro.serving.simulator import CostModel

RATES = [2e4, 1e6, 4e6]


def make_inputs():
    cost = CostModel(encode_seconds_per_token=2e-9, decode_seconds_per_token=2e-8)
    planner = ExpertReplayPlanner(
        n_experts=16, top_k=2, n_moe_layers=2,
        dram_config=small_cosim_dram(), bytes_per_token=8192,
        max_blocks_per_request=1024, expert_bytes=1 << 18, seed=1,
    )
    return cost, planner


def sweep_kwargs(**overrides):
    kwargs = dict(
        n_requests=40,
        seed=1,
        serving=ServingConfig(mean_prompt_tokens=20, mean_decode_tokens=5),
        loop=LoopConfig(max_iterations=8),
    )
    kwargs.update(overrides)
    return kwargs


def run(rates=RATES, **overrides):
    cost, planner = make_inputs()
    return run_load_sweep(
        cost, Scheme.MD_LB, planner, rates, **sweep_kwargs(**overrides)
    )


@pytest.fixture(scope="module")
def baseline():
    result, runs = run()
    return result


def test_interrupt_then_resume_bit_identical(tmp_path, baseline):
    ckpt = tmp_path / "sweep.ckpt"
    with pytest.raises(SweepInterrupted):
        run(checkpoint_path=ckpt, on_point=interrupt_after(1))
    assert ckpt.exists()
    resumed, runs = run(checkpoint_path=ckpt, resume=True)
    assert json.dumps(resumed.to_dict()) == json.dumps(baseline.to_dict())
    # The grid completed: the sidecar is gone, and restored points
    # carry no live CosimResult while rerun points do.
    assert not ckpt.exists()
    assert runs[0] is None
    assert runs[1] is not None and runs[2] is not None


def test_interrupt_after_every_point_still_identical(tmp_path, baseline):
    """Resume composes: interrupting after every single point and
    resuming N times ends at the same document."""
    ckpt = tmp_path / "sweep.ckpt"
    with pytest.raises(SweepInterrupted):
        run(checkpoint_path=ckpt, on_point=interrupt_after(1))
    with pytest.raises(SweepInterrupted):
        run(checkpoint_path=ckpt, resume=True, on_point=interrupt_after(1))
    resumed, _ = run(checkpoint_path=ckpt, resume=True)
    assert json.dumps(resumed.to_dict()) == json.dumps(baseline.to_dict())


def test_parallel_sweep_resume_identical(tmp_path, baseline):
    """Checkpointed points restore identically into a pooled sweep."""
    ckpt = tmp_path / "sweep.ckpt"
    with pytest.raises(SweepInterrupted):
        run(checkpoint_path=ckpt, on_point=interrupt_after(1))
    resumed, _ = run(checkpoint_path=ckpt, resume=True, workers=2)
    assert json.dumps(resumed.to_dict()) == json.dumps(baseline.to_dict())


def test_fingerprint_mismatch_rejected(tmp_path):
    ckpt = tmp_path / "sweep.ckpt"
    with pytest.raises(SweepInterrupted):
        run(checkpoint_path=ckpt, on_point=interrupt_after(1))
    # Same checkpoint, different seed: incomparable points.
    with pytest.raises(ValueError, match="fingerprint does not match"):
        run(checkpoint_path=ckpt, resume=True, seed=2)
    # Different grid is just as incomparable.
    with pytest.raises(ValueError, match="fingerprint does not match"):
        run(rates=[2e4, 1e6], checkpoint_path=ckpt, resume=True)


def test_torn_final_line_tolerated(tmp_path, baseline):
    """A crash mid-append tears only the last line (each line is
    fsynced whole); the torn point reruns and the output still
    matches."""
    ckpt = tmp_path / "sweep.ckpt"
    with pytest.raises(SweepInterrupted):
        run(checkpoint_path=ckpt, on_point=interrupt_after(2))
    data = ckpt.read_bytes()
    assert data.endswith(b"\n")
    ckpt.write_bytes(data[:-40])  # tear the second point's record
    resumed, runs = run(checkpoint_path=ckpt, resume=True)
    assert json.dumps(resumed.to_dict()) == json.dumps(baseline.to_dict())
    assert runs[1] is not None  # the torn point was rerun


def test_corrupt_mid_checkpoint_rejected(tmp_path):
    ckpt = tmp_path / "sweep.ckpt"
    with pytest.raises(SweepInterrupted):
        run(checkpoint_path=ckpt, on_point=interrupt_after(2))
    lines = ckpt.read_text().splitlines()
    assert len(lines) == 3  # header + 2 points
    lines[1] = lines[1][:-10]  # corrupt a NON-final line
    ckpt.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="corrupt checkpoint line"):
        run(checkpoint_path=ckpt, resume=True)


def test_bad_checkpoint_documents_rejected(tmp_path):
    fingerprint_probe = tmp_path / "probe.ckpt"
    # Build a real header to mutate.
    with pytest.raises(SweepInterrupted):
        run(checkpoint_path=fingerprint_probe, on_point=interrupt_after(1))
    header = json.loads(fingerprint_probe.read_text().splitlines()[0])

    bad_version = tmp_path / "v.ckpt"
    bad_version.write_text(json.dumps({**header, "version": 99}) + "\n")
    with pytest.raises(ValueError, match="format version"):
        load_checkpoint(bad_version, header["fingerprint"])

    bad_kind = tmp_path / "k.ckpt"
    bad_kind.write_text(json.dumps({**header, "kind": "other"}) + "\n")
    with pytest.raises(ValueError, match="not a sweep checkpoint"):
        load_checkpoint(bad_kind, header["fingerprint"])

    empty = tmp_path / "e.ckpt"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_checkpoint(empty, header["fingerprint"])


def test_failed_point_is_isolated(tmp_path):
    """One grid point whose run raises becomes a ``failed`` point; the
    rest of the grid completes and the failure is checkpointed so
    resume does not retry it."""
    # rate=0 makes RequestGenerator raise -- a deterministic per-point
    # failure with no monkeypatching.
    rates = [0.0, 1e6, 4e6]
    result, runs = run(rates=rates)
    assert result.points[0].failed
    assert "rate must be positive" in result.points[0].error
    assert runs[0] is None
    assert not result.points[1].failed and not result.points[2].failed
    assert result.points[1].converged

    # Failed points ride checkpoints like any other point.
    ckpt = tmp_path / "sweep.ckpt"
    with pytest.raises(SweepInterrupted):
        run(rates=rates, checkpoint_path=ckpt, on_point=interrupt_after(2))
    resumed, resumed_runs = run(rates=rates, checkpoint_path=ckpt, resume=True)
    assert json.dumps(resumed.to_dict()) == json.dumps(result.to_dict())
    assert resumed_runs[0] is None and resumed_runs[1] is None


def test_failed_point_isolated_in_pool(tmp_path):
    rates = [0.0, 1e6, 4e6]
    serial, _ = run(rates=rates)
    pooled, _ = run(rates=rates, workers=2)
    assert json.dumps(pooled.to_dict()) == json.dumps(serial.to_dict())


def test_checkpoint_removed_on_clean_completion(tmp_path):
    ckpt = tmp_path / "sweep.ckpt"
    result, _ = run(rates=[2e4, 1e6], checkpoint_path=ckpt)
    assert len(result.points) == 2
    assert not ckpt.exists()


def test_real_sigterm_mid_sweep_recovers(tmp_path, baseline):
    """An actual SIGTERM (not the injected stand-in) delivered between
    points lands as SweepInterrupted, leaves a durable checkpoint, and
    resume reproduces the uninterrupted document bit-for-bit."""
    import os
    import signal

    ckpt = tmp_path / "sweep.ckpt"

    def send_sigterm(rate, point):
        os.kill(os.getpid(), signal.SIGTERM)

    with pytest.raises(SweepInterrupted, match="signal"):
        run(checkpoint_path=ckpt, on_point=send_sigterm)
    # The sweep's handler was removed on exit.
    assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
    assert ckpt.exists()
    resumed, _ = run(checkpoint_path=ckpt, resume=True)
    assert json.dumps(resumed.to_dict()) == json.dumps(baseline.to_dict())
