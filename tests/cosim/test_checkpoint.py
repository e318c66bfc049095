"""Sweep checkpoint/resume: durability, identity, isolation.

The fault-tolerance contract of the sweep point loop
(:func:`repro.cosim.sweep.run_sweep_grid`) behind both
:func:`repro.cosim.run_load_sweep` and
:func:`repro.cluster.run_cluster_sweep`: an interrupted sweep resumed
from its ``*.sweep.ckpt`` sidecar must produce output
**bit-identical** to the uninterrupted run, a stale or mismatched
checkpoint must be rejected rather than spliced in, a torn final line
must be tolerated, and one failing grid point must not take the sweep
down with it.  Cases that loop over ``RUNNERS`` (or take it as a
parameter) check both runners; the cluster runner sweeps a 1- and
2-replica replicated fleet.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import signal
import subprocess
import sys

import pytest

from repro.cluster import ClusterConfig, ClusterSweepResult, run_cluster_sweep
from repro.core.strategies import Scheme
from repro.cosim import (
    ExpertReplayPlanner,
    SweepInterrupted,
    run_load_sweep,
    small_cosim_dram,
)
from repro.cluster.sweep import _run_cluster_point
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


RUNNERS = ("cosim", "cluster")
CLUSTER = ClusterConfig(replicas=(1, 2), policies=("replicated",))


def run(rates=RATES, runner="cosim", cluster=CLUSTER, **overrides):
    cost, planner = make_inputs()
    if runner == "cluster":
        return run_cluster_sweep(
            cost, Scheme.MD_LB, planner, rates, cluster=cluster,
            **sweep_kwargs(**overrides),
        )
    return run_load_sweep(
        cost, Scheme.MD_LB, planner, rates, **sweep_kwargs(**overrides)
    )


def curves(result):
    """Every curve's points: the single-device sweep is one curve."""
    if isinstance(result, ClusterSweepResult):
        return [c.points for c in result.curves]
    return [result.points]


def live_runs(runs):
    """Per-rate live runs of the single-device (or 1-replica) curve."""
    return runs[(1, "replicated")] if isinstance(runs, dict) else runs


def dumped(result) -> str:
    return json.dumps(result.to_dict())


@pytest.fixture(scope="module")
def baselines():
    cache = {}

    def get(runner):
        if runner not in cache:
            cache[runner] = dumped(run(runner=runner)[0])
        return cache[runner]

    return get


@pytest.fixture(scope="module")
def baseline(baselines):
    return baselines("cosim")


def test_interrupt_then_resume_bit_identical(tmp_path, baselines):
    for runner in RUNNERS:
        ckpt = tmp_path / f"{runner}.ckpt"
        with pytest.raises(SweepInterrupted):
            run(runner=runner, checkpoint_path=ckpt, on_point=interrupt_after(1))
        assert ckpt.exists()
        resumed, runs = run(runner=runner, checkpoint_path=ckpt, resume=True)
        assert dumped(resumed) == baselines(runner), runner
        # The grid completed: the sidecar is gone, and restored points
        # carry no live CosimResult while rerun points do.
        assert not ckpt.exists()
        runs = live_runs(runs)
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
    assert dumped(resumed) == baseline


def test_parallel_sweep_resume_identical(tmp_path, baselines):
    """Checkpointed points restore identically into a pooled sweep."""
    for runner in RUNNERS:
        ckpt = tmp_path / f"{runner}.ckpt"
        with pytest.raises(SweepInterrupted):
            run(runner=runner, checkpoint_path=ckpt, on_point=interrupt_after(1))
        resumed, _ = run(runner=runner, checkpoint_path=ckpt, resume=True, workers=2)
        assert dumped(resumed) == baselines(runner), runner


def test_fingerprint_mismatch_rejected(tmp_path):
    for runner in RUNNERS:
        ckpt = tmp_path / f"{runner}.ckpt"
        with pytest.raises(SweepInterrupted):
            run(runner=runner, checkpoint_path=ckpt, on_point=interrupt_after(1))
        # Same checkpoint, different seed: incomparable points.
        with pytest.raises(ValueError, match="fingerprint does not match"):
            run(runner=runner, checkpoint_path=ckpt, resume=True, seed=2)
        # Different grid is just as incomparable.
        with pytest.raises(ValueError, match="fingerprint does not match"):
            run(runner=runner, rates=[2e4, 1e6], checkpoint_path=ckpt, resume=True)


def test_cluster_layer_change_rejected_on_resume(tmp_path):
    """The fleet shape is part of a cluster sweep's identity: a resume
    under a different balancer (which the provenance block does not
    record) must not splice its points in."""
    ckpt = tmp_path / "cluster.ckpt"
    with pytest.raises(SweepInterrupted):
        run(runner="cluster", checkpoint_path=ckpt, on_point=interrupt_after(1))
    moved = ClusterConfig(
        replicas=(1, 2), policies=("replicated",), balancer="least_loaded"
    )
    with pytest.raises(ValueError, match="fingerprint does not match"):
        run(runner="cluster", cluster=moved, checkpoint_path=ckpt, resume=True)


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
    assert dumped(resumed) == baseline
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

    # Version 1 is the stale rate-keyed line format, before grid keys.
    for version in (1, 99):
        bad_version = tmp_path / "v.ckpt"
        bad_version.write_text(json.dumps({**header, "version": version}) + "\n")
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
    # rate=0 makes request generation raise -- a deterministic
    # per-point failure with no monkeypatching.
    rates = [0.0, 1e6, 4e6]
    for runner in RUNNERS:
        result, runs = run(runner=runner, rates=rates)
        for points in curves(result):
            assert points[0].failed, runner
            assert "rate must be positive" in points[0].error
            assert not points[1].failed and not points[2].failed
            assert points[1].converged
        assert live_runs(runs)[0] is None

        # Failed points ride checkpoints like any other point.
        ckpt = tmp_path / f"{runner}.ckpt"
        with pytest.raises(SweepInterrupted):
            run(
                runner=runner, rates=rates, checkpoint_path=ckpt,
                on_point=interrupt_after(2),
            )
        resumed, resumed_runs = run(
            runner=runner, rates=rates, checkpoint_path=ckpt, resume=True
        )
        assert dumped(resumed) == dumped(result), runner
        resumed_runs = live_runs(resumed_runs)
        assert resumed_runs[0] is None and resumed_runs[1] is None


def test_failed_point_isolated_in_pool(tmp_path):
    rates = [0.0, 1e6, 4e6]
    for runner in RUNNERS:
        serial, _ = run(runner=runner, rates=rates)
        pooled, _ = run(runner=runner, rates=rates, workers=2)
        assert dumped(pooled) == dumped(serial), runner


@pytest.mark.parametrize("runner", RUNNERS)
def test_given_slo_survives_all_failed_grid(runner):
    """A user-given SLO threshold is recorded even when no point
    produced a latency to read capacity from; without one, the
    threshold stays unset."""
    given, _ = run(runner=runner, rates=[0.0], slo_p99_seconds=0.005)
    assert all(points[0].failed for points in curves(given))
    assert given.slo_p99_seconds == 0.005
    assert not given.slo_auto
    auto, _ = run(runner=runner, rates=[0.0])
    assert auto.slo_p99_seconds == 0.0
    assert auto.slo_auto


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
    assert dumped(resumed) == baseline


# -- the point pool: routing and worker death ------------------------------


def _kill_once_point(rate, *, sentinel, **kwargs):
    """Point function that SIGKILLs its own pool worker the first time
    it runs the lowest rate (the sentinel file makes it once), then
    runs the real point."""
    if rate == RATES[0] and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return _run_cluster_point(rate, **kwargs)


def _kill_always_point(rate, *, sentinel, **kwargs):
    """Point function whose lowest rate SIGKILLs its worker on every
    attempt."""
    if rate == RATES[0]:
        os.kill(os.getpid(), signal.SIGKILL)
    return _run_cluster_point(rate, **kwargs)


def run_with_point(name: str, sentinel: str):
    """The RATES sweep at ``workers=2`` with the named killer as its
    point function.  Run in a subprocess: a killer that ever ran
    outside a pool worker would kill the test process itself."""
    import repro.cluster.sweep as sweep_module

    killer = globals()[name]
    sweep_module._run_cluster_point = functools.partial(killer, sentinel=sentinel)
    return run(workers=2)


# Prints the sweep document and the resilience event kinds it logged.
_DEATH_SCRIPT = """
import json, logging, sys
from tests.cosim import test_checkpoint as t
kinds = []
handler = logging.Handler()
handler.emit = lambda record: kinds.append(record.args[0])
log = logging.getLogger("repro.resilience")
log.addHandler(handler)
log.propagate = False
result, _ = t.run_with_point(sys.argv[1], sys.argv[2])
print(json.dumps({"doc": t.dumped(result), "kinds": kinds}))
"""


def sweep_under_worker_death(name: str, tmp_path) -> tuple[dict, list]:
    root = pathlib.Path(__file__).resolve().parents[2]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)]),
    }
    proc = subprocess.run(
        [sys.executable, "-c", _DEATH_SCRIPT, name, str(tmp_path / "sentinel")],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    return json.loads(out["doc"]), out["kinds"]


def test_dead_point_worker_respawned(tmp_path, baseline):
    """A SIGKILLed point worker no longer hangs the sweep: the pool is
    respawned, the lost point reruns, and the document is the serial
    one."""
    doc, kinds = sweep_under_worker_death("_kill_once_point", tmp_path)
    assert doc == json.loads(baseline)
    assert "worker_death" in kinds and "pool_respawn" in kinds


def test_point_killing_every_worker_fails_alone(tmp_path, baseline):
    """A point that kills its worker on every attempt becomes a failed
    point; the points beside it complete as in the serial sweep."""
    doc, kinds = sweep_under_worker_death("_kill_always_point", tmp_path)
    dead, *rest = doc["points"]
    assert dead["failed"] and "worker died" in dead["error"]
    assert rest == json.loads(baseline)["points"][1:]
    assert kinds.count("worker_death") == 4  # 1 + max_retries attempts


def test_workers_route_to_points_or_drains(monkeypatch, baseline):
    """One knob: with two or more points left ``workers`` runs them on
    the point pool; with one left it goes to that point's DRAM drains.
    Both are byte-identical to the serial sweep."""
    from repro.dram.parallel import ParallelDrainExecutor
    from repro.util.pool import SupervisedPool

    pool_fns, drains = [], []
    real_run, real_drain = SupervisedPool.run, ParallelDrainExecutor.drain

    def counting_run(self, fn, *args, **kwargs):
        pool_fns.append(fn.__name__)
        return real_run(self, fn, *args, **kwargs)

    def counting_drain(self, *args, **kwargs):
        drains.append(self.workers)
        return real_drain(self, *args, **kwargs)

    monkeypatch.setattr(SupervisedPool, "run", counting_run)
    monkeypatch.setattr(ParallelDrainExecutor, "drain", counting_drain)

    pooled, _ = run(workers=2)
    assert dumped(pooled) == baseline
    assert pool_fns == ["_run_point"] and not drains

    pool_fns.clear()
    one_point, _ = run(rates=RATES[:1], workers=2)
    assert dumped(one_point) == dumped(run(rates=RATES[:1])[0])
    assert drains and set(drains) == {2}
    assert set(pool_fns) == {"_drain_worker"}
