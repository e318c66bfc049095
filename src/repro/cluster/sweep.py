"""Replica-count x sharding-policy capacity sweep.

The millions-of-users question asked directly: for each (replica
count, sharding policy) pair in the grid, run the closed
serving<->DRAM loop at every offered load -- requests split across
replicas by the balancer, each replica's experts sharded across its
NDP devices by the policy, per-device contention and inter-device
activation transfers fed back through the fixed point -- and read off
the SLO capacity ("max req/s with closed p99 under X seconds") per
curve.  The capacity-vs-replicas table answers *how many devices serve
offered load R at p99 <= X*.

Degenerate anchor: one replica, ``replicated`` sharding, one device
per replica, zero activation bytes is bit-identical to
:func:`repro.cosim.sweep.run_load_sweep` on the same arguments by
construction: the single-device sweep *is* that curve of
:func:`_run_cluster_point`, so cluster curves and single-device curves
live on the same scale.

Both sweeps run through one executor,
:func:`repro.cosim.sweep.run_sweep_grid`, with :func:`_run_cluster_point`
as their one point function, so they share its checkpoint/resume,
worker pool, interruption, failed-point isolation and SLO step.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from repro.analysis.report import format_table
from repro.core.strategies import Scheme
from repro.serving.simulator import CostModel
from repro.util.atomic_io import atomic_write_json
from repro.workloads.serialization import check_format_version

from repro.cluster.balancer import assign_replicas
from repro.cluster.backend import ShardedDramBackend
from repro.cluster.config import ClusterConfig
from repro.cosim.driver import CosimDriver, CosimResult, config_layers, make_estimator
from repro.cosim.sweep import (
    SweepPoint,
    _point_from_run,
    _traffic_columns,
    point_requests,
    run_sweep_grid,
    sweep_provenance,
)

CLUSTER_SWEEP_FORMAT_VERSION = 1


def _merged_point(
    rate: float, runs: list[CosimResult], traffic=None
) -> SweepPoint:
    """Collapse one rate's per-replica closed-loop runs into a single
    fleet-level grid point.  Latency tails are percentiles over the
    *union* of all replicas' completed requests -- a per-replica
    percentile-of-percentiles would understate the fleet tail."""

    def union(attr: str, value):
        samples = []
        for run in runs:
            for c in getattr(run, attr).completed:
                samples.append(value(c))
        return samples

    def pct(samples, q):
        return float(np.percentile(samples, q)) if samples else 0.0

    open_lat = union("open_loop", lambda c: c.latency)
    closed_lat = union("closed_loop", lambda c: c.latency)
    ttft = union("closed_loop", lambda c: c.ttft)
    qdelay = union("closed_loop", lambda c: c.queue_delay)
    tpot = [
        c.tpot
        for run in runs
        for c in run.closed_loop.completed
        if c.request.decode_tokens > 0
    ]
    total_tokens = [
        float(
            sum(
                c.request.prompt_tokens + c.request.decode_tokens
                for c in run.closed_loop.completed
            )
        )
        or 1.0
        for run in runs
    ]
    weight = sum(total_tokens)

    def token_weighted(values):
        return sum(v * t for v, t in zip(values, total_tokens)) / weight

    lasts = [run.iterations[-1] for run in runs if run.iterations]
    return SweepPoint(
        rate=rate,
        open_p50=pct(open_lat, 50),
        open_p99=pct(open_lat, 99),
        open_max=pct(open_lat, 100),
        closed_p50=pct(closed_lat, 50),
        closed_p99=pct(closed_lat, 99),
        closed_max=pct(closed_lat, 100),
        # Replicas run concurrently; the fleet is as utilized as its
        # average replica.
        utilization=float(
            np.mean([run.closed_loop.utilization for run in runs])
        ),
        completed=sum(run.closed_loop.n_completed for run in runs),
        rejected=sum(run.closed_loop.rejected for run in runs),
        n_iterations=max(run.n_iterations for run in runs),
        converged=all(run.converged for run in runs),
        extra_seconds_per_token=token_weighted(
            [run.extra_seconds_per_token for run in runs]
        ),
        dram_queue_delay_mean=(
            float(np.mean([it.dram_queue_delay_mean for it in lasts]))
            if lasts
            else 0.0
        ),
        dram_queue_delay_p99=(
            max(it.dram_queue_delay_p99 for it in lasts) if lasts else 0.0
        ),
        dram_idle_cycles=sum(it.dram_idle_cycles for it in lasts),
        dram_total_cycles=(
            max(it.dram_total_cycles for it in lasts) if lasts else 0
        ),
        residual_seconds_per_token=max(
            run.residual_seconds_per_token for run in runs
        ),
        closed_ttft_p99=pct(ttft, 99),
        closed_queue_delay_p99=pct(qdelay, 99),
        closed_tpot_p99=pct(tpot, 99),
        extra_prefill_seconds_per_token=token_weighted(
            [run.extra_prefill_seconds_per_token for run in runs]
        ),
        extra_decode_seconds_per_token=token_weighted(
            [run.extra_decode_seconds_per_token for run in runs]
        ),
        # Tenant / flash-window tails over the same fleet-wide union of
        # completions the plain percentiles use.
        **_traffic_columns(
            SimpleNamespace(
                completed=[
                    c for run in runs for c in run.closed_loop.completed
                ]
            ),
            traffic,
        ),
    )


@dataclass
class ClusterCurve:
    """One (replica count, sharding policy) capacity curve."""

    replicas: int
    policy: str
    points: list[SweepPoint] = field(default_factory=list)
    #: max sustained req/s with fleet closed p99 under the shared SLO
    slo_capacity_rps: float = 0.0


@dataclass
class ClusterSweepResult:
    """A full replica x policy x rate grid, serializable."""

    scheme: str
    arrival: str
    n_requests: int
    seed: int
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    curves: list[ClusterCurve] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    #: shared closed-loop p99 threshold all curves were read against
    slo_p99_seconds: float = 0.0
    slo_auto: bool = True
    #: per-tenant closed-loop p99 SLO thresholds (milliseconds) from
    #: the traffic scenario, keyed by tenant name (empty when the
    #: sweep ran without tenants)
    tenant_slo_p99_ms: dict = field(default_factory=dict)

    def curve(self, replicas: int, policy: str) -> ClusterCurve:
        for c in self.curves:
            if c.replicas == replicas and c.policy == policy:
                return c
        raise KeyError(f"no curve for replicas={replicas} policy={policy!r}")

    def devices_for_load(
        self, rate: float, policy: Optional[str] = None
    ) -> Optional[int]:
        """Smallest device count whose curve sustains ``rate`` within
        the SLO (``replicas * devices_per_replica``), or ``None`` if
        no swept size does."""
        best: Optional[int] = None
        for c in self.curves:
            if policy is not None and c.policy != policy:
                continue
            if c.slo_capacity_rps >= rate:
                devices = c.replicas * self.cluster.devices_per_replica
                if best is None or devices < best:
                    best = devices
        return best

    # -- codec -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": CLUSTER_SWEEP_FORMAT_VERSION,
            "kind": "cluster_sweep",
            "scheme": self.scheme,
            "arrival": self.arrival,
            "n_requests": self.n_requests,
            "seed": self.seed,
            "slo_p99_seconds": self.slo_p99_seconds,
            "slo_auto": self.slo_auto,
            "tenant_slo_p99_ms": self.tenant_slo_p99_ms,
            "cluster": self.cluster.to_dict(),
            "config": self.config,
            "curves": [
                {
                    "replicas": c.replicas,
                    "policy": c.policy,
                    "slo_capacity_rps": c.slo_capacity_rps,
                    "points": [asdict(p) for p in c.points],
                }
                for c in self.curves
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterSweepResult":
        check_format_version(
            data.get("version"), CLUSTER_SWEEP_FORMAT_VERSION, "cluster sweep"
        )
        if data.get("kind") != "cluster_sweep":
            raise ValueError(
                f"not a cluster sweep document (kind={data.get('kind')!r})"
            )
        return cls(
            scheme=data["scheme"],
            arrival=data["arrival"],
            n_requests=int(data["n_requests"]),
            seed=int(data["seed"]),
            slo_p99_seconds=float(data.get("slo_p99_seconds", 0.0)),
            slo_auto=bool(data.get("slo_auto", True)),
            tenant_slo_p99_ms=dict(data.get("tenant_slo_p99_ms", {})),
            cluster=ClusterConfig.from_dict(data.get("cluster", {})),
            config=dict(data.get("config", {})),
            curves=[
                ClusterCurve(
                    replicas=int(c["replicas"]),
                    policy=str(c["policy"]),
                    slo_capacity_rps=float(c.get("slo_capacity_rps", 0.0)),
                    points=[SweepPoint(**p) for p in c["points"]],
                )
                for c in data.get("curves", [])
            ],
        )

    def save(self, path) -> None:
        atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "ClusterSweepResult":
        return cls.from_dict(json.loads(pathlib.Path(path).read_text()))


def format_cluster_sweep(result: ClusterSweepResult) -> str:
    """Capacity table: one row per (replicas, policy) curve, plus the
    device-count answer at each curve's knee.  Failed and unconverged
    points are counted per curve (the cosim table's ``conv`` column,
    summed)."""
    rows = []
    for c in result.curves:
        worst = max((p.closed_p99 for p in c.points if not p.failed), default=0.0)
        rows.append(
            [
                c.replicas,
                c.replicas * result.cluster.devices_per_replica,
                c.policy,
                c.slo_capacity_rps,
                worst,
                sum(1 for p in c.points if p.failed),
                sum(1 for p in c.points if not (p.failed or p.converged)),
            ]
        )
    header = [
        "replicas",
        "devices",
        "policy",
        "slo cap (req/s)",
        "worst closed p99",
        "failed pts",
        "unconv pts",
    ]
    return format_table(header, rows)


def run_cluster_sweep(
    cost_model: CostModel,
    scheme: Scheme,
    planner,
    rates: list[float],
    cluster: Optional[ClusterConfig] = None,
    n_requests: int = 100,
    seed: int = 0,
    serving=None,
    loop=None,
    slo_p99_seconds: Optional[float] = None,
    on_point: Optional[Callable[[float, SweepPoint], None]] = None,
    traffic=None,
    workers: int = 0,
    checkpoint_path=None,
    resume: bool = False,
) -> tuple[ClusterSweepResult, dict[tuple[int, str], list[Optional[CosimResult]]]]:
    """Sweep the full replica x policy x rate grid.

    ``serving`` and ``loop`` are the experiment's
    :class:`~repro.experiments.config.ServingConfig` and
    :class:`~repro.experiments.config.LoopConfig` layers (defaults
    when ``None``), exactly as :func:`repro.cosim.sweep.run_load_sweep`
    reads them.  Every (curve, rate) point regenerates the request stream with the
    *same* seeded generator the single-device sweep uses -- offered
    load is a property of the outside world, not of the fleet shape --
    then splits it across replicas with the configured balancer and
    runs each replica's closed loop on its own
    :class:`~repro.cluster.backend.ShardedDramBackend`.  Per-curve SLO
    capacities are read against one shared threshold (given, or
    auto-derived from the *first* curve's lowest-rate point) so curves
    are comparable.  ``workers``, ``checkpoint_path``/``resume`` and
    ``on_point(rate, point)`` are :func:`~repro.cosim.sweep.run_sweep_grid`'s.

    Returns the serializable result plus per-curve lists of the live
    per-rate :class:`CosimResult` s (single-replica curves; multi-
    replica rates carry ``None`` -- their per-replica runs were merged
    into the recorded point -- as do restored and failed points).

    An active ``traffic`` config swaps request generation to
    :func:`repro.traffic.generate.generate_requests` (tenant mixes,
    load shapes) and fills the per-tenant / flash-window columns on
    every point -- the same semantics as the single-device sweep, so
    the 1-replica anchor stays bit-identical under any scenario.
    """
    if planner is None:
        raise ValueError("cluster sweeps need a replay planner")
    cluster = cluster or ClusterConfig()
    serving, loop = config_layers(serving, loop)
    result = ClusterSweepResult(
        scheme=scheme.value,
        arrival=serving.arrival,
        n_requests=n_requests,
        seed=seed,
        cluster=cluster,
        config=sweep_provenance(
            cost_model,
            planner,
            serving,
            loop,
            traffic,
            rates=[float(r) for r in rates],
        ),
    )
    if traffic is not None:
        result.tenant_slo_p99_ms = {
            t.name: t.slo_p99_ms for t in traffic.tenants
        }
    curves = {
        (n_replicas, policy): ClusterCurve(replicas=n_replicas, policy=policy)
        for policy in cluster.policies
        for n_replicas in cluster.replicas
    }
    result.curves = list(curves.values())
    runs = run_sweep_grid(
        result,
        curves,
        rates,
        _run_cluster_point,
        dict(
            cost_model=cost_model,
            scheme=scheme,
            planner=planner,
            serving=serving,
            loop=loop,
            n_requests=n_requests,
            seed=seed,
            traffic=traffic,
            cluster=cluster,
        ),
        workers=workers,
        checkpoint_path=checkpoint_path,
        resume=resume,
        on_point=on_point,
        slo_p99_seconds=slo_p99_seconds,
    )
    return result, {
        key: [runs.get(key + (rate,)) for rate in rates] for key in curves
    }


def _run_cluster_point(
    *key,
    cost_model: CostModel,
    scheme: Scheme,
    planner,
    serving,
    loop,
    n_requests: int,
    seed: int,
    cluster: ClusterConfig = ClusterConfig(replicas=(1,)),
    traffic=None,
    drain_memo=None,
    executor=None,
) -> tuple[SweepPoint, Optional[CosimResult]]:
    """One grid point: generate the offered load, balance it, run each
    replica's closed loop, merge.  The one point function of
    :func:`~repro.cosim.sweep.run_sweep_grid` (and of ``repro
    cosim``): module-level and built from picklable pieces, so points
    can fan out over a process pool, and seeded per point, so results
    do not depend on run order, the shared exact ``drain_memo`` or
    a drain ``executor``.

    ``key`` is ``(n_replicas, policy, rate)`` on a cluster curve, or
    ``(rate,)`` on the single-device sweep's curve ``()``: one
    ``replicated`` replica of the default ``cluster`` (one device,
    zero activation bytes).  With ``planner=None`` each replica runs
    serving-only: one open-loop pass, reported as trivially converged.
    """
    *curve, rate = key
    n_replicas, policy = curve or (1, "replicated")
    requests = point_requests(rate, n_requests, seed, serving, traffic)
    assignment = assign_replicas(
        requests,
        n_replicas,
        cluster.balancer,
        cost_model=cost_model,
        planner=planner,
    )
    runs: list[CosimResult] = []
    for replica in range(n_replicas):
        subset = [r for r, a in zip(requests, assignment) if a == replica]
        if not subset:
            continue
        if planner is None:
            served = make_estimator(cost_model, scheme, serving).serve(subset)
            runs.append(
                CosimResult(
                    scheme, converged=True, open_loop=served, closed_loop=served
                )
            )
            continue
        backend = ShardedDramBackend(
            planner.config,
            n_devices=cluster.devices_per_replica,
            policy=policy,
            planner=planner,
            window=loop.scheduler_window,
            activation_bytes_per_token=cluster.activation_bytes_per_token,
            hot_fraction=cluster.hot_fraction,
            executor=executor,
        )
        driver = CosimDriver(
            cost_model,
            scheme,
            planner,
            serving=serving,
            loop=loop,
            backend=backend,
            drain_memo=drain_memo,
        )
        runs.append(driver.run(subset))
    if not runs:
        raise ValueError(f"no replica received requests at rate {rate}")
    if len(runs) == 1:
        # One replica reports its run verbatim: the single-device
        # sweep is this case, not a copy of it.
        return _point_from_run(rate, runs[0], traffic), runs[0]
    return _merged_point(rate, runs, traffic), None
