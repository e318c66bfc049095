"""Execute one :class:`ExperimentConfig`.

:func:`build_components` turns the declarative config into the live
objects the simulation layers consume (cost model, scheme, replay
planner); :func:`run_experiment` dispatches on ``config.mode`` to the
single-replica rate sweep or the cluster capacity grid, handing both
the config's own ``serving`` and ``loop`` layers -- the one source of
every engine and fixed-point knob.  Both runners execute their grid
through one point loop (:func:`repro.cosim.sweep.run_sweep_grid`),
so checkpoint/resume, worker pools and failed-point isolation apply
in either mode.  Both CLI sweep subcommands and programmatic callers
go through here, so a config file reproduces a CLI run exactly.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.cluster.sweep import ClusterSweepResult, run_cluster_sweep
from repro.core.strategies import Scheme
from repro.cosim.sweep import SweepResult, run_load_sweep
from repro.experiments.config import ExperimentConfig
from repro.serving.simulator import CostModel


def build_components(config: ExperimentConfig) -> tuple[CostModel, Scheme, object]:
    """(cost_model, scheme, planner) for one experiment."""
    from repro.cosim.replay import ExpertReplayPlanner, SyntheticReplayPlanner
    from repro.workloads import WORKLOADS

    scheme = Scheme(config.scheme)
    dram = config.replay.dram_config()

    if config.cost.synthetic:
        cost = CostModel(
            encode_seconds_per_token=config.cost.encode_us * 1e-6,
            decode_seconds_per_token=config.cost.decode_us * 1e-6,
        )
    else:
        workload = WORKLOADS[config.cost.workload](batch=1)
        cost = CostModel.from_runtime(
            workload.model, scheme, profile=workload.profile, ref_decode_steps=4
        )

    # A real routing trace overrides the synthetic routing profile;
    # popularity drift swaps in the drifting planner subclass.  Both
    # ride the same expert-faithful replay geometry.
    profile = None
    if config.traffic.routing_trace is not None:
        from repro.traffic.routing_trace import (
            EmpiricalRoutingProfile,
            load_routing_trace,
        )

        profile = EmpiricalRoutingProfile.from_trace(
            load_routing_trace(
                config.traffic.routing_trace, top_k=config.traffic.routing_top_k
            )
        )
    planner_cls = ExpertReplayPlanner
    planner_extra = {}
    if config.traffic.drift_window_requests:
        from repro.traffic.drift import DriftingReplayPlanner

        planner_cls = DriftingReplayPlanner
        planner_extra = {
            "drift_window_requests": config.traffic.drift_window_requests,
            "drift_mix": config.traffic.drift_mix,
        }

    if config.replay.synthetic:
        if profile is not None or planner_extra:
            raise ValueError(
                "routing traces and popularity drift need expert-faithful "
                "replay; unset replay.synthetic"
            )
        planner = SyntheticReplayPlanner(
            dram_config=dram,
            bytes_per_token=config.replay.bytes_per_token,
            max_blocks_per_request=config.replay.max_blocks_per_request,
            seed=config.seed,
        )
    elif config.replay.n_experts is not None:
        planner = planner_cls(
            n_experts=config.replay.n_experts,
            top_k=config.replay.top_k,
            n_moe_layers=config.replay.n_moe_layers,
            profile=profile,
            dram_config=dram,
            bytes_per_token=config.replay.bytes_per_token,
            max_blocks_per_request=config.replay.max_blocks_per_request,
            expert_bytes=config.replay.expert_bytes,
            seed=config.seed,
            **planner_extra,
        )
    else:
        workload = WORKLOADS[config.cost.workload](batch=1)
        planner = planner_cls.for_model(
            workload.model,
            profile=profile if profile is not None else workload.profile,
            dram_config=dram,
            bytes_per_token=config.replay.bytes_per_token,
            max_blocks_per_request=config.replay.max_blocks_per_request,
            seed=config.seed,
            **planner_extra,
        )

    return cost, scheme, planner


def run_experiment(
    config: ExperimentConfig,
    workers: int = 0,
    checkpoint_path=None,
    resume: bool = False,
    on_point: Optional[Callable] = None,
) -> tuple[Union[SweepResult, ClusterSweepResult], object]:
    """Run one experiment end to end.

    Returns ``(result, runs)``: a :class:`~repro.cosim.sweep.SweepResult`
    plus per-rate runs in cosim mode, a
    :class:`~repro.cluster.sweep.ClusterSweepResult` plus a
    ``(replicas, policy) -> runs`` dict in cluster mode.  ``workers``,
    ``checkpoint_path``, ``resume`` and ``on_point`` are execution
    details (not part of the experiment's identity, so not config
    fields).
    """
    cost, scheme, planner = build_components(config)
    slo = config.slo_p99_ms * 1e-3 if config.slo_p99_ms is not None else None
    kwargs = dict(
        n_requests=config.n_requests,
        seed=config.seed,
        serving=config.serving,
        loop=config.loop,
        workers=workers,
        checkpoint_path=checkpoint_path,
        resume=resume,
        on_point=on_point,
        slo_p99_seconds=slo,
        traffic=config.traffic if config.traffic.active else None,
    )
    if config.mode == "cluster":
        return run_cluster_sweep(
            cost, scheme, planner, list(config.rates), cluster=config.cluster, **kwargs
        )
    return run_load_sweep(cost, scheme, planner, list(config.rates), **kwargs)
