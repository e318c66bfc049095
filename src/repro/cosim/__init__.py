"""Closed-loop serving <-> DRAM co-simulation.

The serving simulator and the cycle-level memory controller each model
half of the system; this package runs them as one: a fixed-point loop
(:class:`CosimDriver`, one loop for both serving engines, configured
by :class:`repro.experiments.ServingConfig` and
:class:`repro.experiments.LoopConfig`) feeds measured DRAM queueing
back into the serving cost model, an expert-faithful replay planner
(:class:`ExpertReplayPlanner`) targets the weight regions of the
experts each request actually activated, and a load-sweep runner
(:func:`run_load_sweep`) produces the closed-loop tail-latency
hockey stick across an offered-load grid.  The DRAM side is
:class:`repro.cluster.ShardedDramBackend` with one device: a
single-device run is the one-replica, one-device case of the cluster
path, not a second implementation of it.  CLI surface: ``repro
cosim`` and ``repro cosim sweep``.
"""

from repro.cosim.driver import (
    CosimDriver,
    CosimIteration,
    CosimResult,
    small_cosim_dram,
)
from repro.cosim.replay import (
    PHASE_DECODE,
    PHASE_PREFILL,
    ExpertReplayPlanner,
    ReplayTrace,
    SyntheticReplayPlanner,
)
from repro.cosim.sweep import (
    SWEEP_CKPT_SUFFIX,
    SWEEP_FORMAT_VERSION,
    SweepInterrupted,
    SweepPoint,
    SweepResult,
    format_sweep,
    run_load_sweep,
    slo_capacity,
)

__all__ = [
    "PHASE_DECODE",
    "PHASE_PREFILL",
    "SWEEP_CKPT_SUFFIX",
    "SWEEP_FORMAT_VERSION",
    "CosimDriver",
    "CosimIteration",
    "CosimResult",
    "ExpertReplayPlanner",
    "ReplayTrace",
    "SweepInterrupted",
    "SweepPoint",
    "SweepResult",
    "SyntheticReplayPlanner",
    "format_sweep",
    "run_load_sweep",
    "slo_capacity",
    "small_cosim_dram",
]
