"""repro: a full reproduction of MoNDE (DAC 2024).

MoNDE -- Mixture of Near-Data Experts -- is a CXL near-data-processing
memory system for Mixture-of-Experts (MoE) LLM inference.  This package
implements the paper's contribution and every substrate it depends on:

- :mod:`repro.moe` -- a pure-NumPy MoE Transformer (gating, dropless
  dispatch, expert FFNs, attention, encoder/decoder blocks, model zoo).
- :mod:`repro.hw` -- calibrated hardware timing models (GPU roofline,
  PCIe link, CPU memory system, device specs).
- :mod:`repro.dram` -- a Ramulator-style cycle-level DRAM simulator
  (LPDDR5X timing, banks/bank-groups/channels, FR-FCFS scheduling,
  ro-ba-bg-ra-co-ch address mapping).
- :mod:`repro.ndp` -- the MoNDE NDP core: 64x (4x4) MAC systolic arrays,
  SIMD control, scratchpad/operand buffers, output-stationary GEMM
  tiling, NDP/CXL controllers with a 64-byte instruction interface.
- :mod:`repro.core` -- the paper's contribution: PMove/AMove strategies,
  the Eq. 1-6 analytical model, GPU-MoNDE load balancing with the
  auto-tuned ``H`` policy, the execution engine that overlaps hardware
  streams (Fig. 5), and end-to-end runtimes for every evaluated scheme.
- :mod:`repro.workloads` -- synthetic routing traces and batch
  generators calibrated to the paper's measured expert skew (Fig. 3).
- :mod:`repro.traffic` -- the production-traffic subsystem: real
  routing-trace ingestion (CSV -> trace-faithful ``.dramtrace``),
  time-varying load shapes (diurnal, flash crowd, popularity drift),
  and the named multi-tenant scenario zoo, each registered as an
  experiment preset.
- :mod:`repro.cosim` -- closed-loop serving<->DRAM co-simulation: the
  fixed-point driver, expert-faithful replay, and load-sweep runner.
- :mod:`repro.cluster` -- cluster-scale sharded serving simulation:
  N replicas behind a load balancer, experts sharded across NDP
  devices, replica x policy capacity curves.
- :mod:`repro.experiments` -- the unified experiment-config API: one
  serializable :class:`ExperimentConfig` describes a cosim or cluster
  run; presets and ``run_experiment`` execute it.
- :mod:`repro.analysis` -- characterization (Fig. 2), area/power
  (Table 3), and report helpers.
- :mod:`repro.sim` -- the discrete-event kernel and stream timeline
  calculus shared by the system-level models.
"""

__version__ = "1.0.0"

__all__ = [
    "BatchingEngine",
    "ClusterConfig",
    "CosimDriver",
    "ExperimentConfig",
    "InferenceConfig",
    "LoopConfig",
    "MoNDERuntime",
    "SCENARIOS",
    "Scheme",
    "SchemeResult",
    "ServingConfig",
    "ServingSimulator",
    "TrafficConfig",
    "__version__",
    "get_preset",
    "load_routing_trace",
    "run_cluster_sweep",
    "run_experiment",
    "run_load_sweep",
]

_LAZY = {
    "BatchingEngine": ("repro.serving.engine", "BatchingEngine"),
    "ClusterConfig": ("repro.cluster.config", "ClusterConfig"),
    "CosimDriver": ("repro.cosim.driver", "CosimDriver"),
    "ExperimentConfig": ("repro.experiments.config", "ExperimentConfig"),
    "InferenceConfig": ("repro.core.runtime", "InferenceConfig"),
    "LoopConfig": ("repro.experiments.config", "LoopConfig"),
    "MoNDERuntime": ("repro.core.runtime", "MoNDERuntime"),
    "SCENARIOS": ("repro.traffic.scenarios", "SCENARIOS"),
    "SchemeResult": ("repro.core.runtime", "SchemeResult"),
    "Scheme": ("repro.core.strategies", "Scheme"),
    "ServingConfig": ("repro.experiments.config", "ServingConfig"),
    "ServingSimulator": ("repro.serving.simulator", "ServingSimulator"),
    "TrafficConfig": ("repro.experiments.config", "TrafficConfig"),
    "get_preset": ("repro.experiments.presets", "get_preset"),
    "load_routing_trace": ("repro.traffic.routing_trace", "load_routing_trace"),
    "run_cluster_sweep": ("repro.cluster.sweep", "run_cluster_sweep"),
    "run_experiment": ("repro.experiments.runner", "run_experiment"),
    "run_load_sweep": ("repro.cosim.sweep", "run_load_sweep"),
}


def __getattr__(name: str):
    """Lazily re-export the top-level API (PEP 562) so that importing
    a leaf subpackage does not pull in the whole dependency tree."""
    if name in _LAZY:
        import importlib

        module_name, attr = _LAZY[name]
        return getattr(importlib.import_module(module_name), attr)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
