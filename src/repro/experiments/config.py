"""Layered experiment configuration.

One :class:`ExperimentConfig` is the complete, serializable recipe for
a co-simulation or cluster experiment -- what seven PRs of CLI flags
accreted, folded into a frozen dataclass hierarchy:

- :class:`CostConfig` -- where per-token serving costs come from
  (runtime-calibrated workload model, or synthetic us/token);
- :class:`ReplayConfig` -- the DRAM side: which config
  (paper LPDDR5X vs the small saturating test config), replay planner
  geometry;
- :class:`ServingConfig` -- the serving engine and its admission
  knobs (absorbs the old ``BatchConfig`` surface) plus the request
  stream shape;
- :class:`LoopConfig` -- fixed-point iteration knobs and the DRAM
  scheduler window;
- :class:`~repro.cluster.config.ClusterConfig` -- fleet shape
  (cluster mode only);
- :class:`TrafficConfig` -- production traffic shaping (time-varying
  load, multi-tenant mixes, popularity drift, real routing traces);
  the default is inactive and preserves the legacy request path
  exactly.

This is the one config source: :class:`~repro.cosim.driver.CosimDriver`,
:func:`~repro.cosim.sweep.run_load_sweep` and
:func:`~repro.cluster.sweep.run_cluster_sweep` read the
:class:`ServingConfig` and :class:`LoopConfig` layers directly, and
every layer validates its own fields on construction, so a bad config
file fails at load time and names the field.  ``to_dict``/``from_dict``
round-trip exactly (unknown keys are rejected, so a typo'd config file
fails loudly instead of silently running defaults), named presets live
in :mod:`repro.experiments.presets`, and
:func:`repro.experiments.runner.run_experiment` executes one config.
The CLI subcommands are thin flag -> config adapters over this API.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

from repro.cluster.config import ClusterConfig
from repro.core.strategies import Scheme


def _check_keys(cls, data: dict, name: str) -> None:
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")


@dataclass(frozen=True)
class CostConfig:
    """Per-token serving cost source.

    With both ``encode_us`` and ``decode_us`` set, costs are synthetic
    (microseconds per token); otherwise they are calibrated from the
    ``workload`` scenario's runtime model under the experiment's
    scheme.
    """

    workload: str = "flores"
    encode_us: Optional[float] = None
    decode_us: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.encode_us is None) != (self.decode_us is None):
            raise ValueError("encode_us and decode_us must be given together")

    @property
    def synthetic(self) -> bool:
        return self.encode_us is not None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CostConfig":
        _check_keys(cls, data, "CostConfig")
        return cls(**data)


@dataclass(frozen=True)
class ReplayConfig:
    """DRAM config reference and replay-planner geometry.

    ``n_experts=None`` sizes the expert-faithful planner from the
    workload's model (the production shape); explicit geometry is what
    the smoke presets pin.  ``synthetic=True`` swaps in the seeded
    synthetic-region planner (no expert model at all).
    """

    #: "lpddr5x" (the paper's LPDDR5X-8533) or "small" (the
    #: test/smoke config whose bandwidth saturates at smoke loads)
    dram: str = "lpddr5x"
    synthetic: bool = False
    bytes_per_token: int = 2048
    max_blocks_per_request: int = 4096
    #: None derives (n_experts, top_k, n_moe_layers, expert_bytes)
    #: from the workload model via ExpertReplayPlanner.for_model
    n_experts: Optional[int] = None
    top_k: int = 2
    n_moe_layers: int = 2
    expert_bytes: int = 1 << 18

    def __post_init__(self) -> None:
        if self.dram not in ("lpddr5x", "small"):
            raise ValueError(f"dram must be 'lpddr5x' or 'small', got {self.dram!r}")
        if self.bytes_per_token < 1 or self.max_blocks_per_request < 1:
            raise ValueError("bytes_per_token and max_blocks_per_request must be >= 1")

    def dram_config(self):
        from repro.cosim.driver import small_cosim_dram
        from repro.dram.config import LPDDR5X_8533

        return small_cosim_dram() if self.dram == "small" else LPDDR5X_8533

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ReplayConfig":
        _check_keys(cls, data, "ReplayConfig")
        return cls(**data)


@dataclass(frozen=True)
class ServingConfig:
    """Serving engine, admission knobs, and request-stream shape
    (absorbs the old standalone ``BatchConfig`` surface)."""

    #: serving model inside the loop: "fifo" (seed behavior, one
    #: scalar surcharge) or "batching" (continuous batching with
    #: distinct prefill/decode surcharges measured from phase bursts)
    engine: str = "fifo"
    arrival: str = "poisson"
    mean_prompt_tokens: int = 512
    mean_decode_tokens: int = 32
    queue_limit: int = 4096
    # batching-engine admission (ignored by fifo); see
    # repro.serving.engine.BatchConfig
    max_batch: int = 8
    prefill_token_budget: int = 4096
    priority: str = "prefill"
    #: fraction of a decode step's serving cost that scales per
    #: request (the rest is the fixed, batch-amortized weight-stream
    #: share); see :class:`repro.serving.engine.PhaseCostModel`
    decode_marginal_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.engine not in ("fifo", "batching"):
            raise ValueError(f"engine must be 'fifo' or 'batching', got {self.engine!r}")
        if self.mean_prompt_tokens < 1 or self.mean_decode_tokens < 0:
            raise ValueError("token means out of range")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.prefill_token_budget < 1:
            raise ValueError("prefill_token_budget must be >= 1")
        if not 0.0 <= self.decode_marginal_fraction <= 1.0:
            raise ValueError("decode_marginal_fraction must be in [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ServingConfig":
        _check_keys(cls, data, "ServingConfig")
        return cls(**data)


@dataclass(frozen=True)
class TenantConfig:
    """One tenant in a multi-tenant request mix.

    ``share`` is the tenant's fraction of the offered load; token
    means override the experiment-wide ones for this tenant's
    requests; ``slo_p99_ms`` is the tenant's own closed-loop p99
    threshold (reported per tenant in sweep output; ``None`` means the
    tenant rides the shared SLO only).
    """

    name: str
    share: float
    mean_prompt_tokens: int = 512
    mean_decode_tokens: int = 32
    slo_p99_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.share <= 0:
            raise ValueError("tenant share must be positive")
        if self.mean_prompt_tokens < 1 or self.mean_decode_tokens < 0:
            raise ValueError("tenant token means out of range")
        if self.slo_p99_ms is not None and self.slo_p99_ms <= 0:
            raise ValueError("tenant slo_p99_ms must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TenantConfig":
        _check_keys(cls, data, "TenantConfig")
        return cls(**data)


@dataclass(frozen=True)
class TrafficConfig:
    """Production traffic shaping over the seeded request stream.

    The default (``steady`` shape, no tenants, no drift, no trace) is
    *inactive*: the experiment runs the exact legacy request path, so
    every existing preset, checkpoint fingerprint, and bit-identity
    anchor is untouched.  Any non-default field routes request
    generation through :mod:`repro.traffic`.

    - ``shape`` + its knobs: time-varying rate modulation
      (:mod:`repro.traffic.shapes`), expressed in fractions of the
      request horizon so the same scenario is meaningful at smoke and
      production rates alike.
    - ``drift_window_requests``/``drift_mix``: expert-popularity drift
      (:mod:`repro.traffic.drift`); 0 windows disables drift.
    - ``tenants``: multi-tenant mix with per-tenant token means and
      SLO thresholds (per-tenant tail columns in sweep output).
    - ``routing_trace``: path to a real routing-trace CSV; its
      empirical per-layer popularity parameterizes the replay planner
      instead of the synthetic profile.
    """

    shape: str = "steady"
    # diurnal knobs
    period_fraction: float = 1.0
    trough: float = 0.25
    peak: float = 1.75
    # flash-crowd knobs (fractions of the horizon; magnitude is a
    # rate multiplier inside the window)
    flash_at: float = 0.5
    flash_duration: float = 0.1
    flash_magnitude: float = 8.0
    # popularity drift
    drift_window_requests: int = 0
    drift_mix: float = 0.5
    # multi-tenant mix
    tenants: tuple[TenantConfig, ...] = ()
    # real routing trace
    routing_trace: Optional[str] = None
    routing_top_k: int = 2

    def __post_init__(self) -> None:
        if self.shape not in ("steady", "diurnal", "flash_crowd"):
            raise ValueError(
                "shape must be 'steady', 'diurnal', or 'flash_crowd', "
                f"got {self.shape!r}"
            )
        if self.period_fraction <= 0:
            raise ValueError("period_fraction must be positive")
        if not 0 < self.trough <= self.peak:
            raise ValueError("need 0 < trough <= peak")
        if not 0.0 <= self.flash_at < 1.0:
            raise ValueError("flash_at must be in [0, 1)")
        if not 0.0 < self.flash_duration <= 1.0 - self.flash_at:
            raise ValueError("flash_duration must be in (0, 1 - flash_at]")
        if self.flash_magnitude <= 0:
            raise ValueError("flash_magnitude must be positive")
        if self.drift_window_requests < 0:
            raise ValueError("drift_window_requests must be >= 0")
        if not 0.0 <= self.drift_mix <= 1.0:
            raise ValueError("drift_mix must be in [0, 1]")
        if self.routing_top_k < 1:
            raise ValueError("routing_top_k must be >= 1")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")

    @property
    def active(self) -> bool:
        """False iff this config is the do-nothing default (legacy
        request path, bit-identical to pre-traffic behavior)."""
        return bool(
            self.shape != "steady"
            or self.tenants
            or self.drift_window_requests
            or self.routing_trace
        )

    def load_shape(self):
        """The composed :class:`repro.traffic.shapes.LoadShape` for
        this config, or ``None`` for steady traffic."""
        from repro.traffic.shapes import DiurnalShape, FlashCrowdShape

        if self.shape == "diurnal":
            return DiurnalShape(
                period_fraction=self.period_fraction,
                trough=self.trough,
                peak=self.peak,
            )
        if self.shape == "flash_crowd":
            return FlashCrowdShape(
                at=self.flash_at,
                duration=self.flash_duration,
                magnitude=self.flash_magnitude,
            )
        return None

    def to_dict(self) -> dict:
        data = asdict(self)
        data["tenants"] = [t.to_dict() for t in self.tenants]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TrafficConfig":
        _check_keys(cls, data, "TrafficConfig")
        kwargs = dict(data)
        if "tenants" in kwargs:
            kwargs["tenants"] = tuple(
                t if isinstance(t, TenantConfig) else TenantConfig.from_dict(t)
                for t in kwargs["tenants"]
            )
        return cls(**kwargs)


@dataclass(frozen=True)
class LoopConfig:
    """Fixed-point loop knobs.

    ``damping`` scales each update toward the newly measured per-token
    surcharge (1.0 = undamped) while the loop is still searching for
    an upper bound on the fixed point.  The measured surcharge is
    monotone *decreasing* in the applied surcharge (more surcharge
    spreads bursts apart, so they contend less), so once some
    iteration measures less contention than it applied the fixed
    point is bracketed and the search switches to bisection -- near
    memory saturation the map is stiff (a small surcharge change
    flips bursts between fully packed and fully spread) and plain
    damped iteration limit-cycles where bisection contracts
    geometrically.  ``damping_decay`` shrinks the damped step each
    iteration (see :meth:`step`) as a safety net when a noisy
    measurement breaks the bracket.  The loop stops once the relative
    change in serving p99 between iterations falls below
    ``p99_tolerance`` (or after ``max_iterations``).
    """

    damping: float = 0.6
    damping_decay: float = 0.5
    max_iterations: int = 8
    p99_tolerance: float = 0.02
    scheduler_window: int = 64

    def __post_init__(self) -> None:
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")
        if self.damping_decay < 0:
            raise ValueError("damping_decay must be non-negative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.p99_tolerance < 0:
            raise ValueError("p99_tolerance must be non-negative")

    def step(self, iteration: int) -> float:
        """Damped update step size for the given iteration index:
        ``damping / (1 + iteration * damping_decay)``."""
        return self.damping / (1.0 + iteration * self.damping_decay)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "LoopConfig":
        _check_keys(cls, data, "LoopConfig")
        return cls(**data)


@dataclass(frozen=True)
class ExperimentConfig:
    """The complete recipe for one experiment run."""

    #: "cosim" (single-replica rate sweep) or "cluster"
    #: (replica x sharding-policy capacity grid)
    mode: str = "cosim"
    scheme: str = "md+lb"
    seed: int = 1
    n_requests: int = 100
    rates: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    #: closed-loop p99 SLO threshold for the capacity answer
    #: (milliseconds; None auto-derives 5x the uncongested p99)
    slo_p99_ms: Optional[float] = None
    cost: CostConfig = field(default_factory=CostConfig)
    replay: ReplayConfig = field(default_factory=ReplayConfig)
    serving: ServingConfig = field(default_factory=ServingConfig)
    loop: LoopConfig = field(default_factory=LoopConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)

    def __post_init__(self) -> None:
        if self.mode not in ("cosim", "cluster"):
            raise ValueError(f"mode must be 'cosim' or 'cluster', got {self.mode!r}")
        Scheme(self.scheme)  # raises on unknown scheme
        if self.n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if not self.rates:
            raise ValueError("rates must be non-empty")
        if sorted(self.rates) != list(self.rates):
            raise ValueError("rates must be sorted ascending")

    # -- codec -------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "scheme": self.scheme,
            "seed": self.seed,
            "n_requests": self.n_requests,
            "rates": list(self.rates),
            "slo_p99_ms": self.slo_p99_ms,
            "cost": self.cost.to_dict(),
            "replay": self.replay.to_dict(),
            "serving": self.serving.to_dict(),
            "loop": self.loop.to_dict(),
            "cluster": self.cluster.to_dict(),
            "traffic": self.traffic.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        _check_keys(cls, data, "ExperimentConfig")
        kwargs = dict(data)
        if "rates" in kwargs:
            kwargs["rates"] = tuple(float(r) for r in kwargs["rates"])
        for key, sub in (
            ("cost", CostConfig),
            ("replay", ReplayConfig),
            ("serving", ServingConfig),
            ("loop", LoopConfig),
            ("cluster", ClusterConfig),
            ("traffic", TrafficConfig),
        ):
            if key in kwargs and isinstance(kwargs[key], dict):
                kwargs[key] = sub.from_dict(kwargs[key])
        return cls(**kwargs)

    def save(self, path) -> None:
        pathlib.Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(pathlib.Path(path).read_text()))

    def replaced(self, **kwargs) -> "ExperimentConfig":
        """dataclasses.replace passthrough (reads better at call
        sites applying CLI flag overrides)."""
        return replace(self, **kwargs)
