"""Offered-load sweep over the closed serving <-> DRAM loop.

Drives :class:`~repro.cosim.driver.CosimDriver` across an
arrival-rate grid and records, per rate, the open-loop (iteration-0)
and converged closed-loop serving latency curves plus the DRAM-side
queueing measurements -- the memory-level tail-latency hockey stick.
Results serialize to a versioned JSON document (same versioning
conventions as :mod:`repro.workloads.serialization`) and render as a
table via :mod:`repro.analysis.report`.

:func:`run_sweep_grid` is the one sweep executor and
:func:`repro.cluster.sweep._run_cluster_point` the one point function:
this module's one-curve grid (curve key ``()``) runs as that
function's one-replica, one-device curve, and
:func:`repro.cluster.sweep.run_cluster_sweep` runs its (replicas,
policy, rate) grid through it.  Fault tolerance lives in the
executor, so both runners get it:
with a ``checkpoint_path``, every completed point is durably appended
to a ``*.sweep.ckpt`` sidecar (JSONL, one fsynced line per point,
keyed by its grid key) the moment it finishes, SIGINT/SIGTERM raise
:class:`SweepInterrupted` *between* points (never mid-checkpoint), and
``resume=True`` loads the checkpoint, skips its completed points, and
produces output bit-identical to an uninterrupted sweep -- each point
is seeded independently, so partial progress composes exactly.  A
point that *fails* (its request generation or cosim run raises) is
isolated: it is recorded as a ``failed`` point with the error string
and the sweep continues.
"""

from __future__ import annotations

import json
import logging
import pathlib
import signal
import threading
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from repro.analysis.report import format_table
from repro.core.strategies import Scheme
from repro.dram.busy_period import SegmentMemo
from repro.dram.resilience import ResilienceReport
from repro.serving.simulator import CostModel
from repro.serving.workload import RequestGenerator
from repro.util.atomic_io import atomic_write_json, durable_append
from repro.workloads.serialization import check_format_version

from repro.cosim.driver import CosimResult, config_layers

SWEEP_FORMAT_VERSION = 1
SWEEP_CKPT_VERSION = 2
SWEEP_CKPT_SUFFIX = ".sweep.ckpt"

logger = logging.getLogger(__name__)


class SweepInterrupted(RuntimeError):
    """A load sweep stopped early -- a SIGINT/SIGTERM landed between
    rate points, or an injected interruption fired.  Every completed
    point was already durably checkpointed when this is raised, so
    rerunning with ``resume=True`` continues where the sweep left
    off."""


@dataclass(frozen=True)
class SweepPoint:
    """One offered-load point: open-loop vs converged closed-loop."""

    rate: float
    open_p50: float
    open_p99: float
    open_max: float
    closed_p50: float
    closed_p99: float
    closed_max: float
    utilization: float
    completed: int
    rejected: int
    n_iterations: int
    converged: bool
    extra_seconds_per_token: float
    dram_queue_delay_mean: float
    dram_queue_delay_p99: float
    dram_idle_cycles: int
    dram_total_cycles: int
    # Additive fields with defaults (same format version: old readers
    # never see them missing, old documents load with the defaults).
    #: |measured - applied| surcharge of the reported iterate; sizes
    #: how far from a true fixed point a non-converged point stopped
    residual_seconds_per_token: float = 0.0
    #: True when this point's cosim run raised instead of completing
    #: (all metric fields are zero); the sweep carried on without it
    failed: bool = False
    #: the raising exception, as ``TypeName: message`` (empty if ok)
    error: str = ""
    # Per-phase closed-loop latency columns (batching engine; the
    # fifo path fills TTFT/queue-delay from its coalesced steps and
    # leaves the surcharge split at zero).
    #: closed-loop time-to-first-token p99 (seconds)
    closed_ttft_p99: float = 0.0
    #: closed-loop admission-delay p99 (seconds)
    closed_queue_delay_p99: float = 0.0
    #: closed-loop per-output-token decode latency p99 (seconds)
    closed_tpot_p99: float = 0.0
    #: distinct per-phase surcharges of the reported iterate
    extra_prefill_seconds_per_token: float = 0.0
    extra_decode_seconds_per_token: float = 0.0
    # Traffic-scenario columns (populated only for sweeps driven by an
    # active repro.traffic configuration; empty/zero otherwise).
    #: per-tenant closed-loop latency p99 (seconds), keyed by tenant
    tenant_closed_p99: dict = field(default_factory=dict)
    #: per-tenant completed-request counts, keyed by tenant
    tenant_completed: dict = field(default_factory=dict)
    #: closed-loop latency p99 of requests arriving inside the
    #: flash-crowd window (flash_crowd shapes only)
    closed_flash_p99: float = 0.0
    #: closed-loop latency p99 of requests arriving outside the window
    closed_steady_p99: float = 0.0


@dataclass
class SweepResult:
    """A full rate grid, serializable and renderable."""

    scheme: str
    arrival: str
    n_requests: int
    seed: int
    points: list[SweepPoint] = field(default_factory=list)
    #: free-form provenance (cost model, planner geometry, loop knobs)
    config: dict = field(default_factory=dict)
    # Additive fields with defaults (format version unchanged).
    #: serving model the sweep ran: "fifo" or "batching"
    engine: str = "fifo"
    #: closed-loop p99 threshold the capacity answer used (seconds;
    #: auto-derived as 5x the lowest-rate closed p99 unless given)
    slo_p99_seconds: float = 0.0
    #: max sustained offered load with closed p99 under the threshold
    #: (req/s, linearly interpolated to the crossing; 0 when even the
    #: lowest grid rate violates the SLO)
    slo_capacity_rps: float = 0.0
    #: True when the threshold was auto-derived rather than user-given
    slo_auto: bool = True
    #: per-tenant closed-loop p99 SLO thresholds (milliseconds) from
    #: the traffic scenario, keyed by tenant name (empty when the
    #: sweep ran without tenants)
    tenant_slo_p99_ms: dict = field(default_factory=dict)

    # -- codec -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": SWEEP_FORMAT_VERSION,
            "kind": "cosim_sweep",
            "scheme": self.scheme,
            "arrival": self.arrival,
            "n_requests": self.n_requests,
            "seed": self.seed,
            "engine": self.engine,
            "slo_p99_seconds": self.slo_p99_seconds,
            "slo_capacity_rps": self.slo_capacity_rps,
            "slo_auto": self.slo_auto,
            "tenant_slo_p99_ms": self.tenant_slo_p99_ms,
            "config": self.config,
            "points": [asdict(p) for p in self.points],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepResult":
        check_format_version(data.get("version"), SWEEP_FORMAT_VERSION, "cosim sweep")
        if data.get("kind") != "cosim_sweep":
            raise ValueError(
                f"not a cosim sweep document (kind={data.get('kind')!r})"
            )
        return cls(
            scheme=data["scheme"],
            arrival=data["arrival"],
            n_requests=int(data["n_requests"]),
            seed=int(data["seed"]),
            engine=str(data.get("engine", "fifo")),
            slo_p99_seconds=float(data.get("slo_p99_seconds", 0.0)),
            slo_capacity_rps=float(data.get("slo_capacity_rps", 0.0)),
            slo_auto=bool(data.get("slo_auto", True)),
            tenant_slo_p99_ms=dict(data.get("tenant_slo_p99_ms", {})),
            config=dict(data.get("config", {})),
            points=[SweepPoint(**p) for p in data["points"]],
        )

    def save(self, path) -> None:
        # Atomic + durable: a sweep that ran for hours never loses its
        # previous result to a crash mid-serialize.
        atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "SweepResult":
        return cls.from_dict(json.loads(pathlib.Path(path).read_text()))


def format_sweep(result: SweepResult) -> str:
    """The hockey-stick table: open vs closed tails across the grid,
    with the closed loop's per-phase tails (TTFT, queue delay)."""
    rows = []
    for p in result.points:
        rows.append(
            [
                p.rate,
                p.open_p50,
                p.open_p99,
                p.closed_p50,
                p.closed_p99,
                p.closed_ttft_p99,
                p.closed_queue_delay_p99,
                round(p.closed_p99 / p.open_p99, 3) if p.open_p99 > 0 else 1.0,
                p.n_iterations,
                "FAILED" if p.failed else ("yes" if p.converged else "NO"),
                round(p.dram_queue_delay_p99, 1),
                p.dram_idle_cycles,
            ]
        )
    header = [
        "req/s",
        "open p50",
        "open p99",
        "closed p50",
        "closed p99",
        "ttft p99",
        "qdelay p99",
        "p99 ratio",
        "iters",
        "conv",
        "dram qd p99",
        "dram idle",
    ]
    return format_table(header, rows)


def slo_capacity(points: list[SweepPoint], p99_threshold: float) -> float:
    """Max sustained offered load (req/s) whose closed-loop p99 stays
    under ``p99_threshold`` seconds.

    Walks the (ascending) rate grid to the first point violating the
    threshold and interpolates the crossing rate linearly between the
    last compliant point and the violator -- the standard way an SLO
    capacity is read off a load-sweep curve.  Returns the highest grid
    rate when every point complies, and 0.0 when even the lowest rate
    violates (failed points are treated as violations).
    """
    if p99_threshold <= 0:
        raise ValueError("p99_threshold must be positive")
    last_ok: Optional[SweepPoint] = None
    for p in points:
        if p.failed or p.closed_p99 >= p99_threshold:
            if last_ok is None:
                return 0.0
            if p.failed or p.closed_p99 <= last_ok.closed_p99:
                return last_ok.rate
            frac = (p99_threshold - last_ok.closed_p99) / (
                p.closed_p99 - last_ok.closed_p99
            )
            return last_ok.rate + frac * (p.rate - last_ok.rate)
        last_ok = p
    return last_ok.rate if last_ok is not None else 0.0


def point_requests(rate: float, n_requests: int, seed: int, serving, traffic=None):
    """The seeded request stream for one offered-load point.

    Shared by the single-device and cluster runners: offered load is a
    property of the outside world, so every runner sees the same
    stream at the same rate.  An active ``traffic`` config (tenants /
    load shape) swaps generation to
    :func:`repro.traffic.generate.generate_requests`; ``traffic=None``
    keeps the legacy single-tenant stream exactly.
    """
    if traffic is not None:
        from repro.traffic.generate import generate_requests

        requests = generate_requests(
            rate,
            n_requests,
            mean_prompt_tokens=serving.mean_prompt_tokens,
            mean_decode_tokens=serving.mean_decode_tokens,
            seed=seed,
            arrival=serving.arrival,
            traffic=traffic,
        )
    else:
        requests = RequestGenerator(
            rate,
            mean_prompt_tokens=serving.mean_prompt_tokens,
            mean_decode_tokens=serving.mean_decode_tokens,
            seed=seed,
            arrival=serving.arrival,
        ).generate(n_requests)
    return list(requests)


def sweep_provenance(
    cost_model: CostModel, planner, serving, loop, traffic=None, **extra
) -> dict:
    """The ``config`` provenance block of a sweep document, shared by
    the single-device and cluster runners.

    ``extra`` keys (runner-specific) follow the common keys; the
    batching admission knobs are recorded only for the batching
    engine and the traffic scenario only when one is active, so fifo
    legacy documents and their checkpoint fingerprints keep their
    exact keys.
    """
    config = {
        "damping": loop.damping,
        "max_iterations": loop.max_iterations,
        "p99_tolerance": loop.p99_tolerance,
        "bytes_per_token": planner.bytes_per_token if planner is not None else 0,
        "max_blocks_per_request": (
            planner.max_blocks_per_request if planner is not None else 0
        ),
        "dram_channels": (
            planner.config.organization.n_channels if planner is not None else 0
        ),
        "encode_seconds_per_token": cost_model.encode_seconds_per_token,
        "decode_seconds_per_token": cost_model.decode_seconds_per_token,
        "mean_prompt_tokens": serving.mean_prompt_tokens,
        "mean_decode_tokens": serving.mean_decode_tokens,
        "engine": serving.engine,
        **extra,
    }
    if serving.engine == "batching":
        config.update(
            {
                "max_batch": serving.max_batch,
                "priority": serving.priority,
                "prefill_token_budget": serving.prefill_token_budget,
                "decode_marginal_fraction": serving.decode_marginal_fraction,
            }
        )
    if traffic is not None:
        config["traffic"] = traffic.to_dict()
    return config


def _traffic_columns(closed, traffic) -> dict:
    """Per-tenant and flash-window latency columns for one closed run.

    Empty when the sweep ran without an active traffic config (the
    legacy path), so the plain columns are untouched.  The flash
    window is expressed in fractions of the request horizon -- the
    same coordinates :class:`~repro.traffic.shapes.FlashCrowdShape`
    warped the arrivals into.
    """
    import numpy as np

    cols: dict = {}
    if traffic is None or not closed.completed:
        return cols
    if traffic.tenants:
        by_tenant: dict[str, list[float]] = {}
        for c in closed.completed:
            by_tenant.setdefault(c.request.tenant, []).append(c.latency)
        cols["tenant_closed_p99"] = {
            name: float(np.percentile(lats, 99))
            for name, lats in sorted(by_tenant.items())
        }
        cols["tenant_completed"] = {
            name: len(lats) for name, lats in sorted(by_tenant.items())
        }
    if traffic.shape == "flash_crowd":
        horizon = max(c.request.arrival for c in closed.completed)
        lo = traffic.flash_at * horizon
        hi = (traffic.flash_at + traffic.flash_duration) * horizon
        flash = [
            c.latency for c in closed.completed if lo <= c.request.arrival < hi
        ]
        steady = [
            c.latency
            for c in closed.completed
            if not (lo <= c.request.arrival < hi)
        ]
        if flash:
            cols["closed_flash_p99"] = float(np.percentile(flash, 99))
        if steady:
            cols["closed_steady_p99"] = float(np.percentile(steady, 99))
    return cols


def _point_from_run(rate: float, run: CosimResult, traffic=None) -> SweepPoint:
    """Collapse one closed-loop run into its sweep-grid point."""
    open_loop, closed = run.open_loop, run.closed_loop
    last = run.iterations[-1] if run.iterations else None
    return SweepPoint(
        rate=rate,
        open_p50=open_loop.latency_percentile(50),
        open_p99=open_loop.latency_percentile(99),
        open_max=open_loop.latency_percentile(100),
        closed_p50=closed.latency_percentile(50),
        closed_p99=closed.latency_percentile(99),
        closed_max=closed.latency_percentile(100),
        utilization=closed.utilization,
        completed=closed.n_completed,
        rejected=closed.rejected,
        n_iterations=run.n_iterations,
        converged=run.converged,
        extra_seconds_per_token=run.extra_seconds_per_token,
        dram_queue_delay_mean=last.dram_queue_delay_mean if last else 0.0,
        dram_queue_delay_p99=last.dram_queue_delay_p99 if last else 0.0,
        dram_idle_cycles=last.dram_idle_cycles if last else 0,
        dram_total_cycles=last.dram_total_cycles if last else 0,
        residual_seconds_per_token=run.residual_seconds_per_token,
        closed_ttft_p99=closed.ttft_percentile(99),
        closed_queue_delay_p99=closed.queue_delay_percentile(99),
        closed_tpot_p99=closed.tpot_percentile(99),
        extra_prefill_seconds_per_token=run.extra_prefill_seconds_per_token,
        extra_decode_seconds_per_token=run.extra_decode_seconds_per_token,
        **_traffic_columns(closed, traffic),
    )


def _failed_point(rate: float, exc: BaseException) -> SweepPoint:
    """The all-zero placeholder recorded when one grid point's cosim
    run raises: the failure is named, the sweep goes on."""
    return SweepPoint(
        rate=rate,
        open_p50=0.0,
        open_p99=0.0,
        open_max=0.0,
        closed_p50=0.0,
        closed_p99=0.0,
        closed_max=0.0,
        utilization=0.0,
        completed=0,
        rejected=0,
        n_iterations=0,
        converged=False,
        extra_seconds_per_token=0.0,
        dram_queue_delay_mean=0.0,
        dram_queue_delay_p99=0.0,
        dram_idle_cycles=0,
        dram_total_cycles=0,
        failed=True,
        error=f"{type(exc).__name__}: {exc}",
    )


def _run_point(point_fn: Callable, key: tuple, point_kwargs: dict) -> tuple:
    """Run one grid point, serially or in a pool worker.  A raising
    point becomes its failed placeholder right here, so the pool never
    retries it and its error string is the serial run's."""
    try:
        return point_fn(*key, **point_kwargs)
    except SweepInterrupted:
        raise
    except Exception as exc:
        logger.warning("sweep point %s failed: %s", key, exc)
        return _failed_point(key[-1], exc), None


def load_checkpoint(path, fingerprint: dict) -> dict[tuple, SweepPoint]:
    """Read a ``*.sweep.ckpt`` sidecar; returns completed points by
    grid key (the curve key followed by the rate).

    The checkpoint's fingerprint (scheme / grid / seed / config, and
    the cluster layer for cluster sweeps) must match this sweep's
    exactly -- resuming against a different configuration would splice
    incomparable points into one document.  A torn final line (the
    crash-mid-append shape; each line is fsynced *after* it is fully
    written, so only the tail can tear) is ignored: that point simply
    reruns.
    """
    path = pathlib.Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty sweep checkpoint")
    header = json.loads(lines[0])
    check_format_version(
        header.get("version"), SWEEP_CKPT_VERSION, "sweep checkpoint"
    )
    if header.get("kind") != "sweep_ckpt":
        raise ValueError(
            f"{path}: not a sweep checkpoint (kind={header.get('kind')!r})"
        )
    if header.get("fingerprint") != fingerprint:
        raise ValueError(
            f"{path}: checkpoint fingerprint does not match this sweep "
            "(different grid, seed, or config); delete the checkpoint or "
            "rerun without resume"
        )
    done: dict[tuple, SweepPoint] = {}
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            key = tuple(record["key"])
            point = SweepPoint(**record["point"])
        except (ValueError, KeyError, TypeError) as exc:
            if i == len(lines):
                logger.warning(
                    "%s: ignoring torn final checkpoint line (%s); "
                    "that point will rerun",
                    path,
                    exc,
                )
                break
            raise ValueError(f"{path}: corrupt checkpoint line {i}: {exc}") from exc
        done[key] = point
    return done


def run_sweep_grid(
    result,
    curves: dict,
    rates: list[float],
    point_fn: Callable,
    point_kwargs: dict,
    workers: int = 0,
    checkpoint_path=None,
    resume: bool = False,
    on_point: Optional[Callable[[float, SweepPoint], None]] = None,
    slo_p99_seconds: Optional[float] = None,
) -> dict[tuple, CosimResult]:
    """Execute every (curve, rate) point of a sweep grid: the one point
    loop behind :func:`run_load_sweep` and
    :func:`repro.cluster.sweep.run_cluster_sweep`.

    ``curves`` maps each curve key (``()`` for the single-device
    sweep's one curve) to an object with ``points`` and
    ``slo_capacity_rps``.  Each point runs the module-level
    ``point_fn(*curve_key, rate, **point_kwargs)``, which returns
    ``(SweepPoint, CosimResult or None)``.  ``point_kwargs`` gains a
    ``drain_memo``: one :class:`~repro.dram.busy_period.SegmentMemo` per
    call, handed to every point's driver (a pooled point gets its own
    copy), so one sweep drains each repeated busy period of its main
    and isolation drains once while separate sweeps share nothing.
    ``result`` is the document being filled: its header fingerprints
    the checkpoint, and it receives the SLO threshold.  Returns the
    live :class:`CosimResult` of every freshly run point by grid key
    (``curve_key + (rate,)``).

    ``workers`` >= 2 opens one pool for the sweep.  While two or more
    points remain, they run on a :class:`~repro.util.pool.SupervisedPool`
    (a dead worker's point is rerun; one that kills its worker on every
    attempt is recorded as failed).  A lone remaining point instead
    gets a :class:`~repro.dram.parallel.ParallelDrainExecutor` for its
    DRAM drains, as ``point_kwargs["executor"]``.  Either way the
    output is bit-identical to the serial run.

    ``checkpoint_path`` enables durable progress: each completed point
    is fsync-appended to the sidecar the moment it finishes, SIGINT /
    SIGTERM raise :class:`SweepInterrupted` between points, and
    ``resume=True`` loads matching completed points (fingerprint-
    checked) instead of rerunning them -- the assembled result is
    bit-identical to an uninterrupted sweep.  The sidecar is removed
    once the whole grid completes.  A grid point whose call raises
    (request generation included) is recorded as a ``failed`` point
    (and checkpointed as such, so resume does not retry it); the rest
    of the sweep continues.  ``on_point(rate, point)`` is called after
    each completed point's checkpoint is durable -- the hook the
    fault-injection harness uses to interrupt at exact point counts.

    One SLO threshold serves every curve so curves are comparable:
    ``slo_p99_seconds`` if given (recorded even when every point
    failed), else 5x the closed p99 of the first curve's lowest-rate
    completed point -- "how far can load grow before the tail is 5x
    the uncongested tail".  Each curve's capacity is read against it
    with :func:`slo_capacity` over all its points, so a failed point
    caps the capacity as a violation would.
    """
    if not rates:
        raise ValueError("rates must be non-empty")
    if sorted(rates) != list(rates):
        raise ValueError("rates must be sorted ascending")
    if workers < 0:
        raise ValueError("workers must be non-negative")
    if slo_p99_seconds is not None and slo_p99_seconds <= 0:
        raise ValueError("slo_p99_seconds must be positive")
    grid = [curve + (rate,) for curve in curves for rate in rates]
    # The document header (scheme, seed, config, cluster layer, curve
    # keys) plus the rate grid: a checkpoint resumes only this sweep.
    fingerprint = {**result.to_dict(), "rates": [float(r) for r in rates]}
    done: dict[tuple, SweepPoint] = {}
    if checkpoint_path is not None:
        checkpoint_path = pathlib.Path(checkpoint_path)
        if resume and checkpoint_path.exists():
            done = load_checkpoint(checkpoint_path, fingerprint)
            if done:
                logger.info(
                    "%s: resuming sweep; %d of %d point(s) already complete",
                    checkpoint_path,
                    len(done),
                    len(grid),
                )
    todo = [key for key in grid if key not in done]
    runs: dict[tuple, CosimResult] = {}
    # One drain memo per sweep: exact, so sharing it across points
    # changes no result, and a fresh one per call keeps runs apart.
    point_kwargs = {**point_kwargs, "drain_memo": SegmentMemo()}
    pool_points = workers >= 2 and len(todo) >= 2
    pool = None
    if pool_points:
        from repro.util.pool import PoolError, SupervisedPool

        pool = SupervisedPool(min(workers, len(todo)))
    elif workers >= 2 and todo:
        from repro.dram.parallel import ParallelDrainExecutor

        pool = point_kwargs["executor"] = ParallelDrainExecutor(workers)

    ckpt_fh = None
    if checkpoint_path is not None:
        # Append when resuming onto an existing compatible checkpoint;
        # otherwise start it fresh with a fingerprinted header line.
        if done:
            ckpt_fh = open(checkpoint_path, "ab")
        else:
            ckpt_fh = open(checkpoint_path, "wb")
            header = {
                "version": SWEEP_CKPT_VERSION,
                "kind": "sweep_ckpt",
                "fingerprint": fingerprint,
            }
            durable_append(ckpt_fh, (json.dumps(header) + "\n").encode())

    def settle(key: tuple, outcome: tuple) -> None:
        """Record one point's ``(point, run)`` outcome."""
        point, run = outcome
        done[key] = point
        if run is not None:
            runs[key] = run
        if ckpt_fh is not None:
            line = {"key": list(key), "point": asdict(point)}
            durable_append(ckpt_fh, (json.dumps(line) + "\n").encode())
        if on_point is not None:
            on_point(key[-1], point)

    # SIGINT/SIGTERM land as SweepInterrupted between points (the
    # durable append for the in-flight point either fully happened or
    # the point reruns on resume).  Handlers only exist for the
    # duration of the loop, and only on the main thread -- signal
    # installation is illegal elsewhere.
    installed = []
    if checkpoint_path is not None and (
        threading.current_thread() is threading.main_thread()
    ):

        def _interrupt(signum, frame):
            raise SweepInterrupted(f"received signal {signum}")

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                installed.append((sig, signal.signal(sig, _interrupt)))
            except (ValueError, OSError):  # pragma: no cover - exotic host
                pass
    try:
        if pool_points:
            # Keyed by grid index; checkpointed in completion order
            # (resume assembles the grid order from the keys).
            tasks = {grid.index(key): (point_fn, key, point_kwargs) for key in todo}
            _, failed = pool.run(
                _run_point,
                tasks,
                ResilienceReport(),
                on_result=lambda i, outcome: settle(grid[i], outcome),
            )
            died = PoolError(f"worker died on all {pool.max_retries + 1} attempts")
            for i in failed:
                settle(grid[i], (_failed_point(grid[i][-1], died), None))
        else:
            for key in todo:
                settle(key, _run_point(point_fn, key, point_kwargs))
    finally:
        if pool is not None:
            pool.close()
        for sig, previous in installed:
            signal.signal(sig, previous)
        if ckpt_fh is not None:
            ckpt_fh.close()

    for curve_key, curve in curves.items():
        curve.points.extend(done[curve_key + (rate,)] for rate in rates)
    first = next(iter(curves.values()))
    anchor = [p for p in first.points if not p.failed]
    if slo_p99_seconds is not None:
        result.slo_p99_seconds = float(slo_p99_seconds)
        result.slo_auto = False
    elif anchor:
        result.slo_p99_seconds = 5.0 * anchor[0].closed_p99
        result.slo_auto = True
    if result.slo_p99_seconds > 0:
        for curve in curves.values():
            # Failed points stay in: they cap the capacity as violations.
            curve.slo_capacity_rps = slo_capacity(curve.points, result.slo_p99_seconds)
    if checkpoint_path is not None:
        # The grid is complete; the sidecar has served its purpose.
        checkpoint_path.unlink(missing_ok=True)
    return runs


def run_load_sweep(
    cost_model: CostModel,
    scheme: Scheme,
    planner,
    rates: list[float],
    n_requests: int = 100,
    seed: int = 0,
    serving=None,
    loop=None,
    workers: int = 0,
    checkpoint_path=None,
    resume: bool = False,
    on_point: Optional[Callable[[float, SweepPoint], None]] = None,
    slo_p99_seconds: Optional[float] = None,
    traffic=None,
) -> tuple[SweepResult, list[Optional[CosimResult]]]:
    """Run the closed loop at every rate in the grid.

    ``serving`` (:class:`~repro.experiments.config.ServingConfig`:
    engine, admission knobs, arrival process and token means) and
    ``loop`` (:class:`~repro.experiments.config.LoopConfig`) default
    to their defaults when ``None``.

    ``planner=None`` runs the grid serving-only (no DRAM feedback):
    every point is a trivially-converged open-loop run of the
    configured engine -- the one sweep implementation behind the
    co-simulation CLI and the serving-only benches.

    The result carries an SLO capacity answer: the max sustained
    offered load whose closed-loop p99 stays under ``slo_p99_seconds``
    (interpolated between grid points; see :func:`slo_capacity`),
    auto-derived when not given.

    Returns the serializable :class:`SweepResult` plus the per-rate
    :class:`CosimResult` objects (which keep the full iteration
    history and the final DRAM trace for ``.dramtrace`` export).
    Entries of that list are ``None`` for points restored from a
    checkpoint or recorded as failed -- only freshly-run points carry
    a live :class:`CosimResult`.

    The grid is one curve (key ``()``) of
    :func:`repro.cluster.sweep._run_cluster_point` -- one replica, one
    device -- run through :func:`run_sweep_grid`, which defines
    ``workers``, ``checkpoint_path``/``resume`` (durable per-point
    progress), ``on_point(rate, point)``, failed-point isolation and
    the SLO threshold.

    ``traffic`` (a :class:`~repro.experiments.config.TrafficConfig`,
    or ``None``) drives scenario request generation: tenant mixes and
    load shapes swap in :func:`repro.traffic.generate.generate_requests`
    per point, per-tenant / flash-window latency columns are filled,
    and the traffic dict joins the checkpoint fingerprint (so a resume
    against a different scenario is rejected).  ``None`` keeps the
    legacy single-tenant path bit-identical.
    """
    # Lazy: repro.cluster imports this module.
    from repro.cluster.sweep import _run_cluster_point

    serving, loop = config_layers(serving, loop)
    sweep = SweepResult(
        scheme=scheme.value,
        arrival=serving.arrival,
        n_requests=n_requests,
        seed=seed,
        config=sweep_provenance(
            cost_model, planner, serving, loop, traffic, serving_only=planner is None
        ),
        engine=serving.engine,
    )
    if traffic is not None:
        sweep.tenant_slo_p99_ms = {t.name: t.slo_p99_ms for t in traffic.tenants}
    runs = run_sweep_grid(
        sweep,
        {(): sweep},
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
        ),
        workers=workers,
        checkpoint_path=checkpoint_path,
        resume=resume,
        on_point=on_point,
        slo_p99_seconds=slo_p99_seconds,
    )
    return sweep, [runs.get((rate,)) for rate in rates]
