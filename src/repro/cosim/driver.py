"""Closed-loop serving <-> DRAM fixed-point driver.

The serving simulator prices a request with a :class:`CostModel`
calibrated at *unloaded* memory; the cycle-level DRAM controller then
shows how much queueing the serving run's bursts actually suffer.
:class:`CosimDriver` closes that loop:

1. run the serving engine with the current per-token surcharges;
2. replay the run as a DRAM arrival stream (expert-faithful regions
   via :class:`~repro.cosim.replay.ExpertReplayPlanner`) and measure
   each serving request's *memory contention*: how much longer its
   DRAM traffic takes than the same traffic in isolation (so
   intrinsic self-queueing is not double-counted);
3. convert contention into per-token surcharges and update each one
   with its own scalar search (damped steps until the fixed point is
   bracketed, then bisection); repeat until the serving p99 latency
   stops moving.

There is one loop.  What differs per serving engine lives in a small
*estimator* picked from ``ServingConfig.engine``: ``serve`` runs the
engine with the current surcharges, ``measure`` turns one DRAM replay
into measured surcharges, and ``n_surcharges`` says how many searches
run.  The ``fifo`` estimator (the seed :class:`ServingSimulator`)
has one surcharge on both phases and compares per-request makespans
with a cached isolation baseline; the ``batching`` estimator
(:class:`~repro.serving.engine.BatchingEngine`) has separate prefill
and decode surcharges and splits each request's extra wait between
the phases by their share of its traffic.  All knobs come from the
experiment config layers :class:`~repro.experiments.config.
ServingConfig` and :class:`~repro.experiments.config.LoopConfig`.

The isolation baseline serializes the trace's requests far enough
apart that they cannot overlap and drains that stream through the
backend's ``simulate`` like any main replay.  Every request run then
starts behind an idle jump where every timing horizon has expired, so
the exact busy-period memo (:mod:`repro.dram.busy_period`) looks it up
and stores it: runs whose content and starting open rows already
drained -- in an earlier iteration, or at an earlier rate point of the
same sweep -- are not drained again.  The main replays share the memo:
each device's controller skips re-draining busy periods (a burst's
requests arriving together on an idle channel) it has already
drained.  A sweep shares one memo across its points; a driver built
without one gets its own.  Drains on a drain pool bypass the memo.

The DRAM side is a :class:`~repro.cluster.backend.ShardedDramBackend`
(its docstring states the backend protocol); a driver built without
one gets the one-device backend, which passes every call straight
through to one cold controller.  Backends and drivers own no worker
pool and need no closing: a caller that wants parallel drains hands
the backend a
:class:`~repro.dram.parallel.ParallelDrainExecutor` it closes itself.

At low offered load bursts never overlap, contention is zero, and the
loop converges immediately to the open-loop result; near saturation
the surcharge spreads service starts until the serving layer's issue
rate matches what the memory system actually sustains -- the
closed-loop hockey stick the open-loop replay could not produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.strategies import Scheme
from repro.dram.config import DRAMConfig, DRAMOrganization, LPDDR5X_8533
from repro.dram.controller import ControllerStats
from repro.dram.busy_period import SegmentMemo
from repro.serving.engine import BatchConfig, BatchingEngine, PhaseCostModel
from repro.serving.simulator import CostModel, ServingResult, ServingSimulator
from repro.serving.workload import Request

from repro.cosim.replay import ReplayTrace


def segment_starts(ids) -> np.ndarray:
    """Start index of every contiguous run of equal values in ``ids``."""
    ids = np.asarray(ids)
    if len(ids) == 0:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(([0], np.flatnonzero(np.diff(ids)) + 1))


def small_cosim_dram(n_channels: int = 2) -> DRAMConfig:
    """A deliberately small DRAM config (LPDDR5X timing, few channels
    and rows) whose bandwidth saturates at test- and smoke-sized
    serving loads, so closed-loop effects show up in seconds of
    simulation rather than hours."""
    return DRAMConfig(
        organization=DRAMOrganization(
            n_channels=n_channels,
            n_ranks=1,
            n_bankgroups=2,
            banks_per_group=2,
            n_rows=8192,
            row_bytes=2048,
            access_bytes=64,
        ),
        timing=LPDDR5X_8533.timing,
    )


class _SurchargeSearch:
    """Scalar fixed-point search on one per-token surcharge.

    The measured surcharge is monotone decreasing in the applied one,
    so the search runs damped iteration until the fixed point is
    bracketed, then bisects; a collapsed bracket (noise) restarts the
    damped phase.  The loop runs one per estimator surcharge; step
    sizes come from :meth:`~repro.experiments.config.LoopConfig.step`.
    """

    def __init__(self, loop) -> None:
        self.loop = loop
        self.extra = 0.0
        # Bisection bracket on the self-consistency residual
        # measured(extra) - extra: lo under-corrects, hi over-corrects.
        self.lo = 0.0
        self.hi: Optional[float] = None

    def update(self, index: int, measured: float) -> float:
        """Fold in one measurement; returns the next surcharge."""
        extra = self.extra
        if measured > extra:
            self.lo = max(self.lo, extra)
        elif self.hi is None or extra < self.hi:
            self.hi = extra
        if self.hi is None:
            extra += self.loop.step(index) * (measured - extra)
        elif self.hi > self.lo:
            extra = 0.5 * (self.lo + self.hi)
        else:
            # Noise collapsed the bracket; restart the damped
            # search from the latest measurement.
            self.lo, self.hi = 0.0, None
            extra = measured
        self.extra = extra
        return extra


@dataclass(frozen=True)
class CosimIteration:
    """One serving + DRAM pass of the loop."""

    index: int
    #: per-token cost surcharge (seconds) the serving pass ran with
    extra_seconds_per_token: float
    #: per-token surcharge the DRAM measurement asks for next
    measured_seconds_per_token: float
    serving_p50: float
    serving_p99: float
    serving_max: float
    serving_mean: float
    utilization: float
    completed: int
    rejected: int
    dram_queue_delay_mean: float
    dram_queue_delay_p99: float
    dram_queue_delay_max: int
    dram_idle_cycles: int
    dram_total_cycles: int
    #: relative p99 change vs the previous iteration (inf for the first)
    p99_delta: float
    # Additive per-phase fields (batching engine; the fifo estimator
    # leaves them at their defaults, where the scalar fields above are
    # the whole story).
    extra_prefill_seconds_per_token: float = 0.0
    extra_decode_seconds_per_token: float = 0.0
    measured_prefill_seconds_per_token: float = 0.0
    measured_decode_seconds_per_token: float = 0.0
    serving_ttft_p99: float = 0.0
    serving_queue_delay_p99: float = 0.0


@dataclass
class CosimResult:
    """Outcome of one closed-loop run."""

    scheme: Scheme
    iterations: list[CosimIteration] = field(default_factory=list)
    converged: bool = False
    #: iteration 0 -- the open-loop serving result (no feedback)
    open_loop: Optional[ServingResult] = None
    #: final iteration's serving result (feedback applied)
    closed_loop: Optional[ServingResult] = None
    #: final iteration's DRAM trace (exportable via write_trace)
    final_trace: Optional[ReplayTrace] = None
    final_dram_stats: Optional[ControllerStats] = None
    #: converged per-token surcharge (seconds); on the batching path
    #: this is the token-weighted combination of the per-phase values
    extra_seconds_per_token: float = 0.0
    #: self-consistency residual |measured - applied| of the reported
    #: iterate (0 means a true fixed point; meaningful mostly when
    #: ``converged`` is False, where it sizes how far off the best
    #: iterate still was)
    residual_seconds_per_token: float = 0.0
    #: distinct per-phase surcharges (batching engine; zero on fifo)
    extra_prefill_seconds_per_token: float = 0.0
    extra_decode_seconds_per_token: float = 0.0

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)


def config_layers(serving=None, loop=None):
    """``(serving, loop)`` with the :class:`~repro.experiments.config.
    ServingConfig` / :class:`~repro.experiments.config.LoopConfig`
    defaults filled in for ``None``.  Imported lazily: the config
    module reaches this one through :mod:`repro.cluster`."""
    from repro.experiments.config import LoopConfig, ServingConfig

    return (
        ServingConfig() if serving is None else serving,
        LoopConfig() if loop is None else loop,
    )


class _FifoEstimator:
    """The seed FIFO simulator with one scalar per-token surcharge on
    both phases.

    Contention is each request's burst makespan over its isolated
    makespan; the baseline is cached per request across the
    iterations of one run when the planner's addresses do not depend
    on arrival times (``stable_addresses``), so a request's bursts
    never change.
    """

    n_surcharges = 1

    def __init__(self, cost_model: CostModel, scheme: Scheme, serving) -> None:
        self.cost_model = cost_model
        self.scheme = scheme
        self.queue_limit = serving.queue_limit

    def serve(self, requests: list[Request], extras=(0.0,)) -> ServingResult:
        (extra,) = extras
        cost = CostModel(
            self.cost_model.encode_seconds_per_token + extra,
            self.cost_model.decode_seconds_per_token + extra,
        )
        return ServingSimulator(
            cost, self.scheme, queue_limit=self.queue_limit
        ).run(requests)

    def measure(self, driver, trace, timings, serving, extras):
        """``(measured surcharge per search, engine-specific
        CosimIteration fields)``."""
        (extra,) = extras
        uniq, contention = driver._makespan_contention(
            trace, timings.complete_cycles, driver._isolation_baseline(trace)
        )
        tokens = np.array(
            [trace.tokens_by_request[int(r)] for r in uniq.tolist()],
            dtype=np.float64,
        )
        cycle_time = driver.planner.config.timing.cycle_time
        measured = float(contention.sum() * cycle_time / tokens.sum())
        return (measured,), {
            "extra_seconds_per_token": extra,
            "measured_seconds_per_token": measured,
        }


class _BatchingEstimator:
    """Continuous batching with distinct prefill and decode surcharges.

    Each request's extra DRAM wait (worst element latency vs the
    isolated baseline, which serializes requests but keeps each
    request's intra-step arrival offsets) is charged once and split
    between the phases by each phase's share of the request's emitted
    traffic; each phase runs its own surcharge search.  The baseline
    is recalibrated every iteration: decode-burst traffic and arrival
    offsets depend on the step batch composition, which shifts as the
    surcharges reshape the serving timeline.  Requests whose traffic
    did not change are served from the driver's drain memo.
    """

    n_surcharges = 2

    def __init__(self, cost_model: CostModel, scheme: Scheme, serving) -> None:
        self.scheme = scheme
        self.cost_model = PhaseCostModel.from_cost_model(
            cost_model, decode_marginal_fraction=serving.decode_marginal_fraction
        )
        self.batch_config = BatchConfig(
            max_batch=serving.max_batch,
            prefill_token_budget=serving.prefill_token_budget,
            priority=serving.priority,
            queue_limit=serving.queue_limit,
        )

    def serve(self, requests: list[Request], extras=(0.0, 0.0)) -> ServingResult:
        extra_p, extra_d = extras
        return BatchingEngine(
            self.cost_model,
            self.scheme,
            self.batch_config,
            extra_prefill_seconds_per_token=extra_p,
            extra_decode_seconds_per_token=extra_d,
        ).run(requests)

    def measure(self, driver, trace, timings, serving, extras):
        """``(measured surcharge per search, engine-specific
        CosimIteration fields)``."""
        extra_p, extra_d = extras
        prompt_tokens = float(sum(c.request.prompt_tokens for c in serving.completed))
        decode_tokens = float(sum(c.request.decode_tokens for c in serving.completed))
        total_tokens = max(prompt_tokens + decode_tokens, 1.0)
        if trace.phases is not None:
            # One congestion episode delays a request once, however
            # many of its step-bursts overlap it.  Batch-amortized
            # decode bursts carry 1/batch of the weight stream, so at
            # high batch the split automatically shifts the charge
            # toward prefill, whose traffic is not amortizable.
            lat = timings.complete_cycles - trace.arrive_cycles
            lat_iso = driver._isolated_element_latencies(trace)
            uniq, inverse = np.unique(trace.request_ids, return_inverse=True)
            measured_max = np.zeros(len(uniq), dtype=np.int64)
            np.maximum.at(measured_max, inverse, lat)
            iso_max = np.zeros(len(uniq), dtype=np.int64)
            np.maximum.at(iso_max, inverse, lat_iso)
            waits = np.maximum(measured_max - iso_max, 0).astype(np.float64)
            waits = driver._transfer_surcharge(trace, waits, uniq)
            pre_counts = np.bincount(
                inverse, weights=(trace.phases == 0), minlength=len(uniq)
            )
            tot_counts = np.bincount(inverse, minlength=len(uniq))
            pre_share = pre_counts / np.maximum(tot_counts, 1)
            prefill_cycles = float((waits * pre_share).sum())
            decode_cycles = float(waits.sum()) - prefill_cycles
        else:
            # Planner without phase bursts (synthetic replay): the
            # fifo per-request estimator, uncached, with the lump
            # contention split by token share.
            _, contention = driver._makespan_contention(
                trace, timings.complete_cycles, driver._isolated_makespans(trace)
            )
            total = float(contention.sum())
            prefill_cycles = total * prompt_tokens / total_tokens
            decode_cycles = total - prefill_cycles
        cycle_time = driver.planner.config.timing.cycle_time
        measured_p = prefill_cycles * cycle_time / prompt_tokens if prompt_tokens else 0.0
        measured_d = decode_cycles * cycle_time / decode_tokens if decode_tokens else 0.0
        return (measured_p, measured_d), {
            "extra_seconds_per_token": (
                extra_p * prompt_tokens + extra_d * decode_tokens
            )
            / total_tokens,
            "measured_seconds_per_token": (
                (prefill_cycles + decode_cycles) * cycle_time / total_tokens
            ),
            "extra_prefill_seconds_per_token": extra_p,
            "extra_decode_seconds_per_token": extra_d,
            "measured_prefill_seconds_per_token": measured_p,
            "measured_decode_seconds_per_token": measured_d,
            "serving_ttft_p99": serving.ttft_percentile(99),
            "serving_queue_delay_p99": serving.queue_delay_percentile(99),
        }


_ESTIMATORS = {"fifo": _FifoEstimator, "batching": _BatchingEstimator}


def make_estimator(cost_model: CostModel, scheme: Scheme, serving):
    """The contention estimator for ``serving.engine``; its
    ``serve(requests)`` is also the serving-only (open-loop) run."""
    return _ESTIMATORS[serving.engine](cost_model, scheme, serving)


class CosimDriver:
    """Alternates serving runs and DRAM replays to a fixed point.

    ``serving`` (:class:`~repro.experiments.config.ServingConfig`)
    picks the engine and its admission knobs; ``loop``
    (:class:`~repro.experiments.config.LoopConfig`) holds the
    fixed-point knobs and the DRAM scheduler window.  ``backend``
    defaults to a serial one-device
    :class:`~repro.cluster.backend.ShardedDramBackend`.
    ``drain_memo`` (:class:`~repro.dram.busy_period.SegmentMemo`)
    holds the busy periods of main and isolation drains already
    drained; a sweep shares one across its points, and a
    driver built without one gets a private memo.
    """

    def __init__(
        self,
        cost_model: CostModel,
        scheme: Scheme,
        planner,
        serving=None,
        loop=None,
        backend=None,
        drain_memo: Optional[SegmentMemo] = None,
    ) -> None:
        self.cost_model = cost_model
        self.scheme = scheme
        self.planner = planner
        self.serving, self.loop = config_layers(serving, loop)
        self.estimator = make_estimator(cost_model, scheme, self.serving)
        if backend is None:
            # Lazy: repro.cluster reaches this module through its sweep.
            from repro.cluster.backend import ShardedDramBackend

            backend = ShardedDramBackend(
                planner.config, window=self.loop.scheduler_window
            )
        self.backend = backend
        self._iso_cache: dict[int, int] = {}
        #: busy periods already drained; exact, so it may be shared by
        #: every driver of one sweep
        self.drain_memo = SegmentMemo() if drain_memo is None else drain_memo

    # -- contention measurement -------------------------------------------

    def _transfer_surcharge(
        self, trace: ReplayTrace, contention: np.ndarray, uniq: np.ndarray
    ) -> np.ndarray:
        """Fold the backend's per-request inter-device transfer costs
        (seconds) into per-request contention (cycles).  Empty
        transfer maps -- always, for a one-device backend -- leave
        the contention array untouched, byte for byte."""
        xfer = self.backend.transfer_seconds(trace)
        if not xfer:
            return contention
        cycle_time = self.planner.config.timing.cycle_time
        extra = np.array(
            [xfer.get(int(r), 0.0) / cycle_time for r in uniq.tolist()],
            dtype=np.float64,
        )
        return contention + extra

    def _makespan_contention(
        self, trace: ReplayTrace, complete: np.ndarray, iso: dict[int, int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(unique request ids, contention cycles per id): each
        request's burst makespan over its isolated makespan ``iso``,
        plus any inter-device transfer cost."""
        uniq, inverse = np.unique(trace.request_ids, return_inverse=True)
        makespans = np.zeros(len(uniq), dtype=np.int64)
        np.maximum.at(makespans, inverse, complete - trace.arrive_cycles)
        iso_arr = np.array([iso[int(r)] for r in uniq.tolist()], dtype=np.int64)
        contention = np.maximum(makespans - iso_arr, 0).astype(np.float64)
        return uniq, self._transfer_surcharge(trace, contention, uniq)

    def _isolated_completions(
        self, trace: ReplayTrace, offsets: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(arrive, complete, run_starts)`` of the trace serialized
        for isolation: each contiguous request run has the memory
        system to itself, far enough after the previous run that the
        two can never overlap.  ``offsets`` keeps each run's real
        relative arrival offsets; otherwise its elements arrive
        together.  Drained by the backend's ``simulate`` through the
        driver's busy-period memo."""
        t = self.planner.config.timing
        # Loose per-access upper bound (full row cycle + read latency
        # + data) so consecutive runs cannot interact; idle-gap
        # jumping makes the stretched timeline free to simulate.
        per_access = t.tRC + t.tCL + t.burst_cycles + 2
        rids = trace.request_ids
        starts = segment_starts(rids)
        lengths = np.diff(np.append(starts, len(rids)))
        if offsets:
            rel = trace.arrive_cycles - np.repeat(trace.arrive_cycles[starts], lengths)
            last = rel[starts + lengths - 1]
        else:
            rel = np.zeros(len(rids), dtype=np.int64)
            last = 0
        gaps = last + lengths * per_access + 64
        bases = np.concatenate(([0], np.cumsum(gaps)[:-1]))
        arrive = np.repeat(bases, lengths) + rel
        _, timings = self.backend.simulate(
            trace.addrs, arrive, trace.flags, rids, memo=self.drain_memo
        )
        return arrive, timings.complete_cycles, starts

    def _isolated_makespans(self, trace: ReplayTrace) -> dict[int, int]:
        """Makespan of each request's burst when it has the memory
        system to itself: the same addresses, with bursts serialized
        far enough apart that they can never overlap.  The difference
        between an iteration's measured makespan and this baseline is
        pure cross-burst contention."""
        arrive, complete, starts = self._isolated_completions(trace, offsets=False)
        makespans = np.maximum.reduceat(complete, starts) - arrive[starts]
        ids = trace.request_ids[starts]
        return {int(r): int(mk) for r, mk in zip(ids.tolist(), makespans.tolist())}

    def _isolated_element_latencies(self, trace: ReplayTrace) -> np.ndarray:
        """Per-element DRAM latencies when each REQUEST has the memory
        system to itself: requests are serialized far enough apart
        that they can never overlap, but each request's bursts keep
        their real relative arrival offsets.  A request pipelining its
        own decode steps faster than DRAM drains them is therefore
        part of the baseline, and the difference from a measured
        latency is cross-request interference only -- the same
        quantity the fifo estimator's per-request baseline measures."""
        arrive, complete, _ = self._isolated_completions(trace, offsets=True)
        return complete - arrive

    def _isolation_baseline(self, trace: ReplayTrace) -> dict[int, int]:
        stable = getattr(self.planner, "stable_addresses", True)
        if not stable:
            return self._isolated_makespans(trace)
        missing = set(np.unique(trace.request_ids).tolist()) - set(self._iso_cache)
        if missing:
            # Calibrate only the uncached bursts (normally all of them
            # on iteration 0, then none -- the cached baselines stay
            # valid because the planner's addresses are
            # arrival-independent).
            mask = np.isin(trace.request_ids, np.fromiter(missing, dtype=np.int64))
            subset = ReplayTrace(
                addrs=trace.addrs[mask],
                arrive_cycles=trace.arrive_cycles[mask],
                flags=trace.flags[mask],
                request_ids=trace.request_ids[mask],
                tokens_by_request=trace.tokens_by_request,
            )
            self._iso_cache.update(self._isolated_makespans(subset))
        return self._iso_cache

    # -- the loop ----------------------------------------------------------

    def run(self, requests: list[Request]) -> CosimResult:
        """Run the fixed-point loop over one serving request list."""
        if not requests:
            raise ValueError("cosim needs at least one serving request")
        # Baselines are only reusable across the iterations of one
        # run: a different request list can reuse request_ids with
        # different token counts (and so different bursts).
        self._iso_cache.clear()
        estimator = self.estimator
        searches = [_SurchargeSearch(self.loop) for _ in range(estimator.n_surcharges)]
        extras = tuple(search.extra for search in searches)
        result = CosimResult(scheme=self.scheme)
        prev_p99 = None
        # Best iterate so far by self-consistency residual: what the
        # run reports if it exhausts max_iterations without converging
        # (the last iterate of a limit cycle can be the worst one).
        best = None
        best_residual = float("inf")

        for index in range(self.loop.max_iterations):
            serving = estimator.serve(requests, extras)
            if index == 0:
                result.open_loop = serving
            result.closed_loop = serving

            trace = self.planner.replay(serving)
            if len(trace) == 0:
                result.converged = True
                break
            stats, timings = self.backend.simulate(
                trace.addrs,
                trace.arrive_cycles,
                trace.flags,
                trace.request_ids,
                memo=self.drain_memo,
            )
            result.final_trace = trace
            result.final_dram_stats = stats

            measured, fields = estimator.measure(self, trace, timings, serving, extras)
            residual = sum(abs(m - e) for m, e in zip(measured, extras))
            result.residual_seconds_per_token = residual
            if residual < best_residual:
                best_residual = residual
                best = (index, serving, trace, stats)

            p99 = serving.latency_percentile(99)
            delta = (
                float("inf")
                if prev_p99 is None
                else abs(p99 - prev_p99) / max(prev_p99, 1e-12)
            )
            result.iterations.append(
                CosimIteration(
                    index=index,
                    serving_p50=serving.latency_percentile(50),
                    serving_p99=p99,
                    serving_max=serving.latency_percentile(100),
                    serving_mean=serving.mean_latency,
                    utilization=serving.utilization,
                    completed=serving.n_completed,
                    rejected=serving.rejected,
                    dram_queue_delay_mean=stats.queue_delay_mean,
                    dram_queue_delay_p99=stats.queue_delay_p99,
                    dram_queue_delay_max=stats.queue_delay_max,
                    dram_idle_cycles=sum(stats.idle_channel_cycles.values()),
                    dram_total_cycles=stats.total_cycles,
                    p99_delta=delta,
                    **fields,
                )
            )
            if prev_p99 is not None and delta <= self.loop.p99_tolerance:
                result.converged = True
                break
            prev_p99 = p99
            extras = tuple(
                search.update(index, m) for search, m in zip(searches, measured)
            )
        reported = result.iterations[-1] if result.iterations else None
        if not result.converged and best is not None:
            # Ran out of iterations: report the iterate with the
            # smallest self-consistency residual, not whichever one a
            # limit cycle happened to end on.
            index, result.closed_loop, result.final_trace, stats = best
            result.final_dram_stats = stats
            result.residual_seconds_per_token = best_residual
            reported = result.iterations[index]
        if reported is not None:
            result.extra_seconds_per_token = reported.extra_seconds_per_token
            result.extra_prefill_seconds_per_token = (
                reported.extra_prefill_seconds_per_token
            )
            result.extra_decode_seconds_per_token = (
                reported.extra_decode_seconds_per_token
            )
        return result
