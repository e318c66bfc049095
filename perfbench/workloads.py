"""The benchmark's three workloads.

Each workload drives the simulator only through its public API, the
way a user's run does:

- ``cosim_batching`` -- ``run_experiment`` on the ``decode_heavy``
  preset (continuous batching, one small-DRAM device, 60 requests at
  three offered loads).
- ``cluster_sharded`` -- ``run_experiment`` on the ``cluster_smoke``
  preset (1 and 2 replicas x replicated / expert-parallel sharding,
  two devices per replica, fifo engine).
- ``paper_fig6`` -- the Fig. 6 grid through ``MoNDERuntime``:
  SL-128 and N-MoE x B in {1, 4} x encoder / decoder x four schemes.

A workload splits into ``setup`` (import, preset or config resolution,
component construction), ``run`` (one pass of simulation calls),
``check`` (per-operation output checks) and ``digest`` (the simulated
statistics, with no host-time field, that a pure performance change
must leave byte-identical).
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass, replace

# Modules a pass touches.  Setup imports them all, so no import cost
# leaks into the first timed pass.
_SIM_MODULES = (
    "repro.experiments",
    "repro.cosim.driver",
    "repro.cosim.replay",
    "repro.cluster.backend",
    "repro.cluster.sweep",
    "repro.dram.controller",
    "repro.serving.engine",
    "repro.serving.simulator",
)
_PAPER_MODULES = (
    "repro.core.engine",
    "repro.core.load_balancer",
    "repro.core.runtime",
    "repro.core.strategies",
    "repro.ndp.engine",
    "repro.workloads",
    "repro.workloads.traces",
)


def fresh_import(names) -> dict:
    """Drop every loaded ``repro`` module, then import ``names``.

    Repeating this gives the package's import cost on every call, not
    only on the first one in the process.
    """
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    return {name: importlib.import_module(name) for name in names}


@dataclass
class Outcome:
    """Output checks of one pass."""

    attempted: int
    failures: list  # human-readable reasons, one per failed operation


# -- closed-loop sweeps ---------------------------------------------------


def _point_failure(label: str, point, n_requests: int):
    if point.failed:
        return f"{label}: failed point ({point.error})"
    if not point.converged:
        return f"{label}: fixed point did not converge"
    if point.completed + point.rejected != n_requests:
        return (
            f"{label}: completed {point.completed} + rejected "
            f"{point.rejected} != {n_requests} requests"
        )
    return None


class _Sweep:
    """A preset run through ``repro.experiments.run_experiment``."""

    preset = ""
    #: DRAM requests one pass replays into main drains at the default
    #: seed; how many fixed-point iterations a seed's request stream
    #: needs moves this count, and with it the pass's wall time
    reference_work = 0

    def setup(self, seed: int):
        mods = fresh_import(_SIM_MODULES)
        experiments = mods["repro.experiments"]
        config = replace(experiments.get_preset(self.preset), seed=seed)
        experiments.build_components(config)
        return mods, config

    def run(self, state):
        mods, config = state
        result, _runs = mods["repro.experiments"].run_experiment(config)
        return result

    def digest(self, result) -> dict:
        return result.to_dict()

    def count_work(self, tracer, state) -> None:
        """Count the DRAM requests the main replays hand the drain."""
        replay = state[0]["repro.cosim.replay"]
        for planner in (replay.ExpertReplayPlanner, replay.SyntheticReplayPlanner):
            tracer.span(planner, "replay", "replay", count=_count_elements)

    def trace(self, tracer, state) -> None:
        self.count_work(tracer, state)
        mods, _ = state
        driver = mods["repro.cosim.driver"].CosimDriver
        tracer.span(driver, "run", "cosim", count=_count_iterations)
        tracer.isolation(driver, "_isolated_makespans", burst_ids=True)
        tracer.isolation(driver, "_isolated_element_latencies", burst_ids=False)
        tracer.drains(mods["repro.dram.controller"].MemoryController)
        tracer.span(mods["repro.serving.engine"].BatchingEngine, "run", "serving")
        tracer.span(mods["repro.serving.simulator"].ServingSimulator, "run", "serving")
        backend = mods["repro.cluster.backend"].ShardedDramBackend
        tracer.span(backend, "simulate", "cluster.backend")
        tracer.span(backend, "transfer_seconds", "cluster.transfer")
        tracer.span(mods["repro.cluster.sweep"], "_merged_point", "cluster.merge")


def _count_iterations(tracer, args, result) -> None:
    tracer.counts["cosim.iterations"] += result.n_iterations


def _count_elements(tracer, args, result) -> None:
    tracer.counts["replay.elements"] += len(result)


class CosimBatching(_Sweep):
    name = "cosim_batching"
    preset = "decode_heavy"
    reference_work = 1_101_366

    def check(self, result) -> Outcome:
        failures = []
        for point in result.points:
            reason = _point_failure(f"rate {point.rate:g}", point, result.n_requests)
            if reason:
                failures.append(reason)
        return Outcome(len(result.points), failures)

    def summary(self, result) -> list[str]:
        return [
            f"slo_capacity_rps {result.slo_capacity_rps!r} (simulated req/s)",
            "paper reference: none for this workload; the closed-loop "
            "model is unvalidated here",
        ]


class ClusterSharded(_Sweep):
    name = "cluster_sharded"
    preset = "cluster_smoke"
    reference_work = 4_310_016

    def check(self, result) -> Outcome:
        failures, attempted = [], 0
        for curve in result.curves:
            for point in curve.points:
                attempted += 1
                label = f"{curve.replicas}x{curve.policy} rate {point.rate:g}"
                reason = _point_failure(label, point, result.n_requests)
                if reason:
                    failures.append(reason)
        return Outcome(attempted, failures)

    def summary(self, result) -> list[str]:
        # The 2-replica replicated curve is the fleet answer.
        capacity = result.curve(2, "replicated").slo_capacity_rps
        return [
            f"slo_capacity_rps {capacity!r} (simulated req/s, 2 x replicated)",
            "paper reference: none for this workload; the cluster model "
            "is unvalidated here",
        ]


# -- the Fig. 6 paper grid ------------------------------------------------

#: MD+LB over GPU+PM end-to-end speedup (average over B) quoted by the
#: paper for Fig. 6, with the shape bands the repository's Fig. 6 test
#: asserts around each.
FIG6_PAPER = {
    ("SL-128", "encoder"): (3.1, 2.0, 7.0),
    ("SL-128", "decoder"): (1.1, 0.85, 1.6),
    ("N-MoE", "encoder"): (6.7, 4.0, 12.0),
    ("N-MoE", "decoder"): (1.9, 1.1, 3.0),
}

#: the routing seed at which the Fig. 6 test pins the shape bands
FIG6_BAND_SEED = 0


@dataclass
class Fig6Result:
    seed: int
    rows: list  # [model, B, part, {scheme: normalized throughput}]
    speedups: dict  # "model/part" -> [MD+LB over GPU+PM per B]


class PaperFig6:
    name = "paper_fig6"
    #: the grid's work does not depend on the seed: 4,752 MoE-layer
    #: evaluations every time
    reference_work = 0

    def count_work(self, tracer, state) -> None:
        pass

    def setup(self, seed: int):
        mods = fresh_import(_PAPER_MODULES)
        self._runtimes(mods, seed)
        return mods, seed

    @staticmethod
    def _runtimes(mods, seed):
        runtime = mods["repro.core.runtime"]
        workloads = mods["repro.workloads"]
        out = []
        models = ((workloads.xsum_like, "SL-128"), (workloads.flores_like, "N-MoE"))
        for make, tag in models:
            for batch in (1, 4):
                sc = make(batch=batch)
                cfg = runtime.InferenceConfig(
                    model=sc.model,
                    batch=batch,
                    decode_steps=24,
                    profile=sc.profile,
                    seed=seed,
                )
                out.append((tag, batch, runtime.MoNDERuntime(cfg)))
        return out

    def run(self, state) -> Fig6Result:
        mods, seed = state
        Scheme = mods["repro.core.strategies"].Scheme
        schemes = (Scheme.GPU_PM, Scheme.MD_AM, Scheme.MD_LB, Scheme.IDEAL)
        rows, speedups = [], {}
        # Fresh runtimes per pass: a runtime memoizes its results.
        for tag, batch, rt in self._runtimes(mods, seed):
            for part in ("encoder", "decoder"):
                try:
                    normalized = {
                        s.value: rt.normalized_throughput(s, part) for s in schemes
                    }
                    speedup = rt.speedup(Scheme.MD_LB, Scheme.GPU_PM, part)
                except Exception as exc:  # one failed cell, the grid goes on
                    rows.append([tag, batch, part, f"{type(exc).__name__}: {exc}"])
                    continue
                rows.append([tag, batch, part, normalized])
                speedups.setdefault(f"{tag}/{part}", []).append(speedup)
        return Fig6Result(seed, rows, speedups)

    @staticmethod
    def _band_miss(result: Fig6Result, tag: str, part: str):
        _, lo, hi = FIG6_PAPER[(tag, part)]
        value = _fig6_averages(result).get((tag, part), float("nan"))
        if lo < value < hi:
            return None
        return f"MD+LB/GPU+PM {value:.3f} outside the shape band ({lo}, {hi})"

    def check(self, result: Fig6Result) -> Outcome:
        """Structural invariants at every seed; the shape bands only at
        the seed where the repository pins them.  At other seeds a band
        miss is an accuracy observation (see ``summary``): the N-MoE
        decoder average, for one, falls to 1.02 at seed 110."""
        failures = []
        avg = _fig6_averages(result)
        for tag, batch, part, norm in result.rows:
            label = f"{tag} B={batch} {part}"
            miss = self._band_miss(result, tag, part)
            if isinstance(norm, str):
                failures.append(f"{label}: raised {norm}")
            elif miss and result.seed == FIG6_BAND_SEED:
                failures.append(f"{label}: {miss}")
            elif part == "encoder" and not (
                norm["gpu+pm"] < norm["md+am"] < norm["md+lb"] <= 1.0
                and norm["ideal"] == 1.0
            ):
                failures.append(f"{label}: encoder ordering PM < AM < LB <= 1 broken")
            elif tag == "N-MoE" and part == "encoder" and not (
                avg.get((tag, part), float("nan"))
                > avg.get(("SL-128", "encoder"), float("inf"))
            ):
                failures.append(f"{label}: N-MoE encoder gain not above SL-128's")
        return Outcome(len(result.rows), failures)

    def paper_err(self, result: Fig6Result) -> float:
        avg = _fig6_averages(result)
        errors = [
            abs(avg.get(key, float("nan")) - ref[0]) / ref[0]
            for key, ref in FIG6_PAPER.items()
        ]
        return sum(errors) / len(errors)

    def digest(self, result: Fig6Result) -> dict:
        return {"seed": result.seed, "rows": result.rows, "speedups": result.speedups}

    def summary(self, result: Fig6Result) -> list[str]:
        avg = _fig6_averages(result)
        lines = [
            f"{tag} {part}: MD+LB/GPU+PM {avg.get((tag, part))!r} paper {ref[0]}"
            for (tag, part), ref in FIG6_PAPER.items()
        ]
        lines.append(
            f"paper_err {self.paper_err(result)!r} (mean relative error "
            "of the four averages against the paper)"
        )
        if result.seed != FIG6_BAND_SEED:
            for tag, part in FIG6_PAPER:
                miss = self._band_miss(result, tag, part)
                if miss:
                    lines.append(f"note: {tag} {part} {miss} at this seed")
        return lines

    def trace(self, tracer, state) -> None:
        mods, _ = state
        tracer.gemm(mods["repro.ndp.engine"].NDPGemmEngine)
        engine = mods["repro.core.engine"].MoELayerEngine
        tracer.span(engine, "layer_time", "core.layer_time")
        tuner = mods["repro.core.load_balancer"].AlphaAutoTuner
        tracer.span(tuner, "observe", "core.alpha_tune")
        gen = mods["repro.workloads.traces"].RoutingTraceGenerator
        tracer.span(gen, "encoder_layer_counts", "core.routing")
        tracer.span(gen, "decoder_step_counts", "core.routing")
        runtime = mods["repro.core.runtime"].MoNDERuntime
        tracer.span(runtime, "encoder_result", "core.runtime")
        tracer.span(runtime, "decoder_result", "core.runtime")


def _fig6_averages(result: Fig6Result) -> dict:
    return {
        tuple(key.split("/")): sum(v) / len(v) for key, v in result.speedups.items()
    }


WORKLOADS = {w.name: w for w in (CosimBatching, ClusterSharded, PaperFig6)}
