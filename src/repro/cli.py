"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``characterize``   Fig. 2 tables (parameter scaling, compute vs transfer).
- ``evaluate``       Fig. 6-style scheme comparison for one workload.
- ``skew``           Fig. 3 expert-load histogram for a routing trace.
- ``area-power``     Table 3 NDP area/power breakdown.
- ``dram``           DRAM bandwidth calibration table.
- ``bench``          Memory-controller throughput benchmark
                     (writes ``BENCH_controller.json``); accepts
                     ``--trace-file`` for on-disk ``.dramtrace`` runs.
- ``trace``          Binary DRAM trace tooling: ``trace gen`` exports
                     any generator+arrival combination to a
                     ``.dramtrace`` file, ``trace info`` inspects one.
- ``cosim``          Closed-loop serving<->DRAM co-simulation at one
                     offered load; ``cosim sweep`` drives the loop
                     across a rate grid (the tail-latency hockey
                     stick) and writes a versioned JSON result.
- ``cluster``        ``cluster sweep``: the replica x sharding-policy
                     capacity grid, through the same sweep handler
                     and flag table (``_SWEEP_FLAGS``) as ``cosim
                     sweep``.
- ``traffic``        Production-traffic subsystem: ``traffic list``
                     and ``traffic describe`` browse the named
                     scenario zoo (each runnable via ``--preset``),
                     ``traffic export`` turns a real routing-trace
                     CSV into a trace-faithful ``.dramtrace``.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from typing import Optional, Sequence

from repro.analysis.area_power import AreaPowerModel
from repro.analysis.characterize import compute_vs_transfer, param_scaling
from repro.analysis.report import format_table
from repro.cluster.balancer import BALANCERS
from repro.cluster.sharding import SHARDING_POLICIES
from repro.core.runtime import InferenceConfig, MoNDERuntime
from repro.core.strategies import Scheme
from repro.workloads import WORKLOADS


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.moe import nllb_moe_128, switch_large_128

    rows = []
    for base in (switch_large_128(), nllb_moe_128()):
        for e in (0, 64, 128, 256, 512):
            r = param_scaling(base, [e])[0]
            rows.append([r.model, round(r.non_expert_gb, 1), round(r.expert_gb, 1)])
    print(format_table(["model", "non-expert GB", "expert GB"], rows))
    print()
    rows = []
    for d in (1024, 2048):
        for r in compute_vs_transfer([1, 16, 256, 2048], d_model=d):
            rows.append([d, r.tokens, round(r.compute_ms, 3), round(r.transfer_ms, 3)])
    print(format_table(["d_model", "tokens", "compute ms", "transfer ms"], rows))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload](batch=args.batch)
    config = InferenceConfig(
        model=workload.model,
        batch=args.batch,
        decode_steps=args.decode_steps,
        profile=workload.profile,
    )
    runtime = MoNDERuntime(config)
    schemes = (Scheme.GPU_PM, Scheme.MD_AM, Scheme.MD_LB, Scheme.IDEAL)
    rows = []
    for part in ("encoder", "decoder"):
        for scheme in schemes:
            result = runtime.result(scheme, part)
            rows.append(
                [part, scheme.value, round(result.seconds * 1e3, 2),
                 round(result.throughput, 0),
                 round(runtime.normalized_throughput(scheme, part), 3)]
            )
    print(workload.describe())
    print(format_table(["part", "scheme", "ms", "tok/s", "vs Ideal"], rows))
    for part in ("encoder", "decoder"):
        print(f"MD+LB over GPU+PM ({part}): "
              f"{runtime.speedup(Scheme.MD_LB, Scheme.GPU_PM, part):.2f}x")
    return 0


def _cmd_skew(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.workloads import bucket_histogram
    from repro.workloads.traces import RoutingTraceGenerator

    workload = WORKLOADS[args.workload](batch=args.batch)
    gen = RoutingTraceGenerator(
        workload.model, args.batch, workload.seq_len,
        profile=workload.profile, seed=args.seed,
    )
    labels = ["0", "1-3", "4-7", "8-15", "16-31", "32-63", "64-127", "128+"]
    rows = []
    for rank in range(workload.model.n_moe_encoder_layers):
        counts = gen.encoder_layer_counts(rank)
        hist = bucket_histogram(counts)
        rows.append([rank, int(np.count_nonzero(counts))] + hist.tolist())
    print(format_table(["MoE layer", "active"] + labels, rows))
    return 0


def _cmd_area_power(args: argparse.Namespace) -> int:
    model = AreaPowerModel()
    rows = [[c.name, round(c.area_mm2, 3), round(c.power_w, 3)]
            for c in model.components()]
    rows.append(["TOTAL", round(model.total_area_mm2, 3), round(model.total_power_w, 3)])
    print(format_table(["component", "area mm2", "power W"], rows))
    print(f"power overhead: {model.power_overhead_fraction()*100:.1f}% "
          f"of the 114.2 W base device")
    return 0


def _cmd_dram(args: argparse.Namespace) -> int:
    from repro.dram.calibrate import BandwidthCalibrator

    cal = BandwidthCalibrator()
    seq = cal.sequential_read(nbytes=1 << 19)
    rand = cal.random_read(nbytes=1 << 17)
    part = cal.interleaved_streams(partitioned=True)
    shared = cal.interleaved_streams(partitioned=False)
    rows = [
        [r.pattern, round(r.sustained_bandwidth / 1e9, 1), round(r.efficiency, 2)]
        for r in (seq, rand, part, shared)
    ]
    print(format_table(["pattern", "GB/s", "efficiency"], rows))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.dram.bench import (
        all_identity_checks_pass,
        bench_controller,
        bench_trace_file,
        format_bench,
        write_bench,
    )

    if args.chaos:
        # Deterministic fault-injection smoke: every recovery path in
        # the fault-tolerant runtime, each checked bit-identical
        # against an undisturbed run.
        from repro.faults.chaos import format_chaos, run_chaos_smoke

        report = run_chaos_smoke()
        print(format_chaos(report))
        return 0 if all(s.passed for s in report) else 1

    n_requests = args.requests
    reference_requests = args.reference_requests
    if args.smoke:
        # CI-sized: finishes in well under 30 s including the
        # reference baseline.
        n_requests = min(n_requests, 20_000)
        if reference_requests is None:
            reference_requests = 5_000
    if args.trace_file is not None:
        # The file already fixes the request stream; generation flags
        # would be silently ignored, so reject them outright.
        conflicts = [
            flag
            for flag, changed in (
                ("--arrival", args.arrival is not None),
                ("--patterns", args.patterns != "streaming,random,moe-skewed"),
                ("--requests", args.requests != 1_000_000),
            )
            if changed
        ]
        if conflicts:
            print(
                f"repro bench: {', '.join(conflicts)} cannot be combined with "
                "--trace-file (the trace file already fixes the request stream; "
                "regenerate it with `repro trace gen`)",
                file=sys.stderr,
            )
            return 2
    elif args.stream_window is not None:
        print(
            "repro bench: --stream-window only applies to --trace-file runs "
            "(streaming simulation reads chunks from an on-disk .dramtrace)",
            file=sys.stderr,
        )
        return 2
    if args.workers is not None:
        if args.workers < 0:
            print(
                f"repro bench: --workers must be non-negative, got {args.workers}",
                file=sys.stderr,
            )
            return 2
        if args.workers < 2:
            # 0/1 workers is just the serial path with extra steps;
            # treat it as "no parallel run requested" rather than
            # spinning a pool (and don't record a bogus worker count
            # in the payload).
            args.workers = None
    try:
        if args.trace_file is not None:
            payload = bench_trace_file(
                args.trace_file,
                reference_requests=reference_requests,
                # The O(n^2) reference is opt-in for file traces: it
                # runs only when a cap was given (--smoke sets 5000).
                include_reference=not args.no_reference
                and reference_requests is not None,
                workers=args.workers,
                stream_window=args.stream_window,
                window=args.window,
            )
        else:
            payload = bench_controller(
                n_requests=n_requests,
                patterns=[p.strip() for p in args.patterns.split(",") if p.strip()],
                reference_requests=reference_requests,
                include_reference=not args.no_reference,
                seed=args.seed,
                arrival=args.arrival,
                arrival_gap=args.arrival_gap,
                workers=args.workers,
                window=args.window,
            )
    except (OSError, ValueError) as exc:
        print(f"repro bench: {exc}", file=sys.stderr)
        return 2
    print(format_bench(payload))
    write_bench(payload, args.output)
    print(f"wrote {args.output}")
    if not all_identity_checks_pass(payload):
        print(
            "repro bench: implementations disagreed on ControllerStats "
            "(see stats_identical / array_path_identical in the payload)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.workloads.trace_io import generate_trace_file, read_header

    if args.trace_command == "gen":
        try:
            n = generate_trace_file(
                args.output,
                pattern=args.pattern,
                n_requests=args.requests,
                seed=args.seed,
                arrival=args.arrival,
                arrival_gap=args.arrival_gap,
                chunk_requests=args.chunk_requests,
            )
        except ValueError as exc:
            print(f"repro trace gen: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {n} records to {args.output}")
        return 0
    if args.trace_command == "info":
        from repro.workloads.trace_io import RECORD_BYTES, load_trace

        try:
            version, n = read_header(args.path)
        except (OSError, ValueError) as exc:
            print(f"repro trace info: {exc}", file=sys.stderr)
            return 2
        print(f"{args.path}: .dramtrace v{version}, {n} records "
              f"({n * RECORD_BYTES} payload bytes)")
        if n:
            trace = load_trace(args.path)
            writes = int(trace.write_mask.sum())
            arrive = trace.arrive_cycles
            print(f"  reads {n - writes}  writes {writes}  "
                  f"arrive_cycle [{int(arrive.min())}, {int(arrive.max())}]")
        return 0
    raise AssertionError(f"unhandled trace subcommand {args.trace_command!r}")


def _cmd_traffic(args: argparse.Namespace) -> int:
    from repro.traffic import SCENARIOS

    if args.traffic_command == "list":
        rows = [[s.name, s.intent] for s in SCENARIOS.values()]
        print(format_table(["scenario", "intent"], rows))
        print(
            "run one end to end: repro cosim sweep --preset <scenario> "
            "(or repro cluster sweep --preset <scenario>)"
        )
        return 0
    if args.traffic_command == "describe":
        import json

        scenario = SCENARIOS.get(args.name)
        if scenario is None:
            print(
                f"repro traffic describe: unknown scenario {args.name!r}; "
                f"choose from {', '.join(sorted(SCENARIOS))}",
                file=sys.stderr,
            )
            return 2
        print(scenario.describe())
        print(json.dumps(scenario.experiment().to_dict(), indent=2))
        return 0
    if args.traffic_command == "export":
        from dataclasses import replace as dataclasses_replace

        from repro.cosim.driver import small_cosim_dram
        from repro.traffic import (
            TraceExportSpec,
            export_routing_trace,
            load_routing_trace,
        )

        try:
            trace = load_routing_trace(args.trace, top_k=args.top_k)
            spec = TraceExportSpec(
                expert_bytes=args.expert_bytes,
                burst_blocks=args.burst_blocks,
                write_fraction=args.write_fraction,
                seed=args.seed,
            )
            if args.small_dram:
                spec = dataclasses_replace(spec, config=small_cosim_dram())
            n = export_routing_trace(trace, args.output, spec)
        except (OSError, ValueError) as exc:
            print(f"repro traffic export: {exc}", file=sys.stderr)
            return 2
        print(
            f"{args.trace}: {trace.n_layers} layer(s) x {trace.n_tokens} "
            f"token(s) x {trace.n_experts} expert(s), top-{trace.top_k}"
        )
        print(f"exported {n} DRAM requests to {args.output}")
        return 0
    raise AssertionError(f"unhandled traffic subcommand {args.traffic_command!r}")


def _csv(cast):
    return lambda spec: tuple(cast(x.strip()) for x in spec.split(",") if x.strip())


#: Every flag that sets an ExperimentConfig field, by the subcommands
#: that take it: "all" (`cosim` and both sweeps), "sweep" (both sweeps)
#: or "cluster" (`cluster sweep`).  A row is (flag, field, argparse
#: kwargs); the field is "layer.name" or a top-level name, and the
#: kwargs' `type` or `const` turns the typed text into its value.
#: build_parser adds the flags from this table and _experiment_config
#: applies them from it.
_SWEEP_FLAGS = {
    "all": [
        ("--scheme", "scheme", dict(choices=[s.value for s in Scheme])),
        ("--workload", "cost.workload", dict(
            choices=sorted(WORKLOADS),
            help="model/profile for the runtime cost model and the expert "
                 "replay geometry (default: flores)")),
        ("--arrival", "serving.arrival", dict(
            choices=("poisson", "batched", "onoff"),
            help="serving-level arrival process (default: poisson)")),
        ("--requests", "n_requests", dict(
            type=int, help="serving requests per run (default: 100)")),
        ("--seed", "seed", dict(type=int, help="default: 1")),
        ("--mean-prompt-tokens", "serving.mean_prompt_tokens",
         dict(type=int, help="default: 512")),
        ("--mean-decode-tokens", "serving.mean_decode_tokens",
         dict(type=int, help="default: 32")),
        ("--encode-us", "cost.encode_us", dict(
            type=float, help="synthetic encode cost (us/token); with "
                             "--decode-us, skips the runtime cost model")),
        ("--decode-us", "cost.decode_us", dict(type=float)),
        ("--bytes-per-token", "replay.bytes_per_token",
         dict(type=int, help="default: 2048")),
        ("--max-blocks", "replay.max_blocks_per_request", dict(
            type=int, help="cap on 64B blocks per request burst "
                           "(default: 4096)")),
        ("--damping", "loop.damping", dict(type=float, help="default: 0.6")),
        ("--max-iters", "loop.max_iterations", dict(type=int, help="default: 8")),
        ("--tol", "loop.p99_tolerance", dict(
            type=float, help="relative p99 convergence tolerance "
                             "(default: 0.02)")),
        ("--small-dram", "replay.dram", dict(
            action="store_const", const="small",
            help="use the small test DRAM config instead of the paper's "
                 "LPDDR5X-8533")),
        ("--synthetic-regions", "replay.synthetic", dict(
            action="store_true",
            help="seeded synthetic weight regions instead of expert-faithful "
                 "replay")),
        ("--engine", "serving.engine", dict(
            choices=("fifo", "batching"),
            help="serving engine: one-request-at-a-time fifo (default) or "
                 "phase-aware continuous batching")),
        ("--max-batch", "serving.max_batch", dict(
            type=int, metavar="B",
            help="batching: in-flight decode slots per step (default: 8)")),
        ("--prefill-budget", "serving.prefill_token_budget", dict(
            type=int, metavar="TOKENS",
            help="batching: prompt-token budget admitted per step "
                 "(default: 4096)")),
        ("--priority", "serving.priority", dict(
            choices=("prefill", "decode"),
            help="batching: admit new prefills alongside decodes (prefill, "
                 "default) or only when idle (decode)")),
        ("--decode-marginal", "serving.decode_marginal_fraction", dict(
            type=float, metavar="F",
            help="batching: marginal fraction of the per-token decode cost "
                 "that scales with batch size; the rest is amortized weight "
                 "streaming (default: 0.5)")),
        ("--slo-p99-ms", "slo_p99_ms", dict(
            type=float, metavar="MS",
            help="sweep: closed-loop p99 SLO threshold for the capacity "
                 "answer (default: auto, 5x the uncongested p99)")),
    ],
    "sweep": [
        ("--rates", "rates", dict(
            type=lambda spec: tuple(sorted(_csv(float)(spec))),
            help="comma-separated requests/second grid (default: "
                 "0.5,1.0,2.0,4.0, or the preset/config grid)")),
    ],
    "cluster": [
        ("--replicas", "cluster.replicas", dict(
            type=_csv(int),
            help="comma-separated replica counts, ascending (default: 1,2)")),
        ("--devices-per-replica", "cluster.devices_per_replica", dict(
            type=int, metavar="N",
            help="NDP devices each replica shards its experts across "
                 "(default: 1)")),
        ("--policies", "cluster.policies", dict(
            type=_csv(str),
            help="comma-separated sharding policies from "
                 f"{', '.join(SHARDING_POLICIES)} (default: replicated)")),
        ("--balancer", "cluster.balancer", dict(
            choices=BALANCERS,
            help="request placement across replicas (default: round_robin)")),
        ("--hot-fraction", "cluster.hot_fraction", dict(
            type=float, metavar="F",
            help="hot_cold: fraction of each layer's experts kept replicated "
                 "(default: 0.125)")),
        ("--activation-bytes", "cluster.activation_bytes_per_token", dict(
            type=int, metavar="B",
            help="activation payload per token shipped over PCIe for "
                 "remote-expert accesses (default: 0 = transfers free)")),
    ],
}


def _add_sweep_flags(parser: argparse.ArgumentParser, scope: str) -> None:
    for flag, _field, kwargs in _SWEEP_FLAGS[scope]:
        parser.add_argument(flag, default=argparse.SUPPRESS, **kwargs)


def _experiment_config(args: argparse.Namespace):
    """Resolve flags into one :class:`repro.experiments.ExperimentConfig`.

    The base is a ``--config`` JSON file, a ``--preset`` name
    (``--smoke`` is ``--preset smoke``), or the default config; any
    flag the user actually typed then overrides its field, as mapped
    by ``_SWEEP_FLAGS`` (the flags default to SUPPRESS, so only
    typed flags are set).
    """
    from dataclasses import replace

    from repro.experiments import ExperimentConfig, get_preset

    preset = getattr(args, "preset", None)
    config_path = getattr(args, "config", None)
    if getattr(args, "smoke", False):
        if preset or config_path:
            raise ValueError("--smoke is --preset smoke; give only one base config")
        preset = "smoke"
    if preset and config_path:
        raise ValueError("--preset and --config are mutually exclusive")
    if config_path:
        base = ExperimentConfig.load(config_path)
    elif preset:
        base = get_preset(preset)
    else:
        base = ExperimentConfig()
    overrides: dict = {}
    for flags in _SWEEP_FLAGS.values():
        for flag, path, _kwargs in flags:
            value = getattr(args, flag[2:].replace("-", "_"), None)
            if value is not None:
                layer, _, field = path.rpartition(".")
                overrides.setdefault(layer, {})[field] = value
    top = overrides.pop("", {})
    layers = {
        layer: replace(getattr(base, layer), **fields)
        for layer, fields in overrides.items()
    }
    return replace(base, **top, **layers)


def _print_traffic_columns(sweep) -> None:
    """Per-tenant tails (against their scenario SLOs) and flash-window
    vs steady-window tails, for sweeps driven by a traffic scenario.
    Silent on legacy sweeps -- the columns are empty there."""
    tenants = sorted(
        {name for p in sweep.points for name in p.tenant_closed_p99}
    )
    if tenants:
        rows = []
        for name in tenants:
            worst = max(
                (p.tenant_closed_p99.get(name, 0.0) for p in sweep.points),
                default=0.0,
            )
            done = sum(p.tenant_completed.get(name, 0) for p in sweep.points)
            slo_ms = sweep.tenant_slo_p99_ms.get(name)
            if slo_ms is None:
                verdict = "-"
            else:
                verdict = "ok" if worst * 1e3 <= slo_ms else "VIOLATED"
            rows.append(
                [
                    name,
                    done,
                    f"{worst * 1e3:.4g}",
                    "-" if slo_ms is None else f"{slo_ms:g}",
                    verdict,
                ]
            )
        print(
            format_table(
                ["tenant", "completed", "worst closed p99 ms",
                 "slo p99 ms", "slo"],
                rows,
            )
        )
    flashy = [p for p in sweep.points if p.closed_flash_p99 > 0.0]
    if flashy:
        worst = max(flashy, key=lambda p: p.closed_flash_p99)
        ratio = (
            worst.closed_flash_p99 / worst.closed_steady_p99
            if worst.closed_steady_p99 > 0
            else float("inf")
        )
        print(
            f"flash window p99 {worst.closed_flash_p99:.3e} s vs steady "
            f"{worst.closed_steady_p99:.3e} s ({ratio:.2f}x) at rate "
            f"{worst.rate:g}"
        )


def _cosim_export(trace, path: str) -> None:
    from repro.workloads.trace_io import write_trace

    n = write_trace(path, trace.addrs, trace.arrive_cycles, trace.flags)
    print(f"exported {n} DRAM requests to {path}")


def _cmd_cosim(args: argparse.Namespace) -> int:
    if args.cosim_command == "sweep":
        return _cmd_sweep(args)
    export_trace = getattr(args, "export_trace", None)
    try:
        from repro.cluster.sweep import _run_cluster_point
        from repro.experiments import build_components

        exp = _experiment_config(args)
        cost, scheme, planner = build_components(exp)
        if args.workers < 0:
            raise ValueError("--workers must be non-negative")
        drains = nullcontext()
        if args.workers >= 2:
            from repro.dram.parallel import ParallelDrainExecutor

            drains = ParallelDrainExecutor(args.workers)
        # The sweep's own point function, so one rate runs exactly as
        # that rate would inside `cosim sweep`.
        with drains as executor:
            _point, result = _run_cluster_point(
                args.rate,
                cost_model=cost,
                scheme=scheme,
                planner=planner,
                serving=exp.serving,
                loop=exp.loop,
                n_requests=exp.n_requests,
                seed=exp.seed,
                traffic=exp.traffic if exp.traffic.active else None,
                executor=executor,
            )
    except (OSError, ValueError) as exc:
        print(f"repro cosim: {exc}", file=sys.stderr)
        return 2

    rows = [
        [
            it.index,
            f"{it.extra_seconds_per_token * 1e9:.3f}",
            f"{it.measured_seconds_per_token * 1e9:.3f}",
            f"{it.serving_p50 * 1e6:.3f}",
            f"{it.serving_p99 * 1e6:.3f}",
            round(it.utilization, 3),
            round(it.dram_queue_delay_p99, 1),
            "-" if it.p99_delta == float("inf") else f"{it.p99_delta:.4f}",
        ]
        for it in result.iterations
    ]
    print(format_table(
        ["iter", "extra ns/tok", "meas ns/tok", "p50 us", "p99 us",
         "util", "dram qd p99", "p99 delta"],
        rows,
    ))
    open_p99 = result.open_loop.latency_percentile(99)
    closed_p99 = result.closed_loop.latency_percentile(99)
    ratio = closed_p99 / open_p99 if open_p99 > 0 else 1.0
    print(
        f"{scheme.value} @ {args.rate:g} req/s: "
        f"{'converged' if result.converged else 'NOT converged'} in "
        f"{result.n_iterations} iterations; open-loop p99 {open_p99:.3e} s, "
        f"closed-loop p99 {closed_p99:.3e} s ({ratio:.2f}x)"
    )
    if not result.converged:
        print(
            "repro cosim: reporting the best (lowest-residual) iterate; "
            f"residual {result.residual_seconds_per_token * 1e9:.3f} ns/token",
            file=sys.stderr,
        )
    if export_trace is not None and result.final_trace is not None:
        _cosim_export(result.final_trace, export_trace)
    return 0 if result.converged else 1


def _export_sweep_trace(args: argparse.Namespace, rates, runs) -> None:
    """``cosim sweep --export-trace``: write one grid point's converged
    DRAM trace (``--export-rate``, default the highest rate)."""
    rate = rates[-1] if args.export_rate is None else args.export_rate
    if rate not in rates:
        raise ValueError(f"--export-rate {rate} not in the grid {list(rates)}")
    run = runs[list(rates).index(rate)]
    if run is None or run.final_trace is None:
        # Checkpoint-restored and failed points carry no live run
        # (their trace was never rebuilt).
        print(
            f"repro cosim sweep: no trace to export for rate {rate:g} (point "
            "was restored from a checkpoint or failed); rerun without "
            "--resume to regenerate it",
            file=sys.stderr,
        )
    else:
        _cosim_export(run.final_trace, args.export_trace)


def _cmd_sweep(args: argparse.Namespace) -> int:
    """``repro cosim sweep`` and ``repro cluster sweep``."""
    from repro.cosim import SWEEP_CKPT_SUFFIX, SweepInterrupted
    from repro.experiments import run_experiment

    cluster = args.command == "cluster"
    prog = f"repro {args.command} sweep"
    ckpt = args.checkpoint or (args.output + SWEEP_CKPT_SUFFIX)
    try:
        exp = _experiment_config(args)
        if cluster:
            exp = exp.replaced(mode="cluster")
        elif exp.mode == "cluster":
            raise ValueError(
                "the base config is a cluster experiment; run it with "
                "repro cluster sweep"
            )
        on_point = None
        if args.interrupt_after is not None:
            from repro.faults import interrupt_after

            on_point = interrupt_after(args.interrupt_after)
        try:
            result, runs = run_experiment(
                exp,
                workers=args.workers,
                checkpoint_path=ckpt,
                resume=args.resume,
                on_point=on_point,
            )
        except SweepInterrupted as exc:
            print(
                f"{prog}: interrupted ({exc}); completed points are "
                f"checkpointed in {ckpt} -- rerun the same command with "
                "--resume to continue",
                file=sys.stderr,
            )
            return 130
        if cluster:
            from repro.cluster import format_cluster_sweep

            print(format_cluster_sweep(result))
            curves = [
                (f"replicas={c.replicas} policy={c.policy} ", c.points)
                for c in result.curves
            ]
        else:
            from repro.cosim import format_sweep

            print(format_sweep(result))
            curves = [("", result.points)]
        if result.slo_p99_seconds > 0.0:
            source = "auto, 5x uncongested p99" if result.slo_auto else "--slo-p99-ms"
            print(
                f"SLO threshold: p99 <= {result.slo_p99_seconds * 1e3:.3g} ms "
                f"({source})"
            )
            if cluster:
                top_rate = exp.rates[-1]
                devices = result.devices_for_load(top_rate)
                answer = (
                    "none -- no swept fleet size sustains it"
                    if devices is None
                    else f"{devices} ({result.cluster.devices_per_replica} per replica)"
                )
                print(f"devices for {top_rate:g} req/s within SLO: {answer}")
            else:
                answer = (
                    f"{result.slo_capacity_rps:.3g} req/s"
                    if result.slo_capacity_rps > 0.0
                    else "none -- p99 exceeds the threshold at every grid point"
                )
                print(f"SLO capacity ({result.engine}): {answer}")
        if not cluster:
            _print_traffic_columns(result)
        result.save(args.output)
        print(f"wrote {args.output}")
        if getattr(args, "export_trace", None) is not None:
            _export_sweep_trace(args, exp.rates, runs)
    except (OSError, ValueError) as exc:
        print(f"{prog}: {exc}", file=sys.stderr)
        return 2

    status = 0
    for label, points in curves:
        for p in points:
            if p.failed:
                print(f"{prog}: {label}rate {p.rate:g} FAILED: {p.error}",
                      file=sys.stderr)
                status = 1
        lowest = points[0]
        if not (lowest.converged or lowest.failed):
            print(
                f"{prog}: {label}lowest offered load failed to converge "
                f"within {exp.loop.max_iterations} iterations (best-iterate "
                f"residual {lowest.residual_seconds_per_token * 1e9:.3f} "
                "ns/token)",
                file=sys.stderr,
            )
            status = 1
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="MoNDE (DAC 2024) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("characterize", help="Fig. 2 characterization tables")

    evaluate = sub.add_parser("evaluate", help="Fig. 6-style scheme comparison")
    evaluate.add_argument("--workload", choices=sorted(WORKLOADS), default="flores")
    evaluate.add_argument("--batch", type=int, default=4)
    evaluate.add_argument("--decode-steps", type=int, default=16)

    skew = sub.add_parser("skew", help="Fig. 3-style expert-load histogram")
    skew.add_argument("--workload", choices=sorted(WORKLOADS), default="flores")
    skew.add_argument("--batch", type=int, default=4)
    skew.add_argument("--seed", type=int, default=0)

    sub.add_parser("area-power", help="Table 3 NDP area/power")
    sub.add_parser("dram", help="DRAM bandwidth calibration")

    bench = sub.add_parser(
        "bench", help="memory-controller throughput benchmark"
    )
    bench.add_argument("--requests", type=int, default=1_000_000,
                       help="trace length for the indexed scheduler")
    bench.add_argument("--reference-requests", type=int, default=None,
                       help="trace length for the O(n^2) reference "
                            "(defaults to --requests; cap it for speed)")
    bench.add_argument("--no-reference", action="store_true",
                       help="skip the reference baseline")
    bench.add_argument("--patterns", default="streaming,random,moe-skewed")
    bench.add_argument("--arrival", choices=("poisson", "batched", "onoff"),
                       default=None,
                       help="open-loop arrival process stamped onto the "
                            "trace (default: all requests at cycle 0)")
    bench.add_argument("--arrival-gap", type=float, default=8.0,
                       help="mean inter-arrival gap in controller cycles "
                            "for --arrival")
    bench.add_argument("--smoke", action="store_true",
                       help="CI-sized run (20k requests, 5k reference)")
    bench.add_argument("--chaos", action="store_true",
                       help="run the deterministic fault-injection smoke "
                            "instead of the benchmark: worker kill/hang/"
                            "crash recovery, trace corruption detection, "
                            "and sweep interrupt+resume, each verified "
                            "bit-identical to an undisturbed run")
    bench.add_argument("--trace-file", default=None, metavar="PATH",
                       help="bench an on-disk .dramtrace instead of the "
                            "generated patterns (end-to-end load+simulate, "
                            "array path vs Request-list path; excludes "
                            "--requests/--patterns/--arrival; the O(n^2) "
                            "reference runs only when --reference-requests "
                            "caps it)")
    bench.add_argument("--window", type=int, default=64)
    bench.add_argument("--workers", type=int, default=None, metavar="N",
                       help="also time the parallel drain path: per-channel "
                            "drains over an N-worker pool, checked "
                            "bit-identical against the serial array path")
    bench.add_argument("--stream-window", type=int, default=None, metavar="W",
                       help="with --trace-file: also time the bounded-window "
                            "streaming path (simulate_trace_streaming with "
                            "W-request admission chunks), checked "
                            "bit-identical against the in-memory array path")
    bench.add_argument("--seed", type=int, default=7)
    bench.add_argument("--output", default="BENCH_controller.json")

    trace = sub.add_parser(
        "trace", help="binary .dramtrace generation and inspection"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    gen = trace_sub.add_parser(
        "gen", help="export a generator+arrival combination to .dramtrace"
    )
    gen.add_argument("--pattern", default="random",
                     choices=("streaming", "random", "moe-skewed"))
    gen.add_argument("--requests", type=int, default=1_000_000)
    gen.add_argument("--arrival", choices=("poisson", "batched", "onoff"),
                     default=None,
                     help="open-loop arrival process (default: all at cycle 0)")
    gen.add_argument("--arrival-gap", type=float, default=8.0,
                     help="mean inter-arrival gap in controller cycles")
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--chunk-requests", type=int, default=4_000_000,
                     help="records per write chunk (bounds staging memory)")
    gen.add_argument("--output", required=True, metavar="PATH.dramtrace")
    info = trace_sub.add_parser("info", help="inspect a .dramtrace header")
    info.add_argument("path")

    traffic = sub.add_parser(
        "traffic",
        help="production-traffic scenarios and routing-trace ingestion",
    )
    traffic_sub = traffic.add_subparsers(dest="traffic_command", required=True)
    traffic_sub.add_parser("list", help="the named scenario zoo")
    describe = traffic_sub.add_parser(
        "describe", help="one scenario's intent + resolved experiment JSON"
    )
    describe.add_argument("name")
    texport = traffic_sub.add_parser(
        "export",
        help="render a routing-trace CSV (layer_id,token_id,"
             "expert_0_prob,...) as a trace-faithful .dramtrace",
    )
    texport.add_argument("--trace", required=True, metavar="PATH.csv",
                         help="routing-trace CSV (see README: one row per "
                              "(layer, token) with per-expert probabilities)")
    texport.add_argument("--output", required=True, metavar="PATH.dramtrace")
    texport.add_argument("--top-k", type=int, default=2,
                         help="experts each token routes to (default: 2)")
    texport.add_argument("--expert-bytes", type=int, default=1 << 18,
                         help="weight bytes per expert region "
                              "(default: 262144)")
    texport.add_argument("--burst-blocks", type=int, default=32,
                         help="64B blocks per routing event (default: 32)")
    texport.add_argument("--write-fraction", type=float, default=0.1,
                         help="fraction of bursts that are writebacks "
                              "(default: 0.1)")
    texport.add_argument("--seed", type=int, default=0,
                         help="writeback/resume draw seed; same trace + "
                              "same seed => byte-identical file "
                              "(default: 0)")
    texport.add_argument("--small-dram", action="store_true",
                         help="address-map against the small test DRAM "
                              "config instead of LPDDR5X-8533")

    # The config flags (_SWEEP_FLAGS) appear on `cosim` and on both
    # sweeps.  Every one defaults to SUPPRESS (a flag the user did not
    # type leaves its ExperimentConfig field alone): the sweep
    # subparser shares the namespace with its parent, so a real
    # default here would silently overwrite a value the user passed
    # before the `sweep` token.
    supp = argparse.SUPPRESS
    common = argparse.ArgumentParser(add_help=False, argument_default=supp)
    _add_sweep_flags(common, "all")
    from repro.experiments import PRESET_NAMES

    common.add_argument("--preset", choices=PRESET_NAMES,
                        help="named experiment preset as the base "
                             "config; explicit flags override "
                             "individual fields")
    common.add_argument("--config", metavar="PATH.json",
                        help="experiment config file "
                             "(repro.experiments.ExperimentConfig "
                             "JSON) as the base; explicit flags "
                             "override individual fields")
    cosim_common = argparse.ArgumentParser(
        add_help=False, parents=[common], argument_default=supp
    )
    cosim_common.add_argument("--export-trace", metavar="PATH.dramtrace",
                              help="export the converged iteration's DRAM "
                                   "request stream")

    cosim = sub.add_parser(
        "cosim", parents=[cosim_common],
        help="closed-loop serving<->DRAM co-simulation",
    )
    cosim.add_argument("--rate", type=float, default=2.0,
                       help="offered load (requests/second)")
    cosim.add_argument("--workers", type=int, default=0, metavar="N",
                       help="fan the DRAM drains over an N-worker pool "
                            "(bit-identical; default: serial)")
    cosim_sweep = cosim.add_subparsers(dest="cosim_command").add_parser(
        "sweep", parents=[cosim_common],
        help="drive the loop across an offered-load grid",
    )
    cosim_sweep.add_argument("--smoke", action="store_true",
                             help="shorthand for --preset smoke (CI-sized: "
                                  "synthetic costs, small DRAM); like any "
                                  "preset, explicit flags such as "
                                  "--requests or --max-iters override it")
    cosim_sweep.add_argument("--export-rate", type=float, default=None,
                             help="grid rate whose converged trace "
                                  "--export-trace writes (default: highest)")
    cluster = sub.add_parser(
        "cluster",
        help="cluster-scale sharded serving simulation",
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)
    cluster_sweep = cluster_sub.add_parser(
        "sweep", parents=[common],
        help="replica-count x sharding-policy capacity curves "
             "(how many NDP devices serve offered load R at p99 <= X)",
    )
    _add_sweep_flags(cluster_sweep, "cluster")
    for name, sweep in (("cosim", cosim_sweep), ("cluster", cluster_sweep)):
        _add_sweep_flags(sweep, "sweep")
        sweep.add_argument("--workers", type=int, default=0, metavar="N",
                           help="N-worker process pool: runs the grid "
                                "points when two or more remain, else the "
                                "last point's DRAM drains (bit-identical "
                                "to the serial sweep; default: serial)")
        sweep.add_argument("--output", default=f"{name}_sweep.json")
        sweep.add_argument("--checkpoint", default=None, metavar="PATH",
                           help="durable per-point checkpoint file "
                                "(default: <output>.sweep.ckpt)")
        sweep.add_argument("--resume", action="store_true",
                           help="skip rate points already recorded in the "
                                "checkpoint (bit-identical to an "
                                "uninterrupted sweep)")
        sweep.add_argument("--interrupt-after", type=int, default=None,
                           metavar="N",
                           help="fault injection: abort the sweep after N "
                                "completed points (exercises the "
                                "checkpoint/--resume path)")
    return parser


_HANDLERS = {
    "characterize": _cmd_characterize,
    "evaluate": _cmd_evaluate,
    "skew": _cmd_skew,
    "area-power": _cmd_area_power,
    "dram": _cmd_dram,
    "bench": _cmd_bench,
    "trace": _cmd_trace,
    "traffic": _cmd_traffic,
    "cosim": _cmd_cosim,
    "cluster": _cmd_sweep,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
