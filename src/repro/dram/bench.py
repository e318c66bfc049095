"""Controller-throughput benchmark harness (``repro bench``).

Times the cycle-level memory controller -- requests simulated per
wall-clock second -- on the access shapes from
:mod:`repro.workloads.traces` (streaming, uniform random, skewed MoE)
or on an on-disk ``.dramtrace`` file (``--trace-file``), and emits a
JSON payload (``BENCH_controller.json``) so successive PRs accumulate
a perf trajectory.

Timed implementations per pattern:

- ``indexed`` -- one ``simulate()`` call on a pre-built Request list
  (the historical simulate-only number; ingestion excluded).
- ``reference`` -- same, on the pre-optimization O(n^2) scheduler
  from :mod:`repro.dram.reference`.
- ``objects`` -- *end-to-end* Request-list path: materializing the
  object list from trace columns (or a trace file) **plus**
  ``simulate()``.
- ``arrays`` -- *end-to-end* array-native path: (for ``--trace-file``)
  mmap-loading the columns **plus** ``simulate_arrays()``; in-memory
  columns feed the scheduler directly, so ingestion is free.
- ``parallel`` (``--workers N``, N >= 2) -- the array path with
  per-channel drains fanned out over the worker pool
  (:mod:`repro.dram.parallel`); pool startup is included in the timed
  region, so this is the cold end-to-end number.
- ``streaming`` (``--trace-file`` + ``--stream-window W``) -- the
  bounded-resident-state path: ``simulate_trace_streaming`` feeding
  ``W``-request chunks through the resumable per-channel drains.

``object_layer_speedup`` (arrays req/s over objects req/s) is the
object-layer overhead the array-native front door removes;
``parallel_speedup`` is parallel req/s over arrays req/s.  Every
same-length pair is also checked for bit-identical stats
(``parallel_identical`` / ``streaming_identical`` alongside the
existing checks; a capped reference is checked against an indexed
drain of its prefix; ``repro bench`` exits nonzero on any mismatch).

The committed baseline lives at ``benchmarks/perf/BENCH_controller.json``;
see ``benchmarks/perf/README.md`` for how to read and refresh it, and
``benchmarks/perf/check_regression.py`` for the CI regression gate.
"""

from __future__ import annotations

import pathlib
import platform as _platform
import time
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from repro.dram.config import DRAMConfig, LPDDR5X_8533
from repro.dram.controller import ControllerStats, MemoryController
from repro.dram.reference import ReferenceMemoryController
from repro.dram.request import requests_from_arrays

#: Patterns benched by default, in report order.
DEFAULT_PATTERNS = ("streaming", "random", "moe-skewed")


@dataclass(frozen=True)
class BenchRun:
    """One timed run of one implementation.

    ``elapsed_seconds`` covers the whole timed region;
    ``ingest_seconds`` is the portion spent turning the trace into the
    implementation's input form (file load and/or Request-object
    construction) before the simulate call -- 0.0 where ingestion is
    excluded (``indexed``/``reference``) or free (in-memory
    ``arrays``).
    """

    pattern: str
    implementation: str  # "indexed" | "reference" | "arrays" | "objects"
    n_requests: int
    elapsed_seconds: float
    ingest_seconds: float
    requests_per_second: float
    total_cycles: int
    row_hit_rate: float
    row_hits: int
    row_misses: int
    row_conflicts: int
    activates: int
    precharges: int
    queue_delay_mean: float
    queue_delay_p99: float
    idle_cycles: int


def _make_run(
    pattern: str,
    implementation: str,
    n_requests: int,
    elapsed: float,
    ingest: float,
    stats: ControllerStats,
) -> BenchRun:
    return BenchRun(
        pattern=pattern,
        implementation=implementation,
        n_requests=n_requests,
        elapsed_seconds=elapsed,
        ingest_seconds=ingest,
        requests_per_second=n_requests / elapsed if elapsed > 0 else 0.0,
        total_cycles=stats.total_cycles,
        row_hit_rate=stats.row_hit_rate,
        row_hits=stats.row_hits,
        row_misses=stats.row_misses,
        row_conflicts=stats.row_conflicts,
        activates=stats.activates,
        precharges=stats.precharges,
        queue_delay_mean=stats.queue_delay_mean,
        queue_delay_p99=stats.queue_delay_p99,
        idle_cycles=sum(stats.idle_channel_cycles.values()),
    )


def _make_columns(
    pattern: str,
    n_requests: int,
    config: DRAMConfig,
    seed: int,
    arrival: Optional[str] = None,
    arrival_gap: float = 8.0,
):
    from repro.workloads.traces import generate_trace_arrays

    return generate_trace_arrays(
        pattern, n_requests, config=config, seed=seed,
        arrival=arrival, arrival_gap=arrival_gap,
    )


def _bench_entry(
    pattern: str,
    config: DRAMConfig,
    columns,
    trace_file: Optional[str],
    ref_columns,
    include_reference: bool,
    controller_kwargs: dict,
    workers: Optional[int] = None,
    stream_window: Optional[int] = None,
) -> dict:
    """Time every implementation on one trace; returns the JSON entry.

    ``columns`` are the in-memory ``(addrs, arrive_cycles, flags)``
    for the trace; when ``trace_file`` is set, the end-to-end paths
    re-load it from disk inside their timed regions instead of using
    the columns directly.
    """
    addrs, arrive, flags = columns
    n_requests = len(addrs)

    # End-to-end Request-list path: object construction + simulate().
    # The simulate() portion alone is the historical "indexed" number.
    controller = MemoryController(config, **controller_kwargs)
    start = time.perf_counter()
    if trace_file is not None:
        from repro.workloads.trace_io import load_trace

        trace = load_trace(trace_file)
        requests = requests_from_arrays(
            trace.addrs, trace.arrive_cycles, trace.flags
        )
    else:
        requests = requests_from_arrays(addrs, arrive, flags)
    mid = time.perf_counter()
    objects_stats = controller.simulate(requests)
    end = time.perf_counter()
    entry = {
        "indexed": asdict(
            _make_run(pattern, "indexed", n_requests, end - mid, 0.0, objects_stats)
        ),
        "objects": asdict(
            _make_run(
                pattern, "objects", n_requests, end - start, mid - start, objects_stats
            )
        ),
    }
    del requests

    # End-to-end array-native path: (load +) simulate_arrays().
    controller = MemoryController(config, **controller_kwargs)
    start = time.perf_counter()
    if trace_file is not None:
        trace = load_trace(trace_file)
        a, c, f = trace.addrs, trace.arrive_cycles, trace.flags
        mid = time.perf_counter()
    else:
        a, c, f = addrs, arrive, flags
        mid = start
    arrays_stats = controller.simulate_arrays(a, c, f)
    end = time.perf_counter()
    arrays_run = _make_run(
        pattern, "arrays", n_requests, end - start, mid - start, arrays_stats
    )
    entry["arrays"] = asdict(arrays_run)
    entry["object_layer_speedup"] = (
        arrays_run.requests_per_second
        / entry["objects"]["requests_per_second"]
        if entry["objects"]["requests_per_second"]
        else float("inf")
    )
    entry["array_path_identical"] = asdict(arrays_stats) == asdict(objects_stats)

    if workers is not None and workers >= 2:
        # Parallel per-channel draining: same array path, drains
        # fanned out over a worker pool.  The pool spins up inside the
        # timed region (cold number); amortized per-call cost is lower
        # when the controller is reused.
        controller = MemoryController(config, workers=workers, **controller_kwargs)
        try:
            start = time.perf_counter()
            if trace_file is not None:
                trace = load_trace(trace_file)
                a, c, f = trace.addrs, trace.arrive_cycles, trace.flags
                mid = time.perf_counter()
            else:
                a, c, f = addrs, arrive, flags
                mid = start
            parallel_stats = controller.simulate_arrays(a, c, f)
            end = time.perf_counter()
        finally:
            controller.close()
        parallel_run = _make_run(
            pattern, "parallel", n_requests, end - start, mid - start, parallel_stats
        )
        entry["parallel"] = asdict(parallel_run)
        entry["parallel_workers"] = workers
        entry["parallel_speedup"] = (
            parallel_run.requests_per_second / arrays_run.requests_per_second
            if arrays_run.requests_per_second
            else float("inf")
        )
        entry["parallel_identical"] = asdict(parallel_stats) == asdict(arrays_stats)

    if stream_window is not None and trace_file is not None:
        # Bounded-window streaming: chunked admission through the
        # resumable per-channel drains, end to end from the file.
        controller = MemoryController(config, **controller_kwargs)
        start = time.perf_counter()
        streaming_stats = controller.simulate_trace_streaming(
            trace_file, window=stream_window
        )
        end = time.perf_counter()
        streaming_run = _make_run(
            pattern, "streaming", n_requests, end - start, 0.0, streaming_stats
        )
        entry["streaming"] = asdict(streaming_run)
        entry["streaming_window"] = stream_window
        entry["streaming_identical"] = asdict(streaming_stats) == asdict(arrays_stats)

    if include_reference:
        ref_addrs, ref_arrive, ref_flags = ref_columns
        ref_requests = requests_from_arrays(ref_addrs, ref_arrive, ref_flags)
        controller = ReferenceMemoryController(config, **controller_kwargs)
        start = time.perf_counter()
        reference_stats = controller.simulate(ref_requests)
        end = time.perf_counter()
        reference_run = _make_run(
            pattern, "reference", len(ref_addrs), end - start, 0.0, reference_stats
        )
        entry["reference"] = asdict(reference_run)
        entry["speedup"] = (
            entry["indexed"]["requests_per_second"]
            / reference_run.requests_per_second
            if reference_run.requests_per_second
            else float("inf")
        )
        if len(ref_addrs) == n_requests:
            indexed_stats = objects_stats
        else:
            # Capped reference: check it against an untimed indexed
            # drain of the same prefix, so the identity check still runs.
            controller = MemoryController(config, **controller_kwargs)
            indexed_stats = controller.simulate_arrays(ref_addrs, ref_arrive, ref_flags)
        entry["stats_identical"] = asdict(indexed_stats) == asdict(reference_stats)
    return entry


def bench_controller(
    n_requests: int = 1_000_000,
    patterns: Sequence[str] = DEFAULT_PATTERNS,
    reference_requests: Optional[int] = None,
    include_reference: bool = True,
    config: DRAMConfig = LPDDR5X_8533,
    seed: int = 7,
    arrival: Optional[str] = None,
    arrival_gap: float = 8.0,
    workers: Optional[int] = None,
    **controller_kwargs,
) -> dict:
    """Bench every pattern; returns the JSON-ready payload.

    ``reference_requests`` caps the reference runs at a prefix of the
    trace (its drain loop is O(n^2), so full-length runs can take
    minutes); when capped, the recorded speedup is *conservative* --
    the reference throughput is measured at the shorter, faster-for-it
    length.  The reference's ControllerStats are checked for
    bit-identity against the indexed scheduler on the same requests
    (the full run, or an extra untimed indexed drain of the capped
    prefix) and the result recorded per pattern (``stats_identical``;
    ``array_path_identical`` covers arrays vs objects and is always
    recorded).

    ``arrival`` selects an open-loop arrival process
    (:data:`repro.workloads.traces.ARRIVAL_PROCESSES`) stamped onto the
    trace with a mean inter-arrival gap of ``arrival_gap`` cycles;
    ``None`` keeps the all-at-cycle-0 batch default.

    ``workers`` >= 2 adds a ``parallel`` run per pattern: the array
    path with per-channel drains fanned out over that many pool
    workers, checked bit-identical against the serial array run.
    """
    if n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    ref_n = reference_requests if reference_requests is not None else n_requests
    results = {}
    for pattern in patterns:
        columns = _make_columns(
            pattern, n_requests, config, seed, arrival, arrival_gap
        )
        ref_columns = None
        if include_reference:
            ref_columns = tuple(c[:ref_n] for c in columns)
        results[pattern] = _bench_entry(
            pattern, config, columns, None, ref_columns,
            include_reference, controller_kwargs, workers=workers,
        )
    return {
        "benchmark": "dram-controller-throughput",
        "n_requests": n_requests,
        "reference_requests": ref_n if include_reference else None,
        "seed": seed,
        "arrival": arrival,
        "arrival_gap_cycles": arrival_gap if arrival is not None else None,
        "workers": workers,
        "config": "LPDDR5X_8533" if config is LPDDR5X_8533 else "custom",
        "python": _platform.python_version(),
        "machine": _platform.machine(),
        "patterns": results,
    }


def bench_trace_file(
    trace_file: str,
    reference_requests: Optional[int] = None,
    include_reference: bool = False,
    config: DRAMConfig = LPDDR5X_8533,
    workers: Optional[int] = None,
    stream_window: Optional[int] = None,
    **controller_kwargs,
) -> dict:
    """Bench an on-disk ``.dramtrace``: end-to-end (load + simulate)
    array path vs the Request-list path, same payload shape as
    :func:`bench_controller` with one pattern named after the file.

    Both end-to-end implementations re-open the file inside their
    timed regions; the array path feeds the ``np.memmap`` column views
    straight into ``simulate_arrays`` (the OS streams pages in as the
    drain touches them), the object path pays the full per-request
    materialization.  The reference scheduler is optional and capped
    at ``reference_requests`` (it is O(n^2) in trace length).

    ``workers`` >= 2 adds the ``parallel`` run (load + parallel
    ``simulate_arrays``); ``stream_window`` adds the ``streaming`` run
    (``simulate_trace_streaming`` with that admission window), both
    checked bit-identical against the serial array run.
    """
    from repro.workloads.trace_io import load_trace

    path = pathlib.Path(trace_file)
    trace = load_trace(path)
    n_requests = len(trace)
    if n_requests < 1:
        raise ValueError(f"{path}: empty trace")
    pattern = path.stem
    columns = (trace.addrs, trace.arrive_cycles, trace.flags)
    ref_columns = None
    ref_n = reference_requests if reference_requests is not None else n_requests
    if include_reference:
        ref_columns = (
            trace.addrs[:ref_n],
            trace.arrive_cycles[:ref_n],
            trace.flags[:ref_n],
        )
    entry = _bench_entry(
        pattern, config, columns, str(path), ref_columns,
        include_reference, controller_kwargs,
        workers=workers, stream_window=stream_window,
    )
    return {
        "benchmark": "dram-controller-throughput",
        "trace_file": str(path),
        "n_requests": n_requests,
        "reference_requests": ref_n if include_reference else None,
        "seed": None,
        "arrival": None,
        "arrival_gap_cycles": None,
        "workers": workers,
        "stream_window": stream_window,
        "config": "LPDDR5X_8533" if config is LPDDR5X_8533 else "custom",
        "python": _platform.python_version(),
        "machine": _platform.machine(),
        "patterns": {pattern: entry},
    }


def write_bench(payload: dict, path: str) -> None:
    """Atomically publish a bench payload: a crash mid-refresh must
    never leave a torn baseline for the regression gate to read."""
    from repro.util.atomic_io import atomic_write_json

    atomic_write_json(path, payload, indent=2, sort_keys=False)


def format_bench(payload: dict) -> str:
    """Human-readable table for the CLI."""
    from repro.analysis.report import format_table

    rows = []
    for pattern, entry in payload["patterns"].items():
        impls = ("arrays", "parallel", "streaming", "objects", "indexed", "reference")
        for impl in impls:
            run = entry.get(impl)
            if run is None:
                continue
            label = impl
            if impl == "parallel":
                label = f"parallel(w={entry.get('parallel_workers', '?')})"
            elif impl == "streaming":
                label = f"streaming(win={entry.get('streaming_window', '?')})"
            rows.append(
                [
                    pattern,
                    label,
                    run["n_requests"],
                    round(run["elapsed_seconds"], 3),
                    int(run["requests_per_second"]),
                    round(run["row_hit_rate"], 3),
                    round(run["queue_delay_p99"], 1),
                ]
            )
        rows.append(
            [
                pattern,
                "-> arrays vs objects",
                "",
                "",
                f"{entry['object_layer_speedup']:.2f}x",
                "",
                "",
            ]
        )
        if "parallel_speedup" in entry:
            rows.append(
                [
                    pattern,
                    "-> parallel vs arrays",
                    "",
                    "",
                    f"{entry['parallel_speedup']:.2f}x",
                    "",
                    "",
                ]
            )
    return format_table(
        ["pattern", "impl", "requests", "sec", "req/s", "hit rate", "q-delay p99"],
        rows,
    )


def all_identity_checks_pass(payload: dict) -> bool:
    """True iff every recorded bit-identity check in a payload holds
    (used by the CLI to turn a silent mismatch into a failing exit).
    A reference run without its ``stats_identical`` check fails too."""
    for entry in payload["patterns"].values():
        if "reference" in entry and "stats_identical" not in entry:
            return False
        for key in (
            "array_path_identical",
            "stats_identical",
            "parallel_identical",
            "streaming_identical",
        ):
            if not entry.get(key, True):
                return False
    return True


def bench_parallel_section(
    trace_sizes: Sequence[int] = (1_000_000, 10_000_000),
    workers_grid: Sequence[int] = (2, 4),
    pattern: str = "random",
    config: DRAMConfig = LPDDR5X_8533,
    seed: int = 7,
    **controller_kwargs,
) -> dict:
    """The committed baseline's ``parallel`` section: serial vs
    parallel wall clock per trace size and worker count.

    Per trace size the serial array path runs once, then each worker
    count runs the identical columns through a fresh ``workers=N``
    controller.  Pool spin-up happens *inside* the timed region (the
    cold number is what a one-shot CLI user pays; warm per-call cost
    is lower when a controller or executor is reused), so the
    recorded speedups are conservative, most visibly on the smaller
    trace.  ``identical`` records the
    bit-identity check against the serial stats, ``speedup`` the
    serial/parallel elapsed ratio.  ``cpu_count`` captures the machine
    the numbers were taken on -- speedup saturates at
    ``min(workers, channels, cores)``, so single-digit-core CI boxes
    will not reproduce the multi-core ratios.
    """
    import os

    sizes = {}
    for n in trace_sizes:
        columns = _make_columns(pattern, n, config, seed)
        addrs, arrive, flags = columns
        controller = MemoryController(config, **controller_kwargs)
        start = time.perf_counter()
        serial_stats = controller.simulate_arrays(addrs, arrive, flags)
        serial_elapsed = time.perf_counter() - start
        per_workers = {}
        for w in workers_grid:
            controller = MemoryController(config, workers=w, **controller_kwargs)
            try:
                start = time.perf_counter()
                par_stats = controller.simulate_arrays(addrs, arrive, flags)
                elapsed = time.perf_counter() - start
            finally:
                controller.close()
            per_workers[str(w)] = {
                "elapsed_seconds": elapsed,
                "requests_per_second": n / elapsed if elapsed > 0 else 0.0,
                "speedup": serial_elapsed / elapsed if elapsed > 0 else float("inf"),
                "identical": asdict(par_stats) == asdict(serial_stats),
            }
        sizes[str(n)] = {
            "serial_seconds": serial_elapsed,
            "serial_requests_per_second": n / serial_elapsed if serial_elapsed else 0.0,
            "workers": per_workers,
        }
    return {
        "benchmark": "dram-controller-parallel-drain",
        "pattern": pattern,
        "seed": seed,
        "config": "LPDDR5X_8533" if config is LPDDR5X_8533 else "custom",
        "cpu_count": os.cpu_count(),
        "channels": config.organization.n_channels,
        "python": _platform.python_version(),
        "machine": _platform.machine(),
        "traces": sizes,
    }
