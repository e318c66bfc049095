"""Host-time benchmark of the MoNDE reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload cosim_batching --seed 1 --seconds 20 --trace 0

One process, no worker pools.  A run

1. sets the workload up several times over, each time from a fresh
   import of the ``repro`` package, and keeps the median set-up time;
2. with ``--trace 0``, runs whole passes of the workload until the next
   one would overrun ``--seconds`` and reports end-to-end metrics;
   with ``--trace 1``, runs one untraced and one traced pass and
   reports per-layer self times and counters (see ``tracer.py``);
3. checks every operation's output, and that every pass, traced or
   not, produced byte-identical simulated statistics.

Times are rescaled to a reference host speed (see ``hostspeed.py``);
the raw wall time of every pass is printed as well.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
the simulated-statistics digest and a summary of the simulated results.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import pathlib
import resource
import statistics
import sys

from hostspeed import timed
from tracer import Tracer
from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: set-ups per run; the median is reported
SETUP_REPEATS = 15

#: layers whose self times the traced run reports (``tracer.py`` and
#: each workload's ``trace`` say which entry points each one wraps)
LAYERS = (
    "dram.main",
    "dram.iso",
    "cosim",
    "serving",
    "replay",
    "cluster.backend",
    "cluster.transfer",
    "cluster.merge",
    "ndp.gemm",
    "core.layer_time",
    "core.alpha_tune",
    "core.routing",
    "core.runtime",
)

COUNTERS = (
    "dram.main.calls",
    "dram.main.requests",
    "dram.iso.calls",
    "dram.iso.requests",
    "serving.calls",
    "replay.calls",
    "replay.elements",
    "cosim.iterations",
    "ndp.gemm.calls",
)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def setup(workload, seed: int):
    """Median rescaled seconds of ``SETUP_REPEATS`` fresh set-ups, plus
    the state of the last one."""
    samples = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        state, seconds, _ = timed(workload.setup, seed)
        samples.append(seconds)
    return statistics.median(samples), state


def run_pass(workload, state, exclude=None):
    """One pass: (result, digest, outcome, rescaled s, wall s)."""
    gc.collect()
    result, seconds, wall = timed(workload.run, state, exclude=exclude)
    digest = _digest(workload.digest(result))
    return result, digest, workload.check(result), seconds, wall


def measure(workload, state, seconds: float):
    """Untraced passes until the next one would overrun ``seconds``.

    Each pass's time is scaled to the workload's reference amount of
    simulated work, so that seeds whose inputs need more or fewer
    fixed-point iterations compare."""
    counter = Tracer()
    workload.count_work(counter, state)
    passes = []
    spent = 0.0
    try:
        while True:
            before = counter.counts["replay.elements"]
            result, digest, outcome, scaled, wall = run_pass(workload, state)
            work = counter.counts["replay.elements"] - before
            if work:
                scaled *= workload.reference_work / work
            passes.append((digest, outcome, scaled, wall))
            spent += wall
            if spent + statistics.median(p[3] for p in passes) > seconds:
                return result, passes
    finally:
        counter.restore()


def trace(workload, state):
    """One untraced pass, then one traced pass of the same inputs."""
    plain = run_pass(workload, state)
    tracer = Tracer()
    workload.trace(tracer, state)
    try:
        traced = run_pass(workload, state, exclude=tracer.exclude)
    finally:
        tracer.restore()
    s, c = tracer.self_s, tracer.counts
    metrics = {f"{layer}.self_s": _metric(s.get(layer, 0.0), "s") for layer in LAYERS}
    metrics.update({name: _metric(c.get(name, 0), "count") for name in COUNTERS})
    metrics["dram.main.req_per_s"] = _metric(
        _ratio(c["dram.main.requests"], s.get("dram.main", 0.0)), "1/s"
    )
    metrics["dram.iso.repeat_ratio"] = _metric(
        _ratio(c["dram.iso.repeat_bursts"], c["dram.iso.bursts"]), "ratio"
    )
    metrics["ndp.gemm.distinct_ratio"] = _metric(
        _ratio(tracer.gemm_distinct, c["ndp.gemm.calls"]), "ratio"
    )
    covered = sum(s.get(layer, 0.0) for layer in LAYERS)
    metrics["trace.coverage"] = _metric(
        covered / (traced[4] - tracer.excluded_s), "ratio"
    )
    metrics["trace.overhead_s"] = _metric(traced[3] - plain[3], "s")
    passes = [p[1:] for p in (plain, traced)]
    return traced[0], passes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload]()

    setup_s, state = setup(workload, args.seed)
    if args.trace:
        result, passes, metrics = trace(workload, state)
    else:
        result, passes = measure(workload, state, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": _metric(statistics.median(p[2] for p in passes), "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(peak_mb, "MB"),
        }

    digests = sorted({p[0] for p in passes})
    failures = [reason for p in passes for reason in p[1].failures]
    attempted = sum(p[1].attempted for p in passes)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"ops_attempted {attempted} ops_failed {len(failures)}")
    print("pass wall_s " + " ".join(repr(p[3]) for p in passes))
    print("pass rescaled_s " + " ".join(repr(p[2]) for p in passes))
    for digest in digests:
        print(f"digest sha256 {digest}")
    for line in workload.summary(result):
        print(line)
    for reason in failures:
        print(f"FAILED {reason}")
    if len(digests) != 1:
        print("FAILED simulated statistics differ between passes")
    print(
        json.dumps(
            {
                "correct": not failures and len(digests) == 1,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
