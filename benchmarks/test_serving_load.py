"""Extension bench: serving latency under load, per scheme.

Not a paper figure -- the deployment view of Fig. 6: at a fixed
offered load, what latency does each scheme deliver, and how much
load can it sustain before the queue blows up?
"""

import pytest

from repro.analysis.report import format_table
from repro.core.strategies import Scheme
from repro.cosim import run_load_sweep
from repro.experiments import ServingConfig
from repro.serving.simulator import CostModel
from repro.workloads import flores_like

RATES = (0.5, 2.0, 6.0)  # requests/second
N_REQUESTS = 120


def build_rows():
    sc = flores_like(batch=1)
    rows = []
    sustained = {}
    for scheme in (Scheme.GPU_PM, Scheme.MD_LB, Scheme.IDEAL):
        cost = CostModel.from_runtime(
            sc.model, scheme, profile=sc.profile, ref_decode_steps=4
        )
        # planner=None: serving-only open loop; queue_limit 512
        # matches the historical standalone loop the deleted
        # repro.serving.load_sweep adapter preserved.
        _, runs = run_load_sweep(
            cost, scheme, None, list(RATES), n_requests=N_REQUESTS,
            serving=ServingConfig(
                mean_prompt_tokens=512, mean_decode_tokens=16, queue_limit=512
            ),
        )
        sweep = list(zip(RATES, (r.closed_loop for r in runs)))
        for rate, result in sweep:
            rows.append(
                [scheme.value, rate, round(result.mean_latency, 3),
                 round(result.latency_percentile(99), 3),
                 round(result.utilization, 2)]
            )
        sustained[scheme] = {rate: r for rate, r in sweep}
    return rows, sustained


@pytest.mark.benchmark(min_rounds=1, max_time=1)
def test_serving_load(benchmark, report):
    rows, sustained = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    report(
        "serving_load",
        format_table(
            ["scheme", "req/s", "mean latency s", "p99 s", "utilization"], rows
        ),
    )
    # At every offered load, MD+LB delivers lower latency than GPU+PM.
    for rate in RATES:
        pm = sustained[Scheme.GPU_PM][rate]
        lb = sustained[Scheme.MD_LB][rate]
        assert lb.mean_latency < pm.mean_latency
    # At the highest load GPU+PM is saturated while MD+LB still serves.
    top = RATES[-1]
    assert sustained[Scheme.GPU_PM][top].utilization > 0.95
    assert (
        sustained[Scheme.MD_LB][top].mean_latency
        < 0.5 * sustained[Scheme.GPU_PM][top].mean_latency
    )
    # Ideal bounds everything.
    for rate in RATES:
        assert (
            sustained[Scheme.IDEAL][rate].mean_latency
            <= sustained[Scheme.MD_LB][rate].mean_latency * 1.001
        )
