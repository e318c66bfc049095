"""The alpha tuner's memoized evaluator is exact.

``MoNDERuntime`` memoizes each tuner evaluation by (view version,
layer, counts, H).  A runtime whose evaluator costs every candidate on
a freshly built engine must pick the same alpha after every
``observe`` and produce identical scheme results.
"""

import numpy as np
import pytest

from repro.core.cache import SteadyStateCacheView
from repro.core.engine import MoELayerEngine
from repro.core.runtime import InferenceConfig, MoNDERuntime
from repro.core.strategies import Scheme
from repro.workloads import flores_like, xsum_like


class RecordingRuntime(MoNDERuntime):
    """Records the alpha every ``observe`` returns."""

    def __init__(self, config):
        super().__init__(config)
        self.alphas = []

    def _new_tuner(self, cache):
        tuner, view = super()._new_tuner(cache)
        observe = tuner.observe

        def recorded(counts, context=None):
            alpha = observe(counts, context)
            self.alphas.append(alpha)
            return alpha

        tuner.observe = recorded
        return tuner, view


class FreshEvaluatorRuntime(RecordingRuntime):
    """Costs every tuner candidate on a new engine: no memo at all."""

    def _new_tuner(self, cache):
        tuner, view = super()._new_tuner(cache)

        def evaluate(counts, alpha, context):
            engine = MoELayerEngine(self.config.model, self.platform)
            layer_id = int(context) if context is not None else 0
            return engine.layer_time(
                Scheme.MD_LB, counts, layer_id=layer_id, cache=view, alpha=alpha
            ).seconds

        tuner.evaluate = evaluate
        return tuner, view


@pytest.mark.parametrize("make", [xsum_like, flores_like], ids=["SL-128", "N-MoE"])
@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("part", ["encoder", "decoder"])
def test_tuner_memo_matches_fresh_evaluator(make, batch, part):
    sc = make(batch=batch)
    config = InferenceConfig(
        model=sc.model, batch=batch, decode_steps=12, profile=sc.profile
    )
    memoized = RecordingRuntime(config)
    fresh = FreshEvaluatorRuntime(config)
    got = memoized.result(Scheme.MD_LB, part)
    want = fresh.result(Scheme.MD_LB, part)
    assert memoized.alphas and memoized.alphas == fresh.alphas
    assert got.seconds == want.seconds
    assert got.moe_seconds == want.moe_seconds
    assert got.alpha_used == want.alpha_used
    assert got.mean_h == want.mean_h
    assert [r.seconds for r in got.layer_results] == [
        r.seconds for r in want.layer_results
    ]


def test_view_version_bumps_on_note():
    view = SteadyStateCacheView(capacity_slots=4)
    assert view.version == 0
    view.note(0, np.array([1, 2]))
    assert view.version == 1
    before = view.access(0, [1, 2])
    view.note(0, [1])
    assert view.version == 2
    assert view.access(0, [1, 2]) != before
