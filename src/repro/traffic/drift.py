"""Expert-popularity drift over a serving run.

The paper's encoder/decoder asymmetry (Fig. 3) is a *snapshot*; over
a production day the identity of the hot experts moves as the topic
mix shifts.  A :class:`DriftSchedule` models that: the request stream
is cut into fixed-size windows, and at each window boundary
("checkpoint") every layer's popularity is re-mixed toward a seeded
permutation of itself -- mass migrates from the old hot set to a new
one while the overall skew is preserved.  Each re-mix is derived from
``(seed, checkpoint)`` alone via a fresh seeded ``Generator``, so the
same scenario seed always produces the same drift trajectory
(bit-identical bursts across runs).

:class:`DriftingReplayPlanner` plugs the schedule into the
expert-faithful replay planner.  Windows are indexed by *request id*,
not wall time: a request's DRAM addresses stay a pure function of
``(seed, request_id, tokens)``, preserving the planner's
``stable_addresses`` contract across co-simulation iterations while
the popularity under later requests has drifted -- exactly the access
pattern that evicts an LRU expert cache's working set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cosim.replay import ExpertReplayPlanner

#: Namespacing code for drift re-mix Generators (tuple-seeding idiom:
#: ``default_rng((seed, _DRIFT_CODE, checkpoint))``).
_DRIFT_CODE = 0x0D21F7


@dataclass(frozen=True)
class DriftSchedule:
    """Deterministic popularity re-mixing at request-count checkpoints.

    ``window_requests`` requests share one popularity epoch; ``mix``
    is the fraction of probability mass moved to the permuted copy at
    each checkpoint (0 = frozen, 1 = full reshuffle each window).
    """

    window_requests: int
    mix: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.window_requests < 1:
            raise ValueError("window_requests must be >= 1")
        if not 0.0 <= self.mix <= 1.0:
            raise ValueError("mix must be in [0, 1]")

    def checkpoint_of(self, request_id: int) -> int:
        return request_id // self.window_requests

    def popularity_at(
        self, checkpoint: int, base: np.ndarray, layer: int = 0
    ) -> np.ndarray:
        """Layer popularity in effect at a checkpoint.

        Checkpoint 0 is the base distribution; checkpoint ``c`` blends
        the base with its checkpoint-seeded permutation, compounding
        one permutation per elapsed window so consecutive epochs stay
        correlated (hot sets migrate rather than teleport).
        """
        if checkpoint < 0:
            raise ValueError("checkpoint must be >= 0")
        pop = np.asarray(base, dtype=np.float64)
        for c in range(1, checkpoint + 1):
            rng = np.random.default_rng((self.seed, _DRIFT_CODE, layer, c))
            perm = rng.permutation(len(pop))
            pop = (1.0 - self.mix) * pop + self.mix * pop[perm]
        total = pop.sum()
        return pop / total if total > 0 else pop


class DriftingReplayPlanner(ExpertReplayPlanner):
    """Expert replay whose per-layer popularity drifts with request id.

    Identical to :class:`~repro.cosim.replay.ExpertReplayPlanner` in
    every other respect (region layout, block allocation, replay), so
    checkpoint 0 reproduces the non-drifting planner's bursts exactly.
    """

    def __init__(
        self,
        *args,
        drift_window_requests: int = 64,
        drift_mix: float = 0.5,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.drift = DriftSchedule(
            window_requests=drift_window_requests,
            mix=drift_mix,
            seed=self.seed,
        )
        self._drift_cache: dict[int, list[np.ndarray]] = {}

    def _popularity_for(self, request_id: int) -> list[np.ndarray]:
        checkpoint = self.drift.checkpoint_of(request_id)
        cached = self._drift_cache.get(checkpoint)
        if cached is None:
            cached = [
                self.drift.popularity_at(checkpoint, base, layer=layer)
                for layer, base in enumerate(self._popularity)
            ]
            self._drift_cache[checkpoint] = cached
        return cached

    def __getstate__(self) -> dict:
        # The cache is a pure function of (drift, _popularity); drop
        # it like the block cache so pickles stay small.
        state = super().__getstate__()
        state["_drift_cache"] = {}
        return state
