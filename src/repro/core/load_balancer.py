"""GPU-MoNDE load balancing (Section 3.3).

The balancer assigns the top-H compute-intensive (hot) experts to the
GPU workflow (PMove + GPU compute) and the remaining cold experts to
the MoNDE workflow (AMove + NDP compute), with H from Eq. 6.  The
scaling factor alpha is auto-tuned by periodically re-running a
profiled latency evaluation on recent batches and hill-climbing among
neighboring H candidates, as the paper's framework does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.analytical import AnalyticalModel


def intensity_order(token_counts: Sequence[int], experts: Iterable[int]) -> list[int]:
    """``experts`` by compute intensity: most routed tokens first, ties
    by expert id for determinism (Section 3.3)."""
    return sorted(experts, key=lambda e: (-token_counts[e], e))


@dataclass(frozen=True)
class Partition:
    """One layer's expert split between GPU and MoNDE workflows."""

    hot_experts: np.ndarray
    cold_experts: np.ndarray
    h: int

    @property
    def n_active(self) -> int:
        return len(self.hot_experts) + len(self.cold_experts)


class LoadBalancer:
    """Computes the hot/cold partition for one MoE layer."""

    def __init__(self, bw_pcie: float, bw_md: float, alpha: float = 1.0) -> None:
        self.model = AnalyticalModel(bw_pcie, bw_md)
        self.alpha = alpha

    def partition(self, token_counts: np.ndarray, alpha: float | None = None) -> Partition:
        """Split the activated experts: the H with the most routed
        tokens (most compute-intensive) go to the GPU."""
        counts = np.asarray(token_counts)
        active = np.flatnonzero(counts > 0)
        a = self.alpha if alpha is None else alpha
        h = self.model.h_value(len(active), alpha=a)
        order = np.asarray(
            intensity_order(counts.tolist(), active.tolist()), dtype=np.intp
        )
        return Partition(hot_experts=order[:h], cold_experts=order[h:], h=h)


@dataclass
class AlphaAutoTuner:
    """Profiled local search over alpha (Section 3.3).

    Every ``period`` layer invocations, re-evaluates the current alpha
    against neighbor candidates on a window of recent token-count
    profiles using a caller-supplied latency evaluator
    ``evaluate(token_counts, alpha, context) -> seconds`` and keeps the
    local optimum.  ``context`` is an opaque per-observation value
    (the runtime passes the layer id so the evaluator can consult the
    GPU expert buffer for that layer).  This mirrors the paper's
    approach of profiling inference on a small set of past input
    batches and searching among H candidates (H+1, H+2, ...).
    """

    evaluate: Callable[[np.ndarray, float, object], float]
    alpha: float = 1.0
    period: int = 2
    window: int = 4
    #: Geometric ladder: with many MoNDE devices the Eq. 6 GPU share
    #: collapses (BW_PCIe << aggregate BW_MD) and alpha must scale far
    #: above 1 to keep compute-heavy hot experts off the NDP -- the
    #: exact situation Section 3.3 introduces alpha for.
    candidates: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    _history: list[tuple[np.ndarray, object]] = field(default_factory=list)
    _invocations: int = 0
    _next_retune: int = 0
    retunes: int = 0

    def observe(self, token_counts: np.ndarray, context: object = None) -> float:
        """Record one layer profile; periodically re-tune (with
        exponential backoff once converged).  Returns the alpha to use
        for this invocation."""
        self._history.append((np.asarray(token_counts), context))
        if len(self._history) > self.window:
            self._history.pop(0)
        if self._invocations == 0:
            self._next_retune = self.period
        self._invocations += 1
        if self._invocations >= self._next_retune and self._history:
            self._retune()
            # Back off: profiling is not free, so a converged tuner
            # re-checks progressively less often.
            self._next_retune = self._invocations + min(
                64, self.period * (2**self.retunes)
            )
        return self.alpha

    def _retune(self) -> None:
        import math

        def cost(alpha: float) -> float:
            return float(
                sum(self.evaluate(counts, alpha, ctx) for counts, ctx in self._history)
            )

        # Search the whole candidate ladder (the paper's "H candidates
        # (H+1, H+2, ...)").  Ties keep alpha where it is: with few
        # active experts many alphas map to the same H, and drifting on
        # ties would walk the tuner to the ladder's edge.
        ladder = sorted(set(self.candidates) | {self.alpha})
        best = min(
            ladder,
            key=lambda a: (cost(a), abs(math.log(a) - math.log(self.alpha))),
        )
        if best != self.alpha:
            self.alpha = best
        self.retunes += 1


def round_robin_by_intensity(
    token_counts: np.ndarray, expert_ids: np.ndarray, n_devices: int
) -> list[np.ndarray]:
    """Distribute experts over NDP devices round-robin after sorting
    by compute intensity (routed tokens), Section 3.3 multi-MoNDE."""
    if n_devices < 1:
        raise ValueError("n_devices must be >= 1")
    order = intensity_order(
        np.asarray(token_counts).tolist(), np.asarray(expert_ids).tolist()
    )
    return [np.asarray(order[dev::n_devices], dtype=np.int64) for dev in range(n_devices)]
