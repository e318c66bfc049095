"""Degradation bookkeeping for the fault-tolerant simulation runtime.

Every recovery action the runtime takes -- a retried pool task, a
worker-pool respawn after a dead worker, a drain that fell back to the
serial path -- is *recorded*, not just logged: the supervisor appends
a :class:`ResilienceEvent` to the :class:`ResilienceReport` attached
to the run's :class:`~repro.dram.controller.ControllerStats`
(``stats.resilience``), so callers can assert a run was clean, surface
degradations in sweep output, or fail CI when a "bit-identical"
parallel run silently limped home on retries.

The report is deliberately **not** a dataclass field of
``ControllerStats``: the equivalence suites (and ``repro bench``'s
exit-code identity gate) compare ``dataclasses.asdict(stats)`` between
implementations, and a degraded-but-recovered parallel run must still
compare bit-identical to the serial run it reproduced.  Attaching the
report as a plain attribute keeps it out of ``asdict`` while keeping
it one hop from the stats every caller already holds.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field

logger = logging.getLogger("repro.resilience")

#: Event kinds, in roughly increasing order of severity.
KIND_TASK_RETRY = "task_retry"
KIND_TASK_TIMEOUT = "task_timeout"
KIND_WORKER_DEATH = "worker_death"
KIND_POOL_RESPAWN = "pool_respawn"
KIND_SERIAL_FALLBACK = "serial_fallback"
KIND_POINT_FAILED = "point_failed"


@dataclass(frozen=True)
class ResilienceEvent:
    """One recovery action taken by the runtime."""

    #: one of the ``KIND_*`` constants above
    kind: str
    #: DRAM channel index (or sweep-point index) the action concerned;
    #: -1 when the action was global (e.g. a whole-pool respawn)
    channel: int = -1
    #: 1-based attempt number that triggered the action (0 = n/a)
    attempt: int = 0
    #: seconds slept before the resubmit (deterministic backoff)
    backoff_seconds: float = 0.0
    detail: str = ""


@dataclass
class ResilienceReport:
    """Aggregated recovery record for one simulation/sweep run."""

    events: list[ResilienceEvent] = field(default_factory=list)

    def record(
        self,
        kind: str,
        channel: int = -1,
        attempt: int = 0,
        backoff_seconds: float = 0.0,
        detail: str = "",
    ) -> ResilienceEvent:
        """Append one event (also emitted on the
        ``repro.resilience`` logger at WARNING level)."""
        event = ResilienceEvent(
            kind=kind,
            channel=channel,
            attempt=attempt,
            backoff_seconds=backoff_seconds,
            detail=detail,
        )
        self.events.append(event)
        logger.warning(
            "resilience: %s channel=%s attempt=%d backoff=%.3fs %s",
            kind,
            channel,
            attempt,
            backoff_seconds,
            detail,
        )
        return event

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    @property
    def task_retries(self) -> int:
        return self.count(KIND_TASK_RETRY)

    @property
    def task_timeouts(self) -> int:
        return self.count(KIND_TASK_TIMEOUT)

    @property
    def worker_deaths(self) -> int:
        return self.count(KIND_WORKER_DEATH)

    @property
    def pool_respawns(self) -> int:
        return self.count(KIND_POOL_RESPAWN)

    @property
    def serial_fallbacks(self) -> int:
        return self.count(KIND_SERIAL_FALLBACK)

    @property
    def degraded(self) -> bool:
        """True when any recovery action was taken this run."""
        return bool(self.events)

    def merge(self, other: "ResilienceReport") -> None:
        self.events.extend(other.events)

    def to_dict(self) -> dict:
        return {
            "degraded": self.degraded,
            "task_retries": self.task_retries,
            "task_timeouts": self.task_timeouts,
            "worker_deaths": self.worker_deaths,
            "pool_respawns": self.pool_respawns,
            "serial_fallbacks": self.serial_fallbacks,
            "events": [asdict(e) for e in self.events],
        }

    def summary(self) -> str:
        if not self.events:
            return "clean (no degradations)"
        return (
            f"{len(self.events)} degradation event(s): "
            f"{self.task_retries} retries, {self.task_timeouts} timeouts, "
            f"{self.worker_deaths} worker deaths, "
            f"{self.pool_respawns} pool respawns, "
            f"{self.serial_fallbacks} serial fallbacks"
        )
