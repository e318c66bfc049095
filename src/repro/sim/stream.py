"""Stream timeline calculus for modeling overlapped hardware execution.

The MoNDE paper's Fig. 5 reasons about MoE execution as work items
placed on parallel hardware streams (GPU compute, PCIe host-to-device,
PCIe device-to-host, MoNDE NDP, CPU).  Items on one stream serialize;
items on different streams overlap; a cross-stream dependency delays an
item until its producers complete.

:class:`Timeline` owns a set of named :class:`Stream` objects and
records every placed :class:`Segment` so the schedule can be inspected,
asserted on in tests, and rendered as an ASCII Gantt chart
(:func:`repro.sim.trace.render_gantt`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional


class Segment(NamedTuple):
    """One contiguous piece of work placed on a stream.

    An immutable named tuple: every enqueue builds one, and a tuple is
    the cheapest immutable record to build."""

    stream: str
    label: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "Segment") -> bool:
        """True if the two segments overlap in time (open intervals)."""
        return self.start < other.end and other.start < self.end


class Stream:
    """A serializing hardware resource (one in-flight item at a time)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.available_at = 0.0
        self.busy_time = 0.0
        self.segments: list[Segment] = []

    def enqueue(
        self,
        duration: float,
        label: str = "",
        not_before: float = 0.0,
    ) -> Segment:
        """Place ``duration`` units of work on this stream.

        The work starts at ``max(stream free time, not_before)`` --
        ``not_before`` encodes cross-stream dependencies (pass the max
        of the producers' ``end`` times).
        """
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        start = self.available_at
        if not_before > start:
            start = not_before
        end = start + duration
        segment = Segment(self.name, label, start, end)
        self.available_at = end
        self.busy_time += duration
        self.segments.append(segment)
        return segment

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Busy fraction over ``[0, horizon]`` (default: stream makespan)."""
        end = self.available_at if horizon is None else horizon
        if end <= 0:
            return 0.0
        return min(1.0, self.busy_time / end)


class Timeline:
    """A collection of named streams with a shared clock origin."""

    def __init__(self, stream_names: Iterable[str] = ()) -> None:
        self._streams: dict[str, Stream] = {}
        for name in stream_names:
            self.add_stream(name)

    def add_stream(self, name: str) -> Stream:
        if name in self._streams:
            raise ValueError(f"stream {name!r} already exists")
        stream = Stream(name)
        self._streams[name] = stream
        return stream

    def stream(self, name: str) -> Stream:
        """Get a stream, creating it lazily if needed."""
        if name not in self._streams:
            return self.add_stream(name)
        return self._streams[name]

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    @property
    def streams(self) -> dict[str, Stream]:
        return dict(self._streams)

    def enqueue(
        self,
        stream: str,
        duration: float,
        label: str = "",
        after: Iterable[Segment] = (),
        not_before: float = 0.0,
    ) -> Segment:
        """Enqueue work on ``stream`` that must start after every
        segment in ``after`` finishes and not before ``not_before``.
        """
        gate = not_before
        for dep in after:
            if dep.end > gate:
                gate = dep.end
        target = self._streams.get(stream)
        if target is None:
            target = self.add_stream(stream)
        return target.enqueue(duration, label, gate)

    def makespan(self) -> float:
        """Completion time of the last segment across all streams."""
        ends = [s.available_at for s in self._streams.values() if s.segments]
        return max(ends) if ends else 0.0

    def all_segments(self) -> list[Segment]:
        """Every placed segment, sorted by start time then stream name."""
        segments = [seg for s in self._streams.values() for seg in s.segments]
        return sorted(segments, key=lambda seg: (seg.start, seg.stream, seg.end))


@dataclass
class WorkItem:
    """Declarative description of a unit of work, used by schedulers
    that build a :class:`Timeline` from a dependency DAG."""

    stream: str
    duration: float
    label: str = ""
    deps: list["WorkItem"] = field(default_factory=list)
    _segment: Optional[Segment] = field(default=None, repr=False)

    def place(self, timeline: Timeline) -> Segment:
        """Recursively place this item and its dependencies."""
        if self._segment is not None:
            return self._segment
        dep_segments = [dep.place(timeline) for dep in self.deps]
        self._segment = timeline.enqueue(
            self.stream, self.duration, label=self.label, after=dep_segments
        )
        return self._segment
