"""Span tracer that times the simulator's layers from the outside.

The simulator carries no instrumentation of its own.  :class:`Tracer`
replaces a layer's entry points (methods on its classes, or functions
in its modules) with wrappers that open a span on entry and close it
on return.  A span's *self time* is its duration minus the durations
of the spans nested inside it, so the self times of all layers add up
to the traced wall time less whatever ran outside every span.

Counters sit at the same boundaries (calls, requests drained, trace
elements replayed), so ratios are measured where the work happens.
Spans are aggregated in memory per layer name; nothing is written
while the workload runs.  ``restore()`` puts every original back.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter, defaultdict

import numpy as np

_clock = time.perf_counter


class Tracer:
    """Aggregated span self times and counters, keyed by layer name."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        #: seconds spent inside traced calls on work that is not the
        #: simulator's (burst digests, shape keys, host-speed probes);
        #: charged to no layer
        self.excluded_s = 0.0
        # Open spans, innermost last: [name, start, child seconds].
        self._stack: list[list] = []
        self._iso_depth = 0
        self._patches: list[tuple[object, str, object]] = []
        self._gemm_shapes: set = set()
        self._iso_bursts: set = set()

    # -- spans --------------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        frame = [name, _clock(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            self._stack.pop()
            duration = end - frame[1]
            self.self_s[name] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration

    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` just spent outside the simulator out of the
        innermost open span's self time."""
        self.excluded_s += seconds
        if self._stack:
            self._stack[-1][2] += seconds

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped entry point back, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def span(self, owner, attr: str, name: str, count=None) -> None:
        """Time ``owner.attr`` as layer ``name``.  ``count(tracer,
        args, result)`` may add counters after each call."""
        fn = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer._call(name, fn, args, kwargs)
            tracer.counts[f"{name}.calls"] += 1
            if count is not None:
                count(tracer, args, result)
            return result

        self._patch(owner, attr, wrapper)

    # -- layer-specific boundaries -------------------------------------------

    def drains(self, controller_cls) -> None:
        """``MemoryController.simulate_arrays``: a main drain, or an
        isolation-baseline drain when an isolation span is open."""
        fn = controller_cls.__dict__["simulate_arrays"]
        tracer = self

        def wrapper(controller, addrs, *args, **kwargs):
            name = "dram.iso" if tracer._iso_depth else "dram.main"
            result = tracer._call(name, fn, (controller, addrs) + args, kwargs)
            tracer.counts[f"{name}.calls"] += 1
            tracer.counts[f"{name}.requests"] += len(addrs)
            return result

        self._patch(controller_cls, "simulate_arrays", wrapper)

    def isolation(self, driver_cls, attr: str, burst_ids: bool) -> None:
        """A ``CosimDriver`` method that drains an isolation baseline.  Its own
        work and every drain it issues are charged to ``dram.iso``.
        Each burst it drains is digested by content (addresses, flags
        and, for per-request baselines, intra-request arrival offsets)
        to count bursts whose content was already drained earlier."""
        fn = driver_cls.__dict__[attr]
        tracer = self

        def wrapper(driver, trace, *args, **kwargs):
            start = _clock()
            if burst_ids:
                ids = args[0] if args else kwargs.get("ids")
                ids = trace.request_ids if ids is None else ids
                tracer._note_bursts(trace, ids, offsets=False)
            else:
                tracer._note_bursts(trace, trace.request_ids, offsets=True)
            tracer.exclude(_clock() - start)
            tracer._iso_depth += 1
            try:
                return tracer._call("dram.iso", fn, (driver, trace) + args, kwargs)
            finally:
                tracer._iso_depth -= 1

        self._patch(driver_cls, attr, wrapper)

    def _note_bursts(self, trace, ids: np.ndarray, offsets: bool) -> None:
        if len(ids) == 0:
            return
        starts = np.concatenate(([0], np.flatnonzero(np.diff(ids)) + 1))
        ends = np.concatenate((starts[1:], [len(ids)]))
        for lo, hi in zip(starts.tolist(), ends.tolist()):
            h = hashlib.blake2b(digest_size=16)
            h.update(np.ascontiguousarray(trace.addrs[lo:hi]).tobytes())
            h.update(np.ascontiguousarray(trace.flags[lo:hi]).tobytes())
            if offsets:
                arrive = trace.arrive_cycles[lo:hi]
                h.update(np.ascontiguousarray(arrive - arrive[0]).tobytes())
            key = h.digest()
            self.counts["dram.iso.bursts"] += 1
            if key in self._iso_bursts:
                self.counts["dram.iso.repeat_bursts"] += 1
            else:
                self._iso_bursts.add(key)

    def gemm(self, engine_cls) -> None:
        """``NDPGemmEngine.gemm_execution``, with distinct
        (engine, m, n, k) shapes counted."""
        fn = engine_cls.__dict__["gemm_execution"]
        tracer = self

        def wrapper(engine, m, n, k):
            result = tracer._call("ndp.gemm", fn, (engine, m, n, k), {})
            start = _clock()
            tracer.counts["ndp.gemm.calls"] += 1
            tracer._gemm_shapes.add((engine, m, n, k))
            tracer.exclude(_clock() - start)
            return result

        self._patch(engine_cls, "gemm_execution", wrapper)

    @property
    def gemm_distinct(self) -> int:
        return len(self._gemm_shapes)
