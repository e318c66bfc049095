"""Segment-wise drains with an exact content memo.

The co-simulation's isolation baseline drains streams made of
*segments* -- one serving request's accesses each -- spaced far enough
apart that consecutive segments never overlap.  Many segments repeat
the same content (same addresses, flags and relative arrival offsets),
within one fixed-point run, across its iterations and across the rate
points of a sweep.  :func:`drain_segments` drains such a stream on one
controller, segment by segment, and skips the drain of any segment
whose outcome it has already seen.  Its completion cycles are
bit-identical to a single cold
``MemoryController(...).simulate_arrays(...)`` call on the whole
stream.

Why a memo hit is exact:

- **Horizons.**  Channel state that can influence scheduling is a set
  of timing horizons (command and data bus, ``tCCD_L``/``tCCD_S``,
  ``tWTR``, ``tRRD``, each ``tFAW`` history entry, and each bank's
  earliest ACT / PRE / column cycle) plus each bank's open row.  Every
  command of a segment issues at or after its first arrival ``a0``, so
  a horizon at or before ``a0`` can never bind.  When all of them have
  expired, the segment's outcome relative to ``a0`` is a function of
  its own content and the open rows only: that is the memo key.  A
  segment that starts with a live horizon drains without the memo and
  is never stored.
- **Segment boundaries.**  Draining segment by segment equals one
  drain of the whole stream only if no segment's commands run past the
  next segment's first arrival (the scheduler would then have let
  them compete).  After each segment, if any channel's command bus is
  still busy at the next segment's first arrival, the controller is
  restored to its pre-segment state and the rest of the stream drains
  in one call.  The isolation serializer's gaps make this a guard,
  not a path; it is enforced rather than assumed.

A hit writes the cached completion offsets plus ``a0`` and applies the
cached end state of every channel the segment touched, shifted by
``a0``.  Horizons the segment did not move stay expired after the
shift, so they remain unable to bind.  Misses drain through
:meth:`MemoryController.simulate_arrays`, always in-process.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.dram.busy_period import horizons_expired
from repro.dram.controller import ControllerSpec
from repro.dram.parallel import ChannelState
from repro.dram.request import FLAG_WRITE

#: Default element budget of a :class:`SegmentMemo`: one element per
#: request outcome, 4 bytes for an isolation completion offset and 8
#: (plus a small per-entry header) for a main-drain busy period, so at
#: most about 8 MB when full.
MEMO_MAX_ELEMENTS = 1 << 20

_INT32_MAX = np.iinfo(np.int32).max
_CYCLE_FIELDS = (
    "cmd_bus_next",
    "data_bus_next",
    "last_col_cycle",
    "read_after_write_ok",
    "last_act_cycle",
)
_LIST_CYCLE_FIELDS = ("act_history", "earliest_act", "earliest_pre", "earliest_col")


class SegmentMemo:
    """Drained-segment outcomes keyed by spec, content and open rows.

    Serves two users: :func:`drain_segments` (isolation baselines) and
    the busy-period memo of main drains
    (``MemoryController.simulate_arrays(..., memo=...)``).  Holds at
    most ``max_elements`` request outcomes across both; the oldest
    entries are evicted first.

    Isolation counters say how each segment drained: ``hits`` from the
    memo, ``misses`` drained and stored, ``live`` drained unmemoized
    because a horizon was still live at its first arrival,
    ``interleaved`` streams whose remainder drained in one call
    because segments would have overlapped.  Main-drain counters:
    ``main_hits`` busy periods applied from the memo, ``main_misses``
    eligible ones drained, ``main_stores`` drained ones stored.
    """

    def __init__(self, max_elements: int = MEMO_MAX_ELEMENTS) -> None:
        if max_elements < 0:
            raise ValueError("max_elements must be non-negative")
        self.max_elements = int(max_elements)
        self._entries: dict = {}
        self._elements = 0
        self.hits = 0
        self.misses = 0
        self.live = 0
        self.interleaved = 0
        self.main_hits = 0
        self.main_misses = 0
        self.main_stores = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def elements(self) -> int:
        """Request outcomes currently held."""
        return self._elements

    def get(self, key):
        hit = self._entries.get(key)
        return None if hit is None else hit[1]

    def put(self, key, entry, size: int) -> bool:
        """Store ``entry`` (the outcome of ``size`` requests) unless
        the key is present or it alone exceeds the budget; returns
        whether it was stored."""
        if size > self.max_elements or key in self._entries:
            return False
        while self._elements + size > self.max_elements:
            oldest = next(iter(self._entries))
            self._elements -= self._entries.pop(oldest)[0]
        self._entries[key] = (size, entry)
        self._elements += size
        return True


def segment_starts(ids) -> np.ndarray:
    """Start index of every contiguous run of equal values in ``ids``."""
    ids = np.asarray(ids)
    if len(ids) == 0:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(([0], np.flatnonzero(np.diff(ids)) + 1))


def _horizons_expired(channels, a0: int) -> bool:
    """True when no timing horizon of any channel can bind a command
    issued at or after cycle ``a0``."""
    return all(
        horizons_expired(
            ch.timing,
            a0,
            ch._cmd_bus_next,
            ch._data_bus_next,
            ch._last_col_cycle,
            ch._read_after_write_ok,
            ch._last_act_cycle,
            ch._act_history,
            [b.earliest_act for b in ch.banks],
            [b.earliest_pre for b in ch.banks],
            [b.earliest_col for b in ch.banks],
        )
        for ch in channels
    )


def _shifted(state: ChannelState, delta: int, row_hits: list) -> ChannelState:
    """``state`` with every cycle-valued field moved by ``delta`` and
    its bank row-hit counters replaced by ``row_hits``."""
    return dataclasses.replace(
        state,
        **{f: getattr(state, f) + delta for f in _CYCLE_FIELDS},
        **{f: [c + delta for c in getattr(state, f)] for f in _LIST_CYCLE_FIELDS},
        row_hits=row_hits,
    )


def drain_segments(
    spec: ControllerSpec,
    addrs,
    arrive,
    flags,
    starts,
    memo: SegmentMemo,
) -> np.ndarray:
    """Completion cycles (input order) of the stream ``addrs``,
    ``arrive``, ``flags`` drained on one cold ``spec`` controller,
    segment by segment.

    ``starts`` are the segments' start indices (ascending, first 0).
    Segments whose horizons have expired are looked up in ``memo`` and
    stored on a miss.  The result equals
    ``spec.build().simulate_arrays(addrs, arrive, flags,
    detail=True)[1].complete_cycles`` exactly.
    """
    addrs = np.asarray(addrs, dtype=np.int64)
    arrive = np.asarray(arrive, dtype=np.int64)
    n = len(addrs)
    if len(arrive) != n:
        raise ValueError(f"{len(arrive)} arrive cycles for {n} addrs")
    if flags is None:
        write_flags = np.zeros(n, dtype=np.uint8)
    else:
        if len(flags) != n:
            raise ValueError(f"{len(flags)} flags for {n} addrs")
        # Only the write bit reaches the scheduler (priority bits are
        # ignored), so only it joins the memo key.
        write_flags = (np.asarray(flags) & FLAG_WRITE).astype(np.uint8)
    complete = np.zeros(n, dtype=np.int64)
    if n == 0:
        return complete
    starts = np.asarray(starts, dtype=np.int64)
    if (
        len(starts) == 0
        or starts[0] != 0
        or starts[-1] >= n
        or (np.diff(starts) <= 0).any()
    ):
        raise ValueError("segment starts must ascend strictly from 0 within the stream")
    bounds = np.append(starts, n).tolist()
    first_arrivals = np.minimum.reduceat(arrive, starts).tolist()
    controller = spec.build()
    channels = controller.channels

    for k in range(len(starts)):
        lo, hi = bounds[k], bounds[k + 1]
        a0 = first_arrivals[k]
        before = [ChannelState.capture(ch) for ch in channels]
        key = None
        if _horizons_expired(channels, a0):
            digest = hashlib.blake2b(digest_size=16)
            digest.update(addrs[lo:hi].tobytes())
            digest.update((arrive[lo:hi] - a0).tobytes())
            digest.update(write_flags[lo:hi].tobytes())
            key = (
                spec,
                hi - lo,
                digest.digest(),
                tuple(b.open_row for ch in channels for b in ch.banks),
            )
        entry = None if key is None else memo.get(key)
        if entry is not None:
            memo.hits += 1
            offsets, states = entry
            complete[lo:hi] = offsets
            complete[lo:hi] += a0
            for ci, rel in states.items():
                channel = channels[ci]
                hits = [b.row_hits + d for b, d in zip(channel.banks, rel.row_hits)]
                _shifted(rel, a0, hits).apply(channel)
        else:
            _, timings = controller.simulate_arrays(
                addrs[lo:hi], arrive[lo:hi], write_flags[lo:hi], detail=True
            )
            complete[lo:hi] = timings.complete_cycles
            if key is None:
                memo.live += 1
            else:
                memo.misses += 1
                offsets = timings.complete_cycles - a0
                if offsets.max() <= _INT32_MAX:
                    offsets = offsets.astype(np.int32)
                states = {}
                for ci, (ch, pre) in enumerate(zip(channels, before)):
                    if ch._cmd_bus_next == pre.cmd_bus_next:
                        continue  # no command issued: channel untouched
                    post = ChannelState.capture(ch)
                    deltas = [a - b for a, b in zip(post.row_hits, pre.row_hits)]
                    states[ci] = _shifted(post, -a0, deltas)
                memo.put(key, (offsets, states), len(offsets))
        if k + 1 < len(starts) and any(
            ch._cmd_bus_next > first_arrivals[k + 1] for ch in channels
        ):
            # This segment's commands ran into the next one's arrivals:
            # one drain would have interleaved them, so rewind and
            # drain the rest of the stream as a whole.
            memo.interleaved += 1
            for ch, state in zip(channels, before):
                state.apply(ch)
            _, timings = controller.simulate_arrays(
                addrs[lo:], arrive[lo:], write_flags[lo:], detail=True
            )
            complete[lo:] = timings.complete_cycles
            break
    return complete
