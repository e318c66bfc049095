"""Exact busy-period memo for co-simulation drains.

The co-simulation drains the same bursts again and again: a cold
expert's weight stream is the same bytes every time a request
activates that expert, a main replay covers a whole serving run on
every fixed-point iteration and at every rate point, and the isolation
baseline drains each request's burst on its own, spaced far enough
behind the previous one that every horizon has expired.  The
per-channel drain loop (``MemoryController._drain_channel_gen``)
therefore consults a :class:`SegmentMemo` at the idle jump it already
takes when the scheduling window is empty and arrivals are still
outstanding.  The *segment* there is the run of requests, in the
channel's arrival-ordered queue, that arrive at the next arrival cycle
``a0``.

Why applying a stored outcome is exact:

- **Horizons.**  A segment is looked up or recorded only if every
  timing horizon of the channel has expired at ``a0``
  (:func:`horizons_expired`).  Every ready cycle the scheduler then
  computes for the segment is at least ``a0``, so no earlier horizon
  binds, and its schedule relative to ``a0`` is a function of the
  controller spec, the segment's content (flat bank, row, column,
  write bit) and the channel's open rows: the key
  (:func:`segment_key`).
- **Scheduler state that is not a horizon.**  The starvation counter
  is 0 at every idle jump (the retirement that emptied the window
  retired the oldest live request, which resets it); the ACT floor
  estimate and lazily invalidated heap entries only file candidates,
  never change which one wins.
- **Store.**  The outcome is stored at the segment's last retirement
  only if no later arrival has been admitted.  A later arrival can only
  influence a decision by being admitted (the preemption rule moves
  channel time to it and the admission loop takes it in), so the
  stored drain is the segment's alone.
- **Hit.**  A stored outcome applies only if the next arrival is at or
  after ``a0`` plus the stored end command-bus cycle: every decision
  of the stored drain chose an earlier cycle, so that arrival can
  neither be admitted nor preempt, and a cold drain runs identically.
- **Fields a segment did not write** keep their values.  A bank
  horizon was written iff it now lies past ``a0`` (every write lands
  after ``a0``, every older horizon at or before it), which needs
  ``tRCD``, ``tRP`` and ``tRAS`` of at least one cycle
  (:func:`usable`).  Appending the stored ACT tail reproduces the
  ``tFAW`` history: the segment's first four ACTs only see expired
  entries, whatever the history length, and later ones its own.

A stored outcome is one int32 array, every cycle relative to ``a0``::

    [end, last_complete, data_bus, last_col, last_bankgroup,
     last_was_write, read_after_write, last_act,
     precharges, activates, conflicts, misses, row_hits, n_tail,
     <n_tail ACT cycles: the segment's last <= 4, for tFAW>,
     <per touched bank: bank, open_row, eact, epre, ecol, row_hits>,
     <k first-command cycles>, <k (completion << 1 | row-hit class)>]

``end`` is the command-bus cycle after the last column command.  A
field the segment did not write is -1 (read_after_write, last_act,
open_row) or 0 (bank horizons).
"""

from __future__ import annotations

import hashlib

import numpy as np

_INT32_MAX = int(np.iinfo(np.int32).max)

#: Default element budget of a :class:`SegmentMemo`: one element per
#: request outcome, 8 bytes each (plus a small per-entry header), so
#: at most about 8 MB when full.
MEMO_MAX_ELEMENTS = 1 << 20


class SegmentMemo:
    """Drained busy-period outcomes keyed by spec, content and open rows.

    Holds at most ``max_elements`` request outcomes; the oldest entries
    are evicted first.  Counters: ``hits`` busy periods applied from
    the memo, ``misses`` eligible ones drained, ``stores`` drained ones
    stored.
    """

    def __init__(self, max_elements: int = MEMO_MAX_ELEMENTS) -> None:
        if max_elements < 0:
            raise ValueError("max_elements must be non-negative")
        self.max_elements = int(max_elements)
        self._entries: dict = {}
        self._elements = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0

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


def horizons_expired(
    t, a0: int, cb, dnext, lcc, raw, lact, hist, eact, epre, ecol
) -> bool:
    """True when none of one channel's timing horizons can bind a
    command issued at or after cycle ``a0``: the command and data bus,
    ``tCCD_L``, ``tWTR``, ``tRRD``, every ``tFAW`` history entry and
    each bank's earliest ACT / PRE / column cycle."""
    return not (
        cb > a0
        or dnext - min(t.tCL, t.tCWL) > a0
        or lcc + t.tCCD_L > a0
        or raw - t.tCL > a0
        or lact + t.tRRD > a0
        or (hist and max(hist) + t.tFAW > a0)
        or max(eact) > a0
        or max(epre) > a0
        or max(ecol) > a0
    )


def usable(t) -> bool:
    """Whether the written-past-``a0`` rule holds for timings ``t``."""
    return min(t.tRCD, t.tRP, t.tRAS) >= 1


def key_prefix(spec):
    """Digest state of the controller spec, the first part of every
    key (copied per segment)."""
    return hashlib.blake2b(repr(spec).encode(), digest_size=16)


def segment_key(prefix, content, lo: int, hi: int, open_rows) -> bytes:
    """Key of the segment ``lo:hi``: spec, length, content (the drain's
    int64 column packing flat bank, row, column and write bit, one
    value per request) and the channel's open rows."""
    digest = prefix.copy()
    digest.update((hi - lo).to_bytes(8, "little"))
    digest.update(content[lo:hi])
    digest.update(repr(open_rows).encode())
    return digest.digest()


def lookup(memo, key, a0: int, next_arrival):
    """The stored outcome for ``key`` if it applies to a segment
    arriving at ``a0`` whose next arrival is ``next_arrival`` (``None``:
    no later arrival), else ``None``.  Counts the hit or miss."""
    entry = memo.get(key)
    if entry is not None and (
        next_arrival is None or next_arrival >= a0 + int(entry[0])
    ):
        memo.hits += 1
        return entry
    memo.misses += 1
    return None


def store(memo, key, a0, lo, hi, regs, hist, banks, columns, stats, stats0) -> None:
    """Store the outcome of the segment ``lo:hi`` that arrived at
    ``a0`` and just retired its last request.  ``regs`` are the
    channel registers (cb, dnext, lcc, lbg, law, raw, lact), ``banks``
    the per-bank lists (open row, eact, epre, ecol, row hits, row hits
    at ``a0``), ``columns`` the drain's (bf, iswr) input lists and the
    int64/int64/int8 numpy views of its (o_first, o_complete, o_hit)
    output buffers, and ``stats0`` the counters at ``a0``.  Skipped
    when a value does not fit int32."""
    cb, dnext, lcc, lbg, law, raw, lact = regs
    b_open, b_eact, b_epre, b_ecol, b_hits, hits0 = banks
    bf, iswr, o_first, o_complete, o_hit = columns
    acts = stats.activates - stats0[1]
    tail = [h - a0 for h in list(hist)[-acts:]] if acts else []

    def moved(cycle):
        return cycle - a0 if cycle > a0 else 0

    complete = o_complete[lo:hi]
    head = [
        cb - a0,
        int(complete.max()) - a0,
        dnext - a0,
        lcc - a0,
        lbg,
        int(law),
        raw - a0 if any(iswr[lo:hi]) else -1,
        lact - a0 if acts else -1,
        stats.precharges - stats0[0],
        acts,
        stats.row_conflicts - stats0[2],
        stats.row_misses - stats0[3],
        stats.row_hits - stats0[4],
        len(tail),
        *tail,
    ]
    for b in sorted(set(bf[lo:hi])):
        orow = b_open[b]
        head += (
            b,
            -1 if orow is None else orow,
            moved(b_eact[b]),
            moved(b_epre[b]),
            moved(b_ecol[b]),
            b_hits[b] - hits0[b],
        )
    first = o_first[lo:hi] - a0
    done = (complete - a0) << 1
    done |= o_hit[lo:hi]
    entry = np.concatenate((np.array(head, dtype=np.int64), first, done))
    if entry.max() > _INT32_MAX:
        return
    if memo.put(key, entry.astype(np.int32), hi - lo):
        memo.stores += 1


def apply(entry, a0, lo, hi, regs, hist, banks, outputs, stats) -> tuple:
    """Write the stored outcome ``entry`` for the segment ``lo:hi``
    arriving at ``a0``: per-request outputs into ``outputs``, the
    int64/int64/int8 numpy views of the drain's (o_first, o_complete,
    o_hit) buffers, one slice each, bank state
    into ``banks`` (open row, eact, epre, ecol, row hits), ACTs into
    ``hist`` and counters into ``stats``.  Returns the channel
    registers ``regs`` (cb, dnext, lcc, lbg, law, raw, lact) after the
    segment, plus its last completion cycle."""
    cb, dnext, lcc, lbg, law, raw, lact = regs
    o_first, o_complete, o_hit = outputs
    b_open, b_eact, b_epre, b_ecol, b_hits = banks
    k = hi - lo
    done = entry[-k:]
    # The entry is int32 and a0 an absolute cycle: widen before adding.
    np.add(entry[-2 * k : -k], a0, out=o_first[lo:hi], dtype=np.int64)
    np.add(done >> 1, a0, out=o_complete[lo:hi], dtype=np.int64)
    np.bitwise_and(done, 1, out=o_hit[lo:hi], casting="unsafe")
    (
        cb_at, done_at, dbus_at, col_at, lbg, law, raw_at, act_at,
        pc, ac, rc, rm, rh, n_tail, *rest,
    ) = entry[: -2 * k].tolist()
    if raw_at >= 0:
        raw = a0 + raw_at
    if act_at >= 0:
        lact = a0 + act_at
    for x in rest[:n_tail]:
        hist.append(a0 + x)
    for i in range(n_tail, len(rest), 6):
        b, orow, ea, ep, ec, dh = rest[i : i + 6]
        b_open[b] = None if orow < 0 else orow
        if ea:
            b_eact[b] = a0 + ea
        if ep:
            b_epre[b] = a0 + ep
        if ec:
            b_ecol[b] = a0 + ec
        b_hits[b] += dh
    stats.precharges += pc
    stats.activates += ac
    stats.row_conflicts += rc
    stats.row_misses += rm
    stats.row_hits += rh
    regs = (a0 + cb_at, a0 + dbus_at, a0 + col_at, lbg, bool(law), raw, lact)
    return regs, a0 + done_at
