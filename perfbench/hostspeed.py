"""Host-speed probe for timing on a shared machine.

On a host shared with other tenants the speed of one core drifts by
tens of percent over tens of seconds, so the wall time of identical
work does too.  :func:`timed` samples that speed while a call runs: a
periodic timer signal interrupts the call and times a fixed piece of
interpreter-bound work (dictionary and list updates, the same kind of
work as the simulator's scheduler loops).  The call's wall time, less
the probes' own time, is then rescaled to the reference speed at
which one probe takes :data:`REFERENCE_PROBE_S`.
"""

from __future__ import annotations

import signal
import statistics
import time

#: seconds one probe takes at the reference host speed; the scale of
#: every rescaled time (measured on a 2-core x86 container, Python 3.11)
REFERENCE_PROBE_S = 0.004

#: seconds between probes; probes take about 4% of the timed call
PROBE_INTERVAL_S = 0.1

_PROBE_ITEMS = 12_000


def _probe() -> float:
    start = time.perf_counter()
    table: dict[int, int] = {}
    queue: list[int] = []
    for i in range(_PROBE_ITEMS):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + i
        queue.append(key)
        if len(queue) > 64:
            queue.pop(0)
    return time.perf_counter() - start


def timed(fn, *args, exclude=None):
    """Run ``fn(*args)`` under the probe.

    Returns ``(result, rescaled seconds, wall seconds)``.  One probe
    runs just before the call, so a call shorter than the probe
    interval still has a speed sample.  ``exclude(seconds)``, when
    given, is told the length of each probe taken inside the call (a
    tracer keeps it out of the span the probe interrupted).
    """
    samples = [_probe()]
    busy = False

    def on_alarm(signum, frame):
        nonlocal busy
        if busy:
            return
        busy = True
        spent = _probe()
        samples.append(spent)
        if exclude is not None:
            exclude(spent)
        busy = False

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    start = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        # Timer off first: every probe taken lies inside the wall time.
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        wall = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    probing = sum(samples[1:])
    scale = REFERENCE_PROBE_S / statistics.fmean(samples)
    return result, (wall - probing) * scale, wall
