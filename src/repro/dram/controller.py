"""FR-FCFS memory controller over one or more channels.

FR-FCFS (first-ready, first-come-first-served) prefers requests whose
row is already open (row hits) and otherwise issues the command that
can go out earliest across banks, with an age cap to prevent
starvation -- the policy Ramulator defaults to and the one assumed by
the paper's bandwidth reasoning.

Scheduling works bank-by-bank over a lookahead window:

1. For every bank with pending requests in the window, select its
   *representative* request: the oldest row hit if one exists, else
   the oldest request for that bank.
2. For each representative, compute the next command it needs (RD/WR,
   ACT, or PRE) and the earliest cycle the channel can issue it.
3. Issue the candidate with the smallest ready cycle (column commands
   win ties, then age).  This naturally overlaps row activation and
   precharge under ongoing data transfers.

The implementation is the *indexed* form of that policy, built for
million-request traces (see :mod:`repro.dram.reference` for the
original windowed-list form it is kept bit-identical to):

- the lookahead window is maintained incrementally as per-bank FIFO
  deques plus per-(bank, row) deques, so the per-bank representative
  (oldest row hit, else oldest) is always a deque head -- no per-issue
  window rebuild, no ``list.remove``;
- each bank's candidate command is cached and only recomputed when
  an event can change it: a PRE or ACT to the bank, the retirement of
  the last queued hit to its open row, or the admission of a request
  into a bank with no candidate or into a bank waiting to precharge
  the row the newcomer hits.  Any other column retirement advances the
  candidate to the row's next hit in place, and any other admission
  leaves it alone (an issued command dirties at most its own bank);
- ACT and PRE candidates live in lazily invalidated per-class heaps;
  the column candidates are scanned first, and a class's floor,
  migration and winner are computed only while its heaps hold an
  entry that could beat their winner, so most arbitrations are that
  scan alone;
- channel/bank timing state and the command counters are mirrored
  into locals for the duration of a drain, so the issue arbitration
  is a tight loop over at most ``n_banks`` cached candidates with no
  attribute access or method calls, then written back.

Address decoding is vectorized over the whole trace with
:meth:`~repro.dram.address.AddressMapper.decode_batch`.

Arrivals are honored end-to-end: per-channel queues are ordered by
``Request.arrive_cycle`` (stable, so all-at-cycle-0 batch traces keep
input order and bit-identical schedules), requests only become
schedulable once channel time reaches their arrival, idle gaps are
skipped via a sorted-arrival cursor, and per-request queue delays are
aggregated into :class:`ControllerStats`.

The native ingestion API is :meth:`MemoryController.simulate_arrays`:
parallel ``(addrs, arrive_cycles, flags)`` columns -- exactly what the
``.dramtrace`` mmap format (:mod:`repro.workloads.trace_io`) and the
array trace generators yield -- drive the indexed drain loop directly,
no :class:`~repro.dram.request.Request` objects anywhere.
:meth:`MemoryController.simulate` is a thin adapter that shreds a
Request list into those columns and scatters the per-request outputs
(decoded coordinates, first-command/completion cycles, row-hit class)
back onto the objects.

Drains may take a :class:`~repro.dram.busy_period.SegmentMemo`
(``simulate_arrays(..., memo=...)``) that skips re-draining repeated
*busy periods*: when a channel's window empties with arrivals still
outstanding, the drain jumps to the next arrival ``a0``, and the run
of requests arriving at ``a0`` whose outcome is already stored (same
spec, content and open rows, every timing horizon expired, no later
arrival able to compete) is applied instead of drained -- exactly;
see :mod:`repro.dram.busy_period`.  Command recording, streaming
feeds and parallel drains bypass the memo.
"""

from __future__ import annotations

import bisect
import enum
import heapq
import logging
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.dram.address import AddressMapper, MappingScheme
from repro.dram.channel import Channel
from repro.dram.config import DRAMConfig
from repro.dram.request import (
    FLAG_WRITE,
    Command,
    CommandKind,
    DecodedAddress,
    Request,
    arrays_from_requests,
)
from repro.dram.resilience import KIND_SERIAL_FALLBACK, ResilienceReport


if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dram.parallel import ParallelDrainExecutor

logger = logging.getLogger(__name__)

_INT64_MAX = int(np.iinfo(np.int64).max)


class SchedulerPolicy(enum.Enum):
    FR_FCFS = "fr-fcfs"
    FCFS = "fcfs"


@dataclass
class ControllerStats:
    """Aggregate statistics for one simulation run."""

    requests: int = 0
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    activates: int = 0
    precharges: int = 0
    total_cycles: int = 0
    refresh_cycles: int = 0
    busy_channel_cycles: dict[int, int] = field(default_factory=dict)
    #: Cycles each channel sat with an empty queue waiting for the
    #: next arrival (always 0 for all-at-cycle-0 batch traces).
    idle_channel_cycles: dict[int, int] = field(default_factory=dict)
    #: Queue delay: cycles from a request's arrival to the first
    #: command issued on its behalf (see Request.queue_delay).
    queue_delay_mean: float = 0.0
    queue_delay_p50: float = 0.0
    queue_delay_p99: float = 0.0
    queue_delay_max: int = 0

    def __post_init__(self) -> None:
        # Degradation record for the run (see repro.dram.resilience).
        # Deliberately a plain attribute, NOT a dataclass field: the
        # equivalence suites compare ``dataclasses.asdict(stats)``, and
        # a degraded-but-recovered parallel run must still compare
        # bit-identical to the serial run it reproduced.
        self.resilience = ResilienceReport()

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses + self.row_conflicts
        return self.row_hits / total if total else 0.0


@dataclass(frozen=True)
class RequestTimings:
    """Per-request scheduler outputs for one ``simulate_arrays`` run.

    Parallel to the input columns (input order): the cycle the first
    command issued on each request's behalf, the cycle its last data
    beat landed, its queue delay (first command minus arrival -- the
    per-request form of the aggregate ``queue_delay_*`` stats, and the
    signal the serving co-simulation feeds back into its cost model),
    and whether it was served as a row hit.
    """

    first_command_cycles: np.ndarray
    complete_cycles: np.ndarray
    queue_delays: np.ndarray
    row_hits: np.ndarray

    def __len__(self) -> int:
        return self.first_command_cycles.shape[0]


@dataclass(frozen=True)
class ControllerSpec:
    """Everything that shapes a controller's schedule: part of every
    memo key, so one memo can serve several devices or geometries."""

    config: DRAMConfig
    window: int = 64
    policy: SchedulerPolicy = SchedulerPolicy.FR_FCFS
    starvation_cap: int = 512

    def build(self) -> "MemoryController":
        """A cold, serial controller for this spec."""
        return MemoryController(
            self.config,
            policy=self.policy,
            window=self.window,
            starvation_cap=self.starvation_cap,
        )


# Candidate command codes used by the indexed scheduler.
_ACT, _PRE, _COL = 0, 1, 2


def _act_ready(t, lact: int, hist) -> int:
    """Earliest cycle a channel's tRRD and tFAW horizons allow an ACT,
    from its last ACT cycle and its tFAW history deque."""
    ready = lact + t.tRRD
    if len(hist) == hist.maxlen and hist[0] + t.tFAW > ready:
        ready = hist[0] + t.tFAW
    return ready


def _add_counts(stats: ControllerStats, pre, act, conf, miss, hit) -> None:
    """Flush a drain's local command and row-class counts into ``stats``."""
    stats.precharges += pre
    stats.activates += act
    stats.row_conflicts += conf
    stats.row_misses += miss
    stats.row_hits += hit


class MemoryController:
    """Schedules 64-byte requests over the channels of a DRAM config."""

    def __init__(
        self,
        config: DRAMConfig,
        scheme: MappingScheme = MappingScheme.RO_BA_BG_RA_CO_CH,
        policy: SchedulerPolicy = SchedulerPolicy.FR_FCFS,
        window: int = 64,
        starvation_cap: int = 512,
        workers: Optional[int] = None,
        executor: Optional["ParallelDrainExecutor"] = None,
    ) -> None:
        if window < 1:
            raise ValueError("scheduler window must be >= 1")
        org = config.organization
        if org.n_banks * org.n_rows * org.columns_per_row * 2 > _INT64_MAX + 1:
            # The busy-period memo packs (flat bank, row, column, write
            # bit) into one int64 per request.
            raise ValueError(
                "DRAM geometry too large: n_banks * n_rows * columns_per_row "
                "* 2 must fit in int64"
            )
        self.config = config
        self.mapper = AddressMapper(config.organization, scheme)
        self.policy = policy
        self.window = window
        self.starvation_cap = starvation_cap
        self.channels = [
            Channel(i, config) for i in range(config.organization.n_channels)
        ]
        # Parallel channel draining: channels are timing-independent,
        # so with workers >= 2 the per-channel drains fan out over a
        # persistent process pool (see repro.dram.parallel) and stats
        # merge deterministically -- bit-identical to the serial path.
        workers = 0 if workers is None else int(workers)
        if workers < 0:
            raise ValueError("workers must be non-negative")
        self.workers = workers
        self._executor = executor
        self._owns_executor = executor is None

    @property
    def spec(self) -> ControllerSpec:
        """The schedule-shaping parameters (memo key part)."""
        return ControllerSpec(
            self.config, self.window, self.policy, self.starvation_cap
        )

    # -- parallel-drain lifecycle ------------------------------------------

    @property
    def parallel_enabled(self) -> bool:
        """True when per-channel drains fan out over a worker pool."""
        return self._executor is not None or self.workers >= 2

    def _ensure_executor(self):
        if self._executor is None:
            from repro.dram.parallel import ParallelDrainExecutor

            self._executor = ParallelDrainExecutor(self.workers)
        return self._executor

    def close(self) -> None:
        """Shut down the controller-owned worker pool (no-op when the
        executor was injected or never created)."""
        if self._owns_executor and self._executor is not None:
            self._executor.close()
            self._executor = None

    def __enter__(self) -> "MemoryController":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- simulation --------------------------------------------------------

    def simulate(self, requests: list[Request]) -> ControllerStats:
        """Run all requests to completion; fills in per-request
        ``complete_cycle`` and returns aggregate stats.

        Thin adapter over the array-native core (see
        :meth:`simulate_arrays`): the request list is shredded into
        ``(addrs, arrive_cycles, flags)`` columns, the columns are
        simulated, and the per-request outputs are scattered back onto
        the objects.  Stats are bit-identical to the array path on the
        same columns.
        """
        stats = self._empty_stats()
        n = len(requests)
        stats.requests = n
        if n == 0:
            return stats
        for r in requests:
            r.reset_for_sim()
        addrs, arrive, flags = arrays_from_requests(requests)
        if arrive.min() < 0:
            raise ValueError("arrive_cycle must be non-negative")
        batch, first, complete, hit = self._simulate_columns(
            addrs, arrive, (flags & FLAG_WRITE).astype(bool), stats
        )
        # Scatter decoded coordinates and scheduler outputs back onto
        # the objects (API compatibility; the array path skips this).
        for req, ch, ra, bg, ba, ro, co, fc, cc, h in zip(
            requests,
            batch.channel.tolist(),
            batch.rank.tolist(),
            batch.bankgroup.tolist(),
            batch.bank.tolist(),
            batch.row.tolist(),
            batch.column.tolist(),
            first.tolist(),
            complete.tolist(),
            hit.tolist(),
        ):
            req.decoded = DecodedAddress(ch, ra, bg, ba, ro, co)
            req.first_command_cycle = fc
            req.complete_cycle = cc
            req.row_hit = h
        return stats

    def simulate_arrays(
        self,
        addrs,
        arrive_cycles=None,
        flags=None,
        detail: bool = False,
        memo=None,
    ) -> ControllerStats | tuple[ControllerStats, RequestTimings]:
        """Array-native :meth:`simulate`: drive the scheduler straight
        from trace columns, constructing no ``Request`` objects.

        ``addrs`` is any int64-compatible sequence of byte addresses
        (an ``np.memmap`` column view from
        :func:`repro.workloads.trace_io.load_trace` streams zero-copy);
        ``arrive_cycles`` defaults to the all-at-cycle-0 batch;
        ``flags`` uses the ``.dramtrace`` encoding (bit 0 = write,
        ``None`` = all reads; priority bits are accepted and ignored).
        Returns stats bit-identical to ``simulate`` on the equivalent
        Request list.

        With ``detail=True``, returns ``(stats, RequestTimings)``: the
        per-request first-command / completion / queue-delay / row-hit
        arrays in input order -- the per-request form of the aggregate
        queue-delay percentiles, needed by consumers (the serving
        co-simulation) that map DRAM queueing back onto the individual
        upstream requests that caused it.

        ``memo`` (a :class:`~repro.dram.busy_period.SegmentMemo`) lets
        serial channel drains skip busy periods already drained with
        the same spec, content and open rows (see the module
        docstring); results are identical with or without it.
        """
        stats = self._empty_stats()
        try:
            n = len(addrs)
        except TypeError:
            addrs = list(addrs)
            n = len(addrs)
        stats.requests = n
        if n == 0:
            if detail:
                empty = np.zeros(0, dtype=np.int64)
                return stats, RequestTimings(
                    empty, empty.copy(), empty.copy(), np.zeros(0, dtype=bool)
                )
            return stats
        if arrive_cycles is None:
            arrive = np.zeros(n, dtype=np.int64)
        else:
            arrive = np.asarray(arrive_cycles)
            if len(arrive) != n:
                raise ValueError(f"{len(arrive)} arrive_cycles for {n} addrs")
            if arrive.min() < 0:
                raise ValueError("arrive_cycle must be non-negative")
            arrive = arrive.astype(np.int64, copy=False)
        if flags is None:
            is_write = np.zeros(n, dtype=bool)
        else:
            if len(flags) != n:
                raise ValueError(f"{len(flags)} flags for {n} addrs")
            is_write = (np.asarray(flags) & FLAG_WRITE).astype(bool)
        if not isinstance(addrs, (list, np.ndarray)):
            addrs = np.asarray(addrs)
        _, first, complete, hit = self._simulate_columns(
            addrs, arrive, is_write, stats, memo
        )
        if detail:
            return stats, RequestTimings(
                first_command_cycles=first,
                complete_cycles=complete,
                queue_delays=first - arrive,
                row_hits=hit,
            )
        return stats

    def simulate_trace_streaming(
        self,
        path,
        window: int = 1_000_000,
        mmap: bool = True,
    ) -> ControllerStats:
        """Simulate an on-disk ``.dramtrace`` with bounded resident
        state: trace columns stream through
        :meth:`~repro.workloads.trace_io.MappedTrace.iter_chunks` in
        ``window``-request admission chunks, and each channel drains
        through a resumable :meth:`_drain_channel_gen` that compacts
        completed requests at every chunk boundary.

        Stats are bit-identical to ``simulate_arrays`` on the full
        columns (the equivalence is pinned in
        ``tests/dram/test_streaming.py``).  Resident state is one
        decoded chunk plus the scheduler window per channel plus one
        ``int64`` queue delay per request (the exact-percentile stats
        require every delay) -- independent of how much larger than
        RAM the mapped trace records are.

        Requires each channel's arrivals to be non-decreasing in file
        order (any globally time-sorted trace qualifies, including
        all-at-cycle-0 batches); raises ``ValueError`` otherwise, since
        chunked admission cannot re-sort what it has not yet seen.

        Corruption surfaces *structured*: a chunk whose records fail
        validation (an address beyond device capacity or negative --
        how a flipped high bit manifests -- or reserved flag bits set)
        raises :class:`~repro.workloads.trace_io.TraceCorruptionError`
        naming the offending byte offset and the count of records
        already streamed cleanly before the damage, as does a file
        truncated out from under the memmap mid-stream.
        """
        from repro.dram.request import FLAG_WRITE as _FLAG_WRITE
        from repro.workloads.trace_io import (
            HEADER_BYTES,
            RECORD_BYTES,
            TraceCorruptionError,
            _KNOWN_FLAGS,
            load_trace,
        )

        if window < 1:
            raise ValueError("streaming window must be >= 1")
        trace = load_trace(path, mmap=mmap)
        n = len(trace)
        stats = self._empty_stats()
        stats.requests = n
        if n == 0:
            return stats
        org = self.config.organization
        n_channels = org.n_channels
        delays = np.zeros(n, dtype=np.int64)
        gens = {}
        last_seen = [None] * n_channels  # per-channel arrival high-water
        writes = 0
        for base, (addrs, arrive, flags) in trace.iter_chunks(
            window, with_offsets=True
        ):
            if arrive.shape[0] and int(arrive.min()) < 0:
                raise ValueError("arrive_cycle must be non-negative")
            bad_flags = np.flatnonzero(flags & ~np.uint8(_KNOWN_FLAGS))
            if bad_flags.size:
                bad = base + int(bad_flags[0])
                raise TraceCorruptionError(
                    path,
                    f"{path}: record {bad} uses reserved flag bits "
                    f"(flags={int(flags[int(bad_flags[0])]):#04x}); "
                    f"{base} record(s) streamed cleanly before this chunk",
                    byte_offset=HEADER_BYTES + bad * RECORD_BYTES,
                    recoverable_records=base,
                )
            try:
                batch = self.mapper.decode_batch(addrs)
            except TraceCorruptionError:
                raise
            except ValueError as exc:
                raise TraceCorruptionError(
                    path,
                    f"{path}: undecodable record in chunk at record "
                    f"{base} ({exc}); {base} record(s) streamed cleanly "
                    "before this chunk",
                    byte_offset=HEADER_BYTES + base * RECORD_BYTES,
                    recoverable_records=base,
                ) from exc
            flat = batch.flat_bank_index(org.n_bankgroups, org.banks_per_group)
            is_write = (flags & _FLAG_WRITE).astype(bool)
            writes += int(np.count_nonzero(is_write))
            # Stable per-channel split in file order; with per-channel
            # monotone arrivals this reproduces the in-memory path's
            # lexsort((arrive, channel)) queues chunk by chunk.
            sel = np.argsort(batch.channel, kind="stable")
            counts = np.bincount(batch.channel, minlength=n_channels)
            bounds = np.concatenate(([0], np.cumsum(counts)))
            for ci in range(n_channels):
                lo, hi = int(bounds[ci]), int(bounds[ci + 1])
                if lo == hi:
                    continue
                idxs = sel[lo:hi]
                arr_c = arrive[idxs]
                if (arr_c.shape[0] > 1 and bool(np.any(np.diff(arr_c) < 0))) or (
                    last_seen[ci] is not None and int(arr_c[0]) < last_seen[ci]
                ):
                    raise ValueError(
                        f"{path}: channel {ci} arrivals are not non-decreasing "
                        "in file order; streaming simulation needs a "
                        "time-sorted trace (use simulate_arrays for "
                        "unsorted traces)"
                    )
                last_seen[ci] = int(arr_c[-1])
                gen = gens.get(ci)
                if gen is None:
                    gen = self._drain_channel_gen(
                        self.channels[ci], stats, delays_out=delays
                    )
                    next(gen)
                    gens[ci] = gen
                k = hi - lo
                gen.send(
                    (
                        flat[idxs].tolist(),
                        batch.row[idxs].tolist(),
                        batch.column[idxs].tolist(),
                        is_write[idxs].tolist(),
                        arr_c.tolist(),
                        [-1] * k,
                        [0] * k,
                        [-1] * k,
                        (base + idxs).tolist(),
                        False,
                    )
                )
        final_cycle = 0
        for ci, gen in gens.items():
            try:
                gen.send(None)
            except StopIteration as stop:
                last, idle = stop.value
            else:  # pragma: no cover - defensive
                raise AssertionError("channel drain did not complete on EOF")
            final_cycle = max(final_cycle, last)
            stats.busy_channel_cycles[ci] = last
            stats.idle_channel_cycles[ci] = idle
        stats.writes = writes
        stats.reads = n - writes
        overhead = self.config.timing.refresh_overhead
        if overhead > 0 and final_cycle > 0:
            stats.refresh_cycles = int(round(final_cycle * overhead / (1 - overhead)))
            final_cycle += stats.refresh_cycles
        stats.total_cycles = final_cycle
        self._fill_queue_stats(stats, delays)
        return stats

    def _empty_stats(self) -> ControllerStats:
        stats = ControllerStats()
        for channel in self.channels:
            stats.busy_channel_cycles[channel.index] = 0
            stats.idle_channel_cycles[channel.index] = 0
        return stats

    def _simulate_columns(
        self,
        addrs,
        arrive: np.ndarray,
        is_write: np.ndarray,
        stats: ControllerStats,
        memo=None,
    ) -> tuple:
        """Shared core: simulate decoded columns, fill ``stats``, and
        return ``(batch, first_command, complete, row_hit)`` arrays in
        input order.

        Channels are timing-independent, so each channel's queue is
        drained separately and stats are merged.  ``memo`` serves the
        serial drains (the parallel path bypasses it).
        """
        org = self.config.organization
        n = len(arrive)
        batch = self.mapper.decode_batch(addrs)
        flat = batch.flat_bank_index(org.n_bankgroups, org.banks_per_group)
        stats.writes = int(np.count_nonzero(is_write))
        stats.reads = n - stats.writes

        # Stable split into per-channel FIFO queues, ordered by
        # arrival within each channel (lexsort is stable, so equal
        # arrive_cycles keep input order -- the all-zero batch case
        # degenerates to the original input-order queues).
        order = np.lexsort((arrive, batch.channel))
        counts = np.bincount(batch.channel, minlength=org.n_channels)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        bf_sorted = flat[order]
        row_sorted = batch.row[order]
        col_sorted = batch.column[order]
        wr_sorted = np.asarray(is_write)[order]
        arr_sorted = np.asarray(arrive)[order]

        first = np.zeros(n, dtype=np.int64)
        complete = np.zeros(n, dtype=np.int64)
        hit = np.zeros(n, dtype=bool)

        def drain_serial() -> int:
            cycle = 0
            for channel in self.channels:
                lo, hi = int(bounds[channel.index]), int(bounds[channel.index + 1])
                if lo == hi:
                    continue
                last, idle, o_first, o_complete, o_hit = self._drain_channel(
                    channel,
                    bf_sorted[lo:hi],
                    row_sorted[lo:hi],
                    col_sorted[lo:hi],
                    wr_sorted[lo:hi],
                    arr_sorted[lo:hi],
                    stats,
                    memo,
                )
                idxs = order[lo:hi]
                first[idxs] = o_first
                complete[idxs] = o_complete
                hit[idxs] = o_hit
                cycle = max(cycle, last)
                stats.busy_channel_cycles[channel.index] = last
                stats.idle_channel_cycles[channel.index] = idle
            return cycle

        nonempty = int(np.count_nonzero(counts))
        if (
            self.parallel_enabled
            and nonempty >= 2
            and not any(ch.record_commands for ch in self.channels)
        ):
            from repro.util.pool import PoolError

            # Fan the independent per-channel drains out over the
            # worker pool; the executor writes the sorted-order
            # first/complete/hit slices into shared memory and hands
            # back each channel's post-drain state and stat deltas.
            try:
                final_cycle = self._ensure_executor().drain(
                    self, bf_sorted, row_sorted, col_sorted, wr_sorted,
                    arr_sorted, bounds, order, stats, first, complete, hit,
                )
            except PoolError as exc:
                # The executor's drain is transactional, so the
                # channels are untouched and the whole drain can rerun
                # serially -- slower, bit-identical, recorded.
                logger.warning(
                    "parallel drain unrecoverable (%s); falling back to "
                    "the serial path",
                    exc,
                )
                stats.resilience.record(
                    KIND_SERIAL_FALLBACK,
                    detail=f"parallel drain unrecoverable ({exc}); whole "
                    "drain rerun serially",
                )
                final_cycle = drain_serial()
        else:
            final_cycle = drain_serial()
        # Refresh duty-cycle derate: every tREFI window loses tRFC
        # cycles of availability (first-order streaming model).
        overhead = self.config.timing.refresh_overhead
        if overhead > 0 and final_cycle > 0:
            stats.refresh_cycles = int(round(final_cycle * overhead / (1 - overhead)))
            final_cycle += stats.refresh_cycles
        stats.total_cycles = final_cycle
        self._fill_queue_stats(stats, first - arrive)
        return batch, first, complete, hit

    @staticmethod
    def _fill_queue_stats(stats: ControllerStats, delays: np.ndarray) -> None:
        """Aggregate per-request queue delays (first-command cycle
        minus arrival cycle, input order) into the stats block.

        Empty delay arrays (a zero-request run) leave the queue stats
        at their zeroed defaults instead of tripping ``mean``/``max``
        on n=0."""
        if delays.shape[0] == 0:
            stats.queue_delay_mean = 0.0
            stats.queue_delay_p50 = 0.0
            stats.queue_delay_p99 = 0.0
            stats.queue_delay_max = 0
            return
        p50, p99 = np.percentile(delays, (50, 99)).tolist()
        stats.queue_delay_mean = float(delays.mean())
        stats.queue_delay_p50 = p50
        stats.queue_delay_p99 = p99
        stats.queue_delay_max = int(delays.max())

    def sustained_bandwidth(self, stats: ControllerStats) -> float:
        """Bytes/s implied by a run's request count and cycle span."""
        if stats.total_cycles == 0:
            return 0.0
        nbytes = stats.requests * self.config.organization.access_bytes
        return nbytes / self.config.timing.cycles_to_seconds(stats.total_cycles)

    # -- per-channel scheduling -------------------------------------------

    def _drain_channel(
        self,
        channel: Channel,
        bf: np.ndarray,
        row: np.ndarray,
        col: np.ndarray,
        iswr: np.ndarray,
        arr: np.ndarray,
        stats: ControllerStats,
        memo=None,
    ) -> tuple:
        """Drain one channel's FIFO queue: contiguous arrays of flat
        bank index / row / column / bool is-write / arrive-cycle,
        ordered by arrival (the channel's slice of the sorted columns;
        they are also the busy-period ``memo``'s key columns, see the
        module docstring).  The one drain body of the serial path, the
        pool workers and their in-parent fallback.

        Single-feed wrapper over :meth:`_drain_channel_gen`: the
        columns go in as one final chunk of lists, so the generator
        runs to completion without yielding for more input.  Outputs
        go to ``array('q')``, ``array('q')`` and ``array('b')`` buffers
        (a memo hit writes them as numpy slices).  Returns
        ``(last_complete_cycle, idle_cycles, first, complete, hit)``,
        the outputs as ``int64``/``int64``/``int8`` arrays over those
        buffers, in input order: first-command cycle, completion
        cycle, and row-hit class (1 hit / 0 miss-or-conflict).
        """
        k = arr.shape[0]
        o_first = array("q", [-1]) * k
        o_complete = array("q", bytes(8 * k))
        o_hit = array("b", [-1]) * k
        views = (
            np.frombuffer(o_first, dtype=np.int64),
            np.frombuffer(o_complete, dtype=np.int64),
            np.frombuffer(o_hit, dtype=np.int8),
        )
        content = None
        if memo is not None:
            # The memo's key column: (flat bank, row, column, write
            # bit) packed into one int64 per request, which the
            # construction-time geometry check keeps injective.
            org = self.config.organization
            packed = bf.astype(np.int64) * org.n_rows + row
            packed *= org.columns_per_row
            packed += col
            packed <<= 1
            packed |= iswr
            content = (packed, views)
        gen = self._drain_channel_gen(channel, stats, memo=memo, content=content)
        next(gen)
        columns = (bf.tolist(), row.tolist(), col.tolist(), iswr.tolist(), arr.tolist())
        try:
            gen.send((*columns, o_first, o_complete, o_hit, None, True))
        except StopIteration as stop:
            last, idle = stop.value
        else:  # pragma: no cover - defensive
            raise AssertionError("channel drain did not complete on a final feed")
        return (last, idle, *views)

    def _drain_channel_gen(
        self,
        channel: Channel,
        stats: ControllerStats,
        delays_out: Optional[np.ndarray] = None,
        memo=None,
        content: Optional[tuple] = None,
    ):
        """Resumable form of the per-channel drain loop.

        A generator that is fed the channel's requests in one or more
        arrival-ordered chunks and schedules exactly as if it had seen
        the whole queue up front.  Protocol::

            gen = controller._drain_channel_gen(channel, stats, delays)
            next(gen)                      # prime to the first request
            gen.send((bf, row, col, iswr, arr,
                      o_first, o_complete, o_hit, gidx, eof))  # repeat
            gen.send(None)                 # end of input (or eof=True)
            # -> StopIteration.value == (last_complete_cycle, idle)

        Each feed appends parallel column lists (flat bank index, row,
        column, is-write, arrive-cycle), matching output slots, and
        optionally ``gidx`` -- each request's global input-order index.
        The generator yields (requesting more input) exactly when every
        fed request has been admitted and the scheduling window has
        room: any later decision could be preempted by an arrival it
        has not seen yet, so it refuses to guess.  Feeding ``eof``
        (or ``None``) instead lets it run to completion.

        One command issues per loop iteration; a request leaves the
        queue when its column command issues.  The candidate scan runs
        over per-bank cached (command, representative, bank-ready)
        triples; global channel constraints (command bus, tCCD, data
        bus, tRRD/tFAW, tWTR) are folded in as per-class floors
        computed once per iteration.

        A bank's cached candidate is refreshed only when its command
        or representative can change; three rules skip the rest, each
        exact:

        - *Admission* updates the bank's indexes and marks the bank
          dirty only if it had no candidate, or if its candidate is a
          PRE and the newcomer hits the open row.  The newcomer is the
          youngest request, so it cannot displace an ACT
          representative (the oldest request) or a COL one (the
          oldest hit).
        - *Column retirement* with hits still queued for the row sets
          the candidate's request to the row's next hit, with no
          refresh and no version bump: the command stays COL, the
          bank-ready cycle (``b_ecol``) is unchanged by a column
          command, and no heap entry carries the bank's current
          version.
        - *Per-class heaps*: with no entry in ``act_L`` or ``act_H``
          there is no ACT candidate, so the ACT floor, migration and
          heap-top selection are skipped; likewise the PRE migration
          and selection with ``pre_L`` and ``pre_H`` empty.  Column
          candidates are scanned first, and a class is skipped too
          when its below-floor heap is empty and its above-floor top
          is later than their winner: no entry is ready before its
          filed cycle, and an ACT or PRE beats a column command only
          when ready at or before it.  ``g_act_est`` then lags the
          floor but stays a lower bound of it (the floor is
          monotone), so entries filed high against it migrate before
          the next selection.  Heaps grow only in the candidate
          refresh, so they are compacted only there.

        Per-command bookkeeping stays in locals: the precharge,
        activate and row-class counters are flushed into ``stats``
        only before the memo reads or adds to them and at exit, and
        ``act_ready`` (the tRRD/tFAW part of the ACT floor) is
        recomputed only after an ACT issues or a memo hit applies, the
        only writes to the last-ACT cycle and the tFAW history.

        Broken bookkeeping raises instead of spinning: the FR-FCFS
        arbitration raises when it finds no candidate with requests in
        the window, and a column command for a request that already
        retired (a stale candidate) raises at retirement.

        Open-loop arrivals: a request enters the scheduling window
        only once channel time (the command-bus cycle ``cb``) has
        reached its ``arrive_cycle``.  When the window empties with
        arrivals still outstanding, channel time jumps to the next
        arrival (the gap is accounted as idle); when an arrival lands
        before the chosen command would issue (and the window has
        room), channel time advances to that arrival and the decision
        is re-derived so the newcomer competes.

        Bounded-memory streaming: at every yield point the generator
        *compacts* -- completed requests are dropped from the buffers
        (their queue delays scattered to ``delays_out`` at ``gidx``)
        and the <= ``window`` live requests are renumbered, so resident
        state is one fed chunk plus the scheduler window regardless of
        trace length.  Renumbering preserves relative request order
        (the only thing arbitration ties break on), and the window
        indexes and candidate caches are rebuilt by re-admitting the
        live requests through the ordinary admission path, so the
        command stream is bit-identical to the single-feed run.
        ``delays_out``/``gidx`` may be omitted only for single-feed
        (eof) use, where outputs stay in the caller's ``o_*`` buffers.
        Streaming feeds pass lists, which compaction rebuilds.

        ``memo``/``content`` (see :meth:`_drain_channel`) are for
        single-feed use only: ``content`` is the memo's packed int64
        key column and the int64/int64/int8 numpy views of the fed
        ``o_*`` buffers, both indexed by request position, which
        compaction would renumber.  Ignored while the channel records
        commands.
        """
        t = channel.timing
        org = self.config.organization
        n_banks = len(channel.banks)
        # FCFS takes the head path at every decision.
        cap = 0 if self.policy is SchedulerPolicy.FCFS else self.starvation_cap

        # Request buffers -- adopted from the first feed (so the
        # single-feed wrapper mutates its caller's lists in place),
        # extended by later feeds, compacted at yield points.
        bf: list[int] = []
        row: list[int] = []
        col: list[int] = []
        iswr: list[bool] = []
        arr: list[int] = []
        o_first: list[int] = []
        o_complete: list[int] = []
        o_hit: list[int] = []
        gidx: Optional[list[int]] = None
        n = 0
        eof = False

        # Timing locals.
        tRCD, tRP, tRAS, tRC = t.tRCD, t.tRP, t.tRAS, t.tRC
        tCL, tCWL, tWR, tWTR = t.tCL, t.tCWL, t.tWR, t.tWTR
        tCCD_S, tCCD_L = t.tCCD_S, t.tCCD_L
        burst = t.burst_cycles

        # Mirror channel state into locals (written back on exit).
        cb = channel._cmd_bus_next
        dnext = channel._data_bus_next
        lcc = channel._last_col_cycle
        lbg = channel._last_col_bankgroup
        law = channel._last_was_write
        raw = channel._read_after_write_ok
        lact = channel._last_act_cycle
        hist = channel._act_history  # shared deque, mutated in place
        # The tRRD/tFAW part of the ACT floor moves only when an ACT
        # issues or a memo hit applies one (see the docstring).
        act_ready = _act_ready(t, lact, hist)
        recording = channel.record_commands
        commands = channel.commands

        # Mirror per-bank state into parallel lists.
        banks = channel.banks
        b_open = [b.open_row for b in banks]
        b_eact = [b.earliest_act for b in banks]
        b_epre = [b.earliest_pre for b in banks]
        b_ecol = [b.earliest_col for b in banks]
        b_hits = [0] * n_banks
        bpg = org.banks_per_group
        nbg = org.n_bankgroups
        bg_of = [(b // bpg) % nbg for b in range(n_banks)]

        # Busy-period memo (module docstring).
        if recording:
            memo = None
        if memo is not None:
            # Imported here: drains without a memo never load it (or
            # the hashlib it needs).
            from repro.dram import busy_period as busy

            if not busy.usable(t):
                memo = None
            key_prefix = busy.key_prefix(self.spec)
            key_column, out_views = content
        rec_left = 0  # requests of the segment being recorded still queued

        # Command and row-class counts since the last flush into
        # ``stats`` (see the docstring's counter rule).
        n_pre = n_act = n_conf = n_miss = n_hit = 0

        # Window bookkeeping: per-bank FIFO of in-window request seqs,
        # per-(bank, row) FIFO for row-hit heads, cached candidates.
        alive: list[bool] = []
        bank_q: list[deque | None] = [None] * n_banks
        bank_rows: list[dict | None] = [None] * n_banks
        active: set[int] = set()
        cand_cmd = [0] * n_banks
        cand_seq = [0] * n_banks
        cand_part = [0] * n_banks

        # Arbitration structures.  Row-hit (column) candidates are
        # scanned directly -- there are rarely more than a handful.
        # ACT and PRE candidates live in per-class min-heaps split at
        # the class's global ready floor, which is monotone
        # non-decreasing (command bus, tRRD and tFAW horizons only
        # move forward), so entries migrate one way from the
        # above-floor heap (ordered by bank-ready cycle) to the
        # below-floor heap (ordered by age, since every entry at or
        # below the floor becomes ready at exactly the floor).  Banks
        # are versioned for lazy invalidation: a heap entry is live
        # iff it carries the bank's current version.
        heappush, heappop, heapify_ = heapq.heappush, heapq.heappop, heapq.heapify
        col_set: set[int] = set()
        act_L: list = []  # (seq, bank, ver): ready == class floor
        act_H: list = []  # (part, seq, bank, ver): ready == part
        pre_L: list = []
        pre_H: list = []
        bank_ver = [0] * n_banks
        g_act_est = -(10**9)  # lower bound of the ACT floor (monotone)
        heap_cap = 128 + 4 * n_banks

        window_cap = self.window
        dirty: list[int] = []

        pos = 0  # next not-yet-admitted request (arrival order)
        in_window = 0
        idle = 0
        remaining = 0
        head = 0
        head_skips = 0
        last_complete = 0

        while True:
            # Admit arrived requests into the scheduling window (the
            # queue order is arrival order, so admission is a cursor).
            # The newcomer is the youngest request, so it can only
            # change its bank's candidate if the bank had none or if
            # it hits the open row of a bank waiting to precharge.
            while in_window < window_cap and pos < n and arr[pos] <= cb:
                b = bf[pos]
                r = row[pos]
                q = bank_q[b]
                if q is None:
                    bank_q[b] = deque((pos,))
                    bank_rows[b] = {r: deque((pos,))}
                    active.add(b)
                    dirty.append(b)
                else:
                    q.append(pos)
                    rows = bank_rows[b]
                    rd = rows.get(r)
                    if rd is None:
                        rows[r] = deque((pos,))
                    else:
                        rd.append(pos)
                    if b not in active:
                        active.add(b)
                        dirty.append(b)
                    elif cand_cmd[b] == _PRE and b_open[b] == r:
                        dirty.append(b)
                pos += 1
                in_window += 1
            if not eof and pos == n and in_window < window_cap:
                # Every fed request is admitted and the window has
                # room: the next decision could be preempted by an
                # arrival this generator has not seen, so compact the
                # buffers and ask the caller for more input.
                if n:
                    if delays_out is not None:
                        for s in range(n):
                            if not alive[s]:
                                delays_out[gidx[s]] = o_first[s] - arr[s]
                    live = [s for s in range(n) if alive[s]]
                    bf = [bf[s] for s in live]
                    row = [row[s] for s in live]
                    col = [col[s] for s in live]
                    iswr = [iswr[s] for s in live]
                    arr = [arr[s] for s in live]
                    o_first = [o_first[s] for s in live]
                    o_complete = [o_complete[s] for s in live]
                    o_hit = [o_hit[s] for s in live]
                    if gidx is not None:
                        gidx = [gidx[s] for s in live]
                    n = remaining = len(live)
                    head = 0
                    alive = [True] * n
                    # Empty the window and rewind the admission cursor:
                    # the live requests all arrived by ``cb`` and fit
                    # the window, so the next admission pass re-admits
                    # them in ascending renumbered order (relative
                    # order -- the only arbitration tie-breaker -- is
                    # preserved), before any newly fed request, and
                    # marks their banks dirty for the candidate refresh.
                    pos = in_window = 0
                    bank_q = [None] * n_banks
                    bank_rows = [None] * n_banks
                    active = set()
                    act_L = []
                    act_H = []
                    pre_L = []
                    pre_H = []
                    col_set.clear()
                    del dirty[:]
                fed = yield True
                if fed is None:
                    eof = True
                else:
                    fbf, frow, fcol, fwr, farr, ff, fc, fh, fg, feof = fed
                    if bf:
                        bf.extend(fbf)
                        row.extend(frow)
                        col.extend(fcol)
                        iswr.extend(fwr)
                        arr.extend(farr)
                        o_first.extend(ff)
                        o_complete.extend(fc)
                        o_hit.extend(fh)
                        if gidx is not None and fg is not None:
                            gidx.extend(fg)
                    else:
                        bf, row, col, iswr, arr = fbf, frow, fcol, fwr, farr
                        o_first, o_complete, o_hit, gidx = ff, fc, fh, fg
                    alive.extend([True] * len(fbf))
                    remaining += len(fbf)
                    n = len(bf)
                    eof = bool(feof)
                continue
            if in_window == 0:
                if pos == n:
                    # End of input with everything completed.
                    break
                # Queue empty with arrivals outstanding: jump channel
                # time to the next arrival.
                nxt = arr[pos]
                idle += nxt - cb
                cb = nxt
                if memo is not None and busy.horizons_expired(
                    t, nxt, cb, dnext, lcc, raw, lact, hist, b_eact, b_epre, b_ecol
                ):
                    # ``apply`` adds to the counters and the recording
                    # below snapshots them.
                    _add_counts(stats, n_pre, n_act, n_conf, n_miss, n_hit)
                    n_pre = n_act = n_conf = n_miss = n_hit = 0
                    end = bisect.bisect_right(arr, nxt, pos)
                    key = busy.segment_key(key_prefix, key_column, pos, end, b_open)
                    entry = busy.lookup(memo, key, nxt, arr[end] if end < n else None)
                    if entry is not None:
                        # No later arrival can compete with the segment:
                        # apply its stored outcome instead of draining it.
                        regs, done = busy.apply(
                            entry, nxt, pos, end,
                            (cb, dnext, lcc, lbg, law, raw, lact), hist,
                            (b_open, b_eact, b_epre, b_ecol, b_hits),
                            out_views, stats,
                        )
                        cb, dnext, lcc, lbg, law, raw, lact = regs
                        act_ready = _act_ready(t, lact, hist)
                        if done > last_complete:
                            last_complete = done
                        alive[pos:end] = [False] * (end - pos)
                        remaining -= end - pos
                        pos = end
                        continue
                    # Drain it; store the outcome at its last retirement
                    # if no later arrival has been admitted by then.
                    rec_key, rec_a0, rec_lo, rec_end = key, nxt, pos, end
                    rec_left = end - pos
                    rec_hits = b_hits[:]
                    rec_stats = (
                        stats.precharges,
                        stats.activates,
                        stats.row_conflicts,
                        stats.row_misses,
                        stats.row_hits,
                    )
                continue

            # Refresh cached candidates for banks whose queues or row
            # state changed since the last issue.
            if dirty:
                for b in dirty:
                    if b not in active:
                        continue
                    q = bank_q[b]
                    while q and not alive[q[0]]:
                        q.popleft()
                    bank_ver[b] += 1
                    if not q:
                        active.discard(b)
                        col_set.discard(b)
                        continue
                    orow = b_open[b]
                    if orow is None:
                        cand_cmd[b] = _ACT
                        s = cand_seq[b] = q[0]
                        p = cand_part[b] = b_eact[b]
                        col_set.discard(b)
                        if p <= g_act_est:
                            heappush(act_L, (s, b, bank_ver[b]))
                        else:
                            heappush(act_H, (p, s, b, bank_ver[b]))
                    else:
                        rd = bank_rows[b].get(orow)
                        if rd:
                            cand_cmd[b] = _COL
                            cand_seq[b] = rd[0]
                            cand_part[b] = b_ecol[b]
                            col_set.add(b)
                        else:
                            cand_cmd[b] = _PRE
                            s = cand_seq[b] = q[0]
                            p = cand_part[b] = b_epre[b]
                            col_set.discard(b)
                            if p <= cb:
                                heappush(pre_L, (s, b, bank_ver[b]))
                            else:
                                heappush(pre_H, (p, s, b, bank_ver[b]))
                del dirty[:]
                # Heaps grow only here: compact lazily-invalidated ones
                # before they bloat.
                if len(act_L) + len(act_H) > heap_cap:
                    act_L = [
                        (cand_seq[b2], b2, bank_ver[b2])
                        for b2 in active
                        if cand_cmd[b2] == _ACT and cand_part[b2] <= g_act_est
                    ]
                    act_H = [
                        (cand_part[b2], cand_seq[b2], b2, bank_ver[b2])
                        for b2 in active
                        if cand_cmd[b2] == _ACT and cand_part[b2] > g_act_est
                    ]
                    heapify_(act_L)
                    heapify_(act_H)
                if len(pre_L) + len(pre_H) > heap_cap:
                    pre_L = [
                        (cand_seq[b2], b2, bank_ver[b2])
                        for b2 in active
                        if cand_cmd[b2] == _PRE and cand_part[b2] <= cb
                    ]
                    pre_H = [
                        (cand_part[b2], cand_seq[b2], b2, bank_ver[b2])
                        for b2 in active
                        if cand_cmd[b2] == _PRE and cand_part[b2] > cb
                    ]
                    heapify_(pre_L)
                    heapify_(pre_H)

            if head_skips >= cap:
                # Narrowed window: schedule the head request alone.
                while not alive[head]:
                    head += 1
                s = head
                b = bf[s]
                orow = b_open[b]
                if orow == row[s]:
                    cmd = _COL
                    g = (dnext - tCWL) if iswr[s] else (dnext - tCL)
                    if law and not iswr[s]:
                        g2 = raw - tCL
                        if g2 > g:
                            g = g2
                    x = lcc + (tCCD_L if bg_of[b] == lbg else tCCD_S)
                    if x > g:
                        g = x
                    cycle = max(b_ecol[b], cb, g)
                elif orow is None:
                    cmd = _ACT
                    cycle = max(b_eact[b], cb, act_ready)
                else:
                    cmd = _PRE
                    cycle = max(b_epre[b], cb)
            else:
                # The winner has the smallest ready cycle; ties go to
                # ACT/PRE over column commands, then to the oldest
                # request.  Column candidates are scanned first (usually
                # few): a class with no entry at or below its floor and
                # its above-floor top later than their winner cannot win.
                best_ready = -1
                best_seq = 0
                b = -1
                cmd = _COL
                if col_set:
                    g_col_r = dnext - tCL
                    if law:
                        x = raw - tCL
                        if x > g_col_r:
                            g_col_r = x
                    if cb > g_col_r:
                        g_col_r = cb
                    g_col_w = dnext - tCWL
                    if cb > g_col_w:
                        g_col_w = cb
                    ccd_same = lcc + tCCD_L
                    ccd_diff = lcc + tCCD_S
                    for b2 in col_set:
                        p = cand_part[b2]
                        s = cand_seq[b2]
                        g = g_col_w if iswr[s] else g_col_r
                        if g > p:
                            p = g
                        x = ccd_same if bg_of[b2] == lbg else ccd_diff
                        if x > p:
                            p = x
                        if (
                            best_ready < 0
                            or p < best_ready
                            or (p == best_ready and s < best_seq)
                        ):
                            best_ready = p
                            best_seq = s
                            b = b2

                if act_L or (act_H and (best_ready < 0 or act_H[0][0] <= best_ready)):
                    # ACT-class ready floor (monotone; see structures above).
                    g_act = act_ready if act_ready > cb else cb
                    g_act_est = g_act

                    # Migrate entries that dropped to/below their floor.
                    while act_H and act_H[0][0] <= g_act:
                        _, s, b2, v = heappop(act_H)
                        if bank_ver[b2] == v:
                            heappush(act_L, (s, b2, v))

                    # ACT winner: everything in L is ready at the floor, so
                    # the oldest wins; otherwise the smallest bank-ready.
                    while act_L and bank_ver[act_L[0][1]] != act_L[0][2]:
                        heappop(act_L)
                    if act_L:
                        top = act_L[0]
                        p = g_act
                        s = top[0]
                        b2 = top[1]
                    else:
                        while act_H and bank_ver[act_H[0][2]] != act_H[0][3]:
                            heappop(act_H)
                        if act_H:
                            top = act_H[0]
                            p = top[0]
                            s = top[1]
                            b2 = top[2]
                        else:
                            p = -1
                    if p >= 0 and (best_ready < 0 or p <= best_ready):
                        best_ready = p
                        best_seq = s
                        b = b2
                        cmd = _ACT

                if pre_L or (pre_H and (best_ready < 0 or pre_H[0][0] <= best_ready)):
                    # PRE class: same shape, the floor is the command bus.
                    while pre_H and pre_H[0][0] <= cb:
                        _, s, b2, v = heappop(pre_H)
                        if bank_ver[b2] == v:
                            heappush(pre_L, (s, b2, v))
                    while pre_L and bank_ver[pre_L[0][1]] != pre_L[0][2]:
                        heappop(pre_L)
                    if pre_L:
                        top = pre_L[0]
                        p = cb
                        s = top[0]
                        b2 = top[1]
                    else:
                        while pre_H and bank_ver[pre_H[0][2]] != pre_H[0][3]:
                            heappop(pre_H)
                        if pre_H:
                            top = pre_H[0]
                            p = top[0]
                            s = top[1]
                            b2 = top[2]
                        else:
                            p = -1
                    if p >= 0 and (
                        best_ready < 0
                        or p < best_ready
                        or (p == best_ready and (cmd == _COL or s < best_seq))
                    ):
                        best_ready = p
                        best_seq = s
                        b = b2
                        cmd = _PRE
                if b < 0:
                    # Every bank in the window has a candidate filed in
                    # a heap or the column set; none means the
                    # bookkeeping broke, and looping on would spin.
                    raise RuntimeError(
                        f"channel {channel.index}: no command candidate at "
                        f"cycle {cb} with {in_window} request(s) in the window"
                    )
                s = best_seq
                cycle = best_ready

            # Open-loop arrivals: if a request lands before the chosen
            # command would issue and the window has room, advance
            # channel time to the arrival and re-derive the decision so
            # the newcomer competes for the slot.
            if in_window < window_cap and pos < n and arr[pos] <= cycle:
                cb = arr[pos]
                continue

            # -- issue the chosen command (mirrors Channel.issue_*) ----
            # ``o_first`` and ``o_hit`` are set together on a request's
            # first command; the int8 buffer is the cheaper one to test.
            if cmd == _PRE:
                b_open[b] = None
                x = cycle + tRP
                if x > b_eact[b]:
                    b_eact[b] = x
                cb = cycle + 1
                n_pre += 1
                if o_hit[s] < 0:
                    o_first[s] = cycle
                    o_hit[s] = 0
                    n_conf += 1
                if recording:
                    commands.append(
                        Command(cycle, CommandKind.PRECHARGE, channel.index, b)
                    )
                dirty.append(b)
            elif cmd == _ACT:
                r = row[s]
                b_open[b] = r
                b_ecol[b] = cycle + tRCD
                b_epre[b] = cycle + tRAS
                b_eact[b] = cycle + tRC
                cb = cycle + 1
                hist.append(cycle)
                lact = cycle
                act_ready = _act_ready(t, lact, hist)
                n_act += 1
                if o_hit[s] < 0:
                    o_first[s] = cycle
                    o_hit[s] = 0
                    n_miss += 1
                if recording:
                    commands.append(
                        Command(cycle, CommandKind.ACTIVATE, channel.index, b, row=r)
                    )
                dirty.append(b)
            else:
                w = iswr[s]
                if w:
                    done = cycle + tCWL + burst
                    x = done + tWR
                    if x > b_epre[b]:
                        b_epre[b] = x
                    dnext = done
                    raw = done + tWTR
                    law = True
                else:
                    x = cycle + burst
                    if x > b_epre[b]:
                        b_epre[b] = x
                    done = cycle + tCL + burst
                    dnext = done
                    law = False
                b_hits[b] += 1
                cb = cycle + 1
                lcc = cycle
                lbg = bg_of[b]
                if o_hit[s] < 0:
                    o_first[s] = cycle
                    o_hit[s] = 1
                    n_hit += 1
                o_complete[s] = done
                if done > last_complete:
                    last_complete = done
                if recording:
                    commands.append(
                        Command(
                            cycle,
                            CommandKind.WRITE if w else CommandKind.READ,
                            channel.index,
                            b,
                            column=col[s],
                        )
                    )
                # Retire the request and slide the window forward.  A
                # stale candidate would re-issue a retired request and
                # keep the drain busy forever; fail instead.
                if not alive[s]:
                    raise RuntimeError(
                        f"channel {channel.index}: column command at cycle "
                        f"{cycle} for request {s}, which already retired"
                    )
                while not alive[head]:
                    head += 1
                was_head = s == head
                alive[s] = False
                remaining -= 1
                rows = bank_rows[b]
                rd = rows[row[s]]
                rd.popleft()
                if rd:
                    # Same open row, next-oldest hit: still a column
                    # candidate with the same bank-ready cycle.
                    cand_seq[b] = rd[0]
                else:
                    del rows[row[s]]
                    dirty.append(b)
                in_window -= 1
                if remaining and not was_head:
                    head_skips += 1
                else:
                    head_skips = 0
                if rec_left and s < rec_end:
                    rec_left -= 1
                    if not rec_left and pos == rec_end:
                        _add_counts(stats, n_pre, n_act, n_conf, n_miss, n_hit)
                        n_pre = n_act = n_conf = n_miss = n_hit = 0
                        busy.store(
                            memo, rec_key, rec_a0, rec_lo, rec_end,
                            (cb, dnext, lcc, lbg, law, raw, lact), hist,
                            (b_open, b_eact, b_epre, b_ecol, b_hits, rec_hits),
                            (bf, iswr, *out_views),
                            stats, rec_stats,
                        )

        _add_counts(stats, n_pre, n_act, n_conf, n_miss, n_hit)

        # Scatter queue delays for requests retired since the last
        # compaction (streaming mode; earlier chunks were emitted at
        # their compaction points).
        if delays_out is not None:
            for s in range(n):
                delays_out[gidx[s]] = o_first[s] - arr[s]

        # Write mirrored state back to the channel/bank objects.
        channel._cmd_bus_next = cb
        channel._data_bus_next = dnext
        channel._last_col_cycle = lcc
        channel._last_col_bankgroup = lbg
        channel._last_was_write = law
        channel._read_after_write_ok = raw
        channel._last_act_cycle = lact
        for i, bank in enumerate(banks):
            bank.open_row = b_open[i]
            bank.earliest_act = b_eact[i]
            bank.earliest_pre = b_epre[i]
            bank.earliest_col = b_ecol[i]
            bank.row_hits += b_hits[i]
        return last_complete, idle
