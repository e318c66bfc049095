"""The DRAM backend of the co-simulation loop.

:class:`ShardedDramBackend` is the one backend
:class:`~repro.cosim.driver.CosimDriver` drains through.  It models one
replica whose experts are spread across N NDP devices by a
:class:`~repro.cluster.sharding.ShardingPolicy`:

- each device is its own :class:`~repro.dram.controller.MemoryController`
  (own channels, own FR-FCFS scheduler, own refresh derate), built
  fresh per measurement and drained one device at a time through the
  caller's optional :class:`~repro.dram.parallel.ParallelDrainExecutor`;
- a measurement routes every trace element to the device holding its
  expert region, simulates the devices independently (device DRAMs
  share no timing state -- the same independence the per-channel
  parallel drain exploits one level down), and merges per-element
  timings back into input order;
- drains take the driver's busy-period memo, so each device's
  controller skips busy periods it has already drained (serial drains
  only: the drain pool bypasses it);
- accesses landing off a request's home device additionally pay an
  activation round trip on the PCIe link, surfaced through
  ``transfer_seconds`` and folded into contention by the driver.

With one device (the driver's default, and the single-device sweep's
backend) every call is a pass-through to one cold controller: its
stats are returned verbatim and nothing crosses a device boundary.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cluster.sharding import ShardingPolicy, make_sharding_policy
from repro.dram.controller import ControllerStats, MemoryController, RequestTimings
from repro.hw.pcie import PCIeLink
from repro.hw.specs import PCIE_GEN4_X16


#: ControllerStats counters that sum across devices.
_SUM_FIELDS = (
    "requests",
    "reads",
    "writes",
    "row_hits",
    "row_misses",
    "row_conflicts",
    "activates",
    "precharges",
    "refresh_cycles",
)


class ShardedDramBackend:
    """One replica's memory system: N NDP devices plus the link.

    The backend protocol the driver calls:

    - ``simulate(addrs, arrive_cycles, flags, request_ids=None,
      memo=None)`` -> ``(ControllerStats, RequestTimings)`` with
      per-element timings in input order, every device's controller
      built cold (controllers carry channel state across ``simulate``
      calls, and each measurement must start cold); ``memo`` is the
      optional exact busy-period memo every device's drain shares
      (main replays and isolation baselines alike);
    - ``transfer_seconds(trace)`` -> per-request inter-device transfer
      seconds (``{}`` when nothing crosses a device boundary -- one
      device by construction).

    ``executor`` is the caller-owned drain pool (``None``: serial
    drains).
    """

    def __init__(
        self,
        dram_config,
        n_devices: int = 1,
        policy: ShardingPolicy | str = "replicated",
        planner=None,
        window: int = 64,
        link: Optional[PCIeLink] = None,
        activation_bytes_per_token: int = 0,
        hot_fraction: float = 0.125,
        executor=None,
    ) -> None:
        if n_devices < 1:
            raise ValueError("n_devices must be >= 1")
        if activation_bytes_per_token < 0:
            raise ValueError("activation_bytes_per_token must be non-negative")
        if isinstance(policy, str):
            policy = make_sharding_policy(policy, hot_fraction)
        if n_devices > 1 and planner is None:
            raise ValueError(
                "sharding across multiple devices needs a replay planner "
                "(its region geometry is the placement unit)"
            )
        self.config = dram_config
        self.n_devices = n_devices
        self.policy = policy
        self.planner = planner
        self.window = window
        self.link = link or PCIeLink(PCIE_GEN4_X16)
        self.activation_bytes_per_token = int(activation_bytes_per_token)
        self.executor = executor

    # -- placement ---------------------------------------------------------

    def _home_devices(self, request_ids: np.ndarray) -> np.ndarray:
        """Home device per element: where the request's activations
        live (round-robin by request id, so one replica's devices see
        even request pressure under replicated sharding)."""
        return request_ids % self.n_devices

    def device_map(
        self, addrs: np.ndarray, request_ids: np.ndarray
    ) -> np.ndarray:
        """Serving device per trace element under the active policy."""
        home = self._home_devices(request_ids)
        return self.policy.device_map(addrs, home, self.n_devices, self.planner)

    # -- backend protocol --------------------------------------------------

    def simulate(self, addrs, arrive_cycles, flags, request_ids=None, memo=None):
        """Route the trace across devices, simulate each device's
        controller cold, and merge timings back into input order.
        Devices share ``memo``; its keys carry the controller spec."""
        if self.n_devices == 1 or len(addrs) == 0:
            controller = MemoryController(
                self.config, window=self.window, executor=self.executor
            )
            return controller.simulate_arrays(
                addrs, arrive_cycles, flags, detail=True, memo=memo
            )
        if request_ids is None:
            raise ValueError(
                "multi-device simulation needs request_ids to place elements"
            )
        device = self.device_map(addrs, request_ids)
        n = len(addrs)
        first = np.zeros(n, dtype=np.int64)
        complete = np.zeros(n, dtype=np.int64)
        delays = np.zeros(n, dtype=np.int64)
        hits = np.zeros(n, dtype=bool)
        per_device: list[ControllerStats] = []
        n_channels = self.config.organization.n_channels
        merged = ControllerStats()
        for dev in range(self.n_devices):
            mask = device == dev
            if not mask.any():
                # An unused device still exists (idle channels report 0).
                for ch in range(n_channels):
                    merged.busy_channel_cycles[dev * n_channels + ch] = 0
                    merged.idle_channel_cycles[dev * n_channels + ch] = 0
                continue
            controller = MemoryController(
                self.config, window=self.window, executor=self.executor
            )
            stats, timings = controller.simulate_arrays(
                addrs[mask], arrive_cycles[mask], flags[mask], detail=True, memo=memo
            )
            per_device.append(stats)
            first[mask] = timings.first_command_cycles
            complete[mask] = timings.complete_cycles
            delays[mask] = timings.queue_delays
            hits[mask] = timings.row_hits
            for ch, busy in stats.busy_channel_cycles.items():
                merged.busy_channel_cycles[dev * n_channels + ch] = busy
            for ch, idle in stats.idle_channel_cycles.items():
                merged.idle_channel_cycles[dev * n_channels + ch] = idle
        for stats in per_device:
            for name in _SUM_FIELDS:
                setattr(merged, name, getattr(merged, name) + getattr(stats, name))
        # Devices run concurrently: the replica's span is the slowest
        # device's (each device's total already carries its own
        # refresh derate -- do not re-apply it here).
        merged.total_cycles = max(s.total_cycles for s in per_device)
        MemoryController._fill_queue_stats(merged, delays)
        timings = RequestTimings(
            first_command_cycles=first,
            complete_cycles=complete,
            queue_delays=delays,
            row_hits=hits,
        )
        return merged, timings

    def transfer_seconds(self, trace) -> dict[int, float]:
        """Per-request activation round-trip seconds across the link.

        A request ships ``tokens * activation_bytes_per_token`` bytes
        to each remote device its experts live on, weighted by that
        device's share of the request's expert traffic, and pays the
        result back.  Empty whenever nothing can cross a boundary:
        one device, replicated sharding (home placement by
        construction), or a zero activation size.
        """
        if (
            self.n_devices == 1
            or self.activation_bytes_per_token == 0
            or len(trace) == 0
        ):
            return {}
        device = self.device_map(trace.addrs, trace.request_ids)
        home = self._home_devices(trace.request_ids)
        remote = device != home
        if not remote.any():
            return {}
        out: dict[int, float] = {}
        uniq, inverse = np.unique(trace.request_ids, return_inverse=True)
        totals = np.bincount(inverse, minlength=len(uniq)).astype(np.float64)
        # Per (request, device) remote element counts -> traffic shares.
        pair = inverse * self.n_devices + device
        pair_counts = np.bincount(
            pair[remote], minlength=len(uniq) * self.n_devices
        ).reshape(len(uniq), self.n_devices)
        for row, rid in enumerate(uniq.tolist()):
            tokens = trace.tokens_by_request.get(int(rid), 0)
            nbytes = tokens * self.activation_bytes_per_token
            if nbytes == 0:
                continue
            seconds = 0.0
            for count in pair_counts[row]:
                if count == 0:
                    continue
                share = count / totals[row]
                seconds += self.link.round_trip_time(nbytes * share)
            if seconds > 0.0:
                out[int(rid)] = seconds
        return out
