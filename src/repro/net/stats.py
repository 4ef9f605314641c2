"""Measurement collection for simulation runs.

Records exactly the quantities the paper's evaluation plots:

* **convergence time** — the timestamp of the last route change
  (Sec. VI-A: "from start of protocol until all nodes have computed routes
  to all destinations");
* **bandwidth over time** — per-node average MBps in fixed bins
  (Figs. 5 and 6);
* **communication cost** — total bytes and their per-node average
  (Sec. VI-D quotes per-node MB for PV / HLP / HLP-CH).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class BandwidthPoint:
    """One bin of the bandwidth-vs-time series."""

    time: float
    mbps_per_node: float


@dataclass
class StatsCollector:
    """Accumulates transport and routing events during a run."""

    bytes_sent_total: int = 0
    messages_sent: int = 0
    #: (timestamp, size) of every send — the raw series behind the figures.
    send_log: list[tuple[float, int]] = field(default_factory=list)
    route_changes: int = 0
    last_route_change: float = 0.0
    #: The run's RIB-in log while a caller makes it a list: each accepted
    #: non-φ route as ``(node, dest, sig, path)``, what SPP extraction reads.
    route_log: list | None = None

    # -- recording --------------------------------------------------------------
    # The send fields are written by Simulator.send, inline on its per-message
    # path; the protocol engines report route changes and fill route_log.

    def record_route_change(self, now: float, node: str) -> None:
        self.route_changes += 1
        if now > self.last_route_change:
            self.last_route_change = now

    # -- derived metrics ---------------------------------------------------------

    @property
    def convergence_time(self) -> float:
        """Time of the last route change (0.0 when nothing ever changed)."""
        return self.last_route_change

    def per_node_megabytes(self, node_count: int) -> float:
        """Average communication cost per node in MB (Sec. VI-D metric)."""
        if node_count <= 0:
            return 0.0
        return self.bytes_sent_total / node_count / 1e6

    def bandwidth_series(self, node_count: int, bin_s: float = 0.02,
                         until: float | None = None) -> list[BandwidthPoint]:
        """Average per-node bandwidth (MBps) in ``bin_s`` bins.

        The paper's Figs. 5/6 plot "average per-node bandwidth utilization
        (MBps)" against time; MBps there is *megabytes* per second.
        """
        if node_count <= 0 or bin_s <= 0:
            return []
        horizon = until
        if horizon is None:
            horizon = max((t for t, _ in self.send_log), default=0.0)
        bins = int(horizon / bin_s + 1e-9) + 1
        totals = [0.0] * bins
        for t, size in self.send_log:
            index = int(t / bin_s)
            if index < bins:
                totals[index] += size
        return [
            BandwidthPoint(time=round(i * bin_s, 9),
                           mbps_per_node=total / bin_s / node_count / 1e6)
            for i, total in enumerate(totals)
        ]
