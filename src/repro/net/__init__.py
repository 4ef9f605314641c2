"""Discrete-event network simulation substrate (ns-3 / RapidNet stand-in).

* :mod:`repro.net.network` — nodes and attributed links (per-direction
  policy labels, bandwidth/latency/jitter, IGP weights);
* :mod:`repro.net.simulator` — event loop, FIFO link serialization,
  deterministic seeded jitter, quiescence detection;
* :mod:`repro.net.ribout` — the path-vector wire discipline both GPV
  evaluators send through: adjacency-RIB-out dedup, φ-suppression, MRAI
  batching;
* :mod:`repro.net.stats` — convergence time, bandwidth-over-time series,
  communication cost (the quantities in Figs. 4-6);
* :mod:`repro.net.sizes` — BGP-UPDATE-shaped message size model.
"""

from .network import DEFAULT_BANDWIDTH_BPS, DEFAULT_LATENCY_S, Link, Network
from .simulator import Simulator, StopReason
from .sizes import link_state_size, update_size, withdraw_size
from .stats import BandwidthPoint, StatsCollector

__all__ = [
    "BandwidthPoint",
    "DEFAULT_BANDWIDTH_BPS",
    "DEFAULT_LATENCY_S",
    "Link",
    "Network",
    "Simulator",
    "StatsCollector",
    "StopReason",
    "link_state_size",
    "update_size",
    "withdraw_size",
]
