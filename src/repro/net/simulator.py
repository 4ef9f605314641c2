"""Discrete-event network simulator (the reproduction's ns-3 stand-in).

The paper executes generated NDlog programs on RapidNet over ns-3 in
*simulation mode*, and over real sockets in *deployment mode*.  This module
provides the simulation substrate both our NDlog runtime and the native
protocol engines run on:

* a time-ordered event loop with deterministic tie-breaking: the queue
  holds ``(time, seq, fn, args)`` tuples, ``seq`` is unique, so events at
  equal timestamps run in scheduling order and the comparison never
  reaches ``fn``;
* message transport over :class:`~repro.net.network.Network` links with
  per-direction FIFO serialization (transmission delay = size / bandwidth),
  propagation latency, and seeded jitter;
* per-node byte/message accounting feeding the bandwidth-over-time figures
  (Figs. 5 and 6);
* quiescence detection: ``run()`` returns when no events remain, which for
  safe policies is the convergence instant — unsafe policies hit the
  event/time caps instead (that is how BAD GADGET's divergence shows up).
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable

from .network import Network
from .stats import StatsCollector


class StopReason:
    """Why :meth:`Simulator.run` returned."""

    QUIESCENT = "quiescent"
    TIME_LIMIT = "time-limit"
    EVENT_LIMIT = "event-limit"
    STOPPED = "stopped"


class Simulator:
    """Event loop + message transport over a :class:`Network`.

    Protocol engines register a per-node message handler with
    :meth:`attach`; :meth:`send` transports a message between neighbors.
    Handlers and timers run inside the loop; everything is deterministic
    for a given seed.
    """

    def __init__(self, network: Network, seed: int = 0):
        self.network = network
        self.rng = random.Random(seed)
        self.stats = StatsCollector()
        self.now = 0.0
        self._queue: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = itertools.count()
        self._handlers: dict[str, Callable[[str, Any], None]] = {}
        #: Per-direction earliest free time of each link (FIFO serialization).
        self._link_free_at: dict[tuple[str, str], float] = {}
        #: Per-direction latest scheduled arrival (FIFO delivery).
        self._link_arrival_at: dict[tuple[str, str], float] = {}
        self._stopped = False

    # -- wiring --------------------------------------------------------------

    def attach(self, node: str, handler: Callable[[str, Any], None]) -> None:
        """Register ``handler(src, payload)`` as ``node``'s receive callback."""
        if not self.network.has_node(node):
            raise KeyError(f"unknown node {node}")
        self._handlers[node] = handler

    # -- scheduling ------------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._queue,
                       (self.now + delay, next(self._seq), action, ()))

    def at(self, when: float, action: Callable[[], None]) -> None:
        """Run ``action`` at absolute time ``when`` (>= now)."""
        self.schedule(max(0.0, when - self.now), action)

    def stop(self) -> None:
        """Abort the run at the end of the current event."""
        self._stopped = True

    # -- transport ----------------------------------------------------------------

    def send(self, src: str, dst: str, payload: Any, size_bytes: int) -> None:
        """Transmit a message to a *neighbor* over the connecting link.

        Models FIFO serialization per link direction: a burst of updates
        queues behind itself, which is what makes oscillating configurations
        visibly saturate links in the Fig. 5 traces.  Delivery is FIFO per
        direction as well — jitter perturbs arrival times but never
        reorders two messages on the same directed link, because the
        protocol sessions this simulates (BGP over TCP, RapidNet's
        transport) are ordered byte streams; without the clamp a stale
        advertisement could overtake the fresh one that replaces it and
        freeze a stale adjacency-RIB entry into the converged state.
        """
        link = self.network.link(src, dst)
        direction = (src, dst)
        now = self.now
        start = max(now, self._link_free_at.get(direction, 0.0))
        tx_done = start + link.transmission_delay(size_bytes)
        self._link_free_at[direction] = tx_done
        jitter = self.rng.uniform(0.0, link.jitter_s) if link.jitter_s else 0.0
        arrival = max(tx_done + link.latency_s + jitter,
                      self._link_arrival_at.get(direction, 0.0))
        self._link_arrival_at[direction] = arrival
        self.stats.record_send(now, src, dst, size_bytes)
        # The arithmetic of at(arrival, ...), spelled out: the rounding of
        # now + (arrival - now) is part of every run's timeline.
        heapq.heappush(self._queue,
                       (now + max(0.0, arrival - now),
                        next(self._seq), self._deliver, (src, dst, payload)))

    def _deliver(self, src: str, dst: str, payload: Any) -> None:
        handler = self._handlers.get(dst)
        if handler is not None:
            handler(src, payload)

    # -- main loop -------------------------------------------------------------------

    def run(self, until: float | None = None,
            max_events: int | None = None) -> str:
        """Drain the event queue; returns a :class:`StopReason` constant."""
        processed = 0
        self._stopped = False
        queue = self._queue
        while queue:
            if self._stopped:
                return StopReason.STOPPED
            when = queue[0][0]
            if until is not None and when > until:
                self.now = until
                return StopReason.TIME_LIMIT
            if max_events is not None and processed >= max_events:
                return StopReason.EVENT_LIMIT
            _, _, fn, args = heapq.heappop(queue)
            if when > self.now:
                self.now = when
            fn(*args)
            processed += 1
        return StopReason.QUIESCENT

    @property
    def pending_events(self) -> int:
        return len(self._queue)
