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
import math
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


def _dropped(src: str, payload: Any) -> None:
    """The delivery of a message to a node without a handler."""


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
        #: The network's directed index (both directions of every link,
        #: kept by ``add_link``/``remove_link``): one lookup per message.
        self._links = network._by_pair
        #: Per direction: [earliest free time (FIFO serialization), latest
        #: scheduled arrival (FIFO delivery)].
        self._lanes: dict[tuple[str, str], list[float]] = {}
        self._stopped = False

    # -- wiring --------------------------------------------------------------

    def attach(self, node: str, handler: Callable[[str, Any], None]) -> None:
        """Register ``handler(src, payload)`` as ``node``'s receive callback.

        A message is bound to its receiver's handler when it is sent, so
        attach before the first send toward ``node``; a message to a node
        with no handler is delivered to nobody.
        """
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

        This runs once per simulated message, so the link's arithmetic
        (:meth:`Link.transmission_delay` included) and the
        :class:`StatsCollector` bookkeeping are written out here, each an
        exact transcription — ``jitter_s * random()`` is the value of
        ``uniform(0, jitter_s)``, a conditional the value of ``max`` — and
        the delivery event calls ``dst``'s handler directly.
        """
        direction = (src, dst)
        link = self._links[direction]  # KeyError: not neighbors
        now = self.now
        lane = self._lanes.get(direction)
        if lane is None:
            lane = self._lanes[direction] = [0.0, 0.0]
        free_at, last_arrival = lane
        start = free_at if free_at > now else now
        tx_done = start + (size_bytes * 8) / link.bandwidth_bps
        arrival = tx_done + link.latency_s
        if link.jitter_s:
            arrival += link.jitter_s * self.rng.random()
        if last_arrival > arrival:
            arrival = last_arrival
        lane[0] = tx_done
        lane[1] = arrival
        stats = self.stats
        stats.bytes_sent_total += size_bytes
        stats.messages_sent += 1
        stats.bytes_by_node[src] += size_bytes
        stats.send_log.append((now, size_bytes))
        if now > stats.last_send:
            stats.last_send = now
        # The arithmetic of at(arrival, ...), spelled out: the rounding of
        # now + (arrival - now) is part of every run's timeline.
        delay = arrival - now
        heapq.heappush(self._queue,
                       (now + (delay if delay > 0.0 else 0.0),
                        next(self._seq), self._handlers.get(dst, _dropped),
                        (src, payload)))

    # -- main loop -------------------------------------------------------------------

    def run(self, until: float | None = None,
            max_events: int | None = None) -> str:
        """Drain the event queue; returns a :class:`StopReason` constant."""
        processed = 0
        self._stopped = False
        queue = self._queue
        heappop = heapq.heappop
        horizon = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        while queue:
            if self._stopped:
                return StopReason.STOPPED
            when = queue[0][0]
            if when > horizon:
                self.now = until
                return StopReason.TIME_LIMIT
            if processed >= budget:
                return StopReason.EVENT_LIMIT
            _, _, fn, args = heappop(queue)
            if when > self.now:
                self.now = when
            fn(*args)
            processed += 1
        return StopReason.QUIESCENT

    @property
    def pending_events(self) -> int:
        return len(self._queue)
