"""The path-vector wire: adjacency-RIB-out, φ-suppression, MRAI batching.

The native GPV engine and the NDlog runtime running the generated GPV
program both hand every advert a node owes a neighbor to that node's
:class:`RibOut`.  A repeat of what the neighbor last heard for the slot
is dropped, and so is a φ (withdraw) toward a neighbor that never held
the route — recorded at once when unbatched.  With a ``batch_interval``
adverts wait in an out-buffer, one per (neighbor, slot), until the node's
next MRAI tick: both rules then judge an offer against the *buffered*
advert, and bookkeeping happens at flush, in offer order.

A *slot* is what one advert replaces: the destination (GPV) or the
(destination, rank) coalescing key (top-k NDlog).  ``sig_pos`` indexes
the signature within a value; ``None`` turns φ-suppression off.
"""

from __future__ import annotations

import math
import zlib
from typing import Callable, Hashable

from ..algebra.base import PHI


class RibOut:
    """One node's RIB-out toward all its neighbors, plus its out-buffer.

    ``send(node, neighbor, slot, value)`` puts one advert on the wire.
    """

    def __init__(self, node: str, sim, batch_interval: float | None,
                 sig_pos: int | None, send: Callable) -> None:
        self.node = node
        self.sim = sim
        self.batch_interval = batch_interval
        self.sig_pos = sig_pos
        self._send = send
        self._sent: dict[tuple, tuple] = {}    # (neighbor, slot) -> value
        self._buffer: dict[tuple, tuple] = {}  # (neighbor, slot) -> value
        self._flush_pending = False
        if batch_interval is None:
            # Unbatched, an offer is recorded and sent in one step.
            self.offer = self._record

    def offer(self, neighbor: str, slot: Hashable, value: tuple) -> None:
        """Buffer or drop one advert for ``neighbor``'s ``slot`` (batched;
        unbatched, ``offer`` is :meth:`_record`)."""
        key = (neighbor, slot)
        last = self._buffer.get(key)
        if last is None:
            last = self._sent.get(key)
        if last == value or self._noise(value, last):
            return
        self._buffer[key] = value
        if not self._flush_pending:
            self._flush_pending = True
            self.sim.at(self._next_flush_time(), self._flush)

    def last(self, neighbor: str, slot: Hashable) -> tuple | None:
        """The value last recorded toward ``neighbor`` for ``slot``."""
        return self._sent.get((neighbor, slot))

    def forget(self, neighbor: str) -> None:
        """Session failure: drop ``neighbor``'s slots and pending adverts."""
        for table in (self._sent, self._buffer):
            for key in [key for key in table if key[0] == neighbor]:
                del table[key]

    def _noise(self, value: tuple, last: tuple | None) -> bool:
        """Is ``value`` a withdraw of a route the neighbor never held?"""
        pos = self.sig_pos
        return pos is not None and value[pos] is PHI and (
            last is None or last[pos] is PHI)

    def _record(self, neighbor: str, slot: Hashable, value: tuple) -> None:
        """Send, or drop as a repeat or as withdraw noise, one advert."""
        key = (neighbor, slot)
        last = self._sent.get(key)
        if last == value:
            return
        self._sent[key] = value
        if not self._noise(value, last):
            self._send(self.node, neighbor, slot, value)

    def _flush(self) -> None:
        self._flush_pending = False
        pending = list(self._buffer.items())
        self._buffer.clear()
        for (neighbor, slot), value in pending:
            self._record(neighbor, slot, value)

    def _next_flush_time(self) -> float:
        """The node's next tick: a grid phase-shifted by the node name,
        plus one ``sim.rng`` drift of up to a tenth of the interval.

        Staggered, drifting timers are how periodic advertisement tames
        symmetric oscillators (DISAGREE) in deployed BGP: an aligned grid
        would keep them in lockstep forever.
        """
        interval, now = self.batch_interval, self.sim.now
        phase = (zlib.crc32(self.node.encode()) % 997) / 997 * interval
        tick = phase + (math.floor((now - phase) / interval) + 1) * interval
        return tick + self.sim.rng.uniform(0.0, 0.1 * interval)
