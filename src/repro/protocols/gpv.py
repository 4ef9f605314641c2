"""Native Generalized Path Vector engine.

Semantically identical to the NDlog GPV program interpreted by
:class:`~repro.ndlog.runtime.NDlogRuntime` (the equivalence is asserted by
the integration tests, the operational counterpart of the paper's
Theorem 5.1), but implemented directly in Python so large topologies — the
CAIDA subgraphs of Fig. 4 and the 87-router Rocketfuel instance of
Fig. 5 — simulate quickly.

Per node and destination the engine keeps

* an adjacency-RIB-in: the latest (signature, path) advertised by each
  neighbor, φ-signatures marking withdrawn routes, each stored with its
  signature's rank key (:meth:`~repro.algebra.base.RoutingAlgebra.rank_key`,
  computed once as the route enters the RIB; ``None`` for φ);
* the selected best route (least rank key, sticky under ties).

What crosses a link and when is not this module's: the ⊕E / ⊕I / ⊕P
folds — export filter and split horizon on the sender (φ on the wire =
withdraw), loop check, import filter and ⊕P on the receiver, the
decomposition the extended algebra of paper Sec. III-A exists to express
— are :func:`~repro.algebra.extended.path_vector_folds`, and RIB-out
dedup, φ-suppression and MRAI batching are
:class:`~repro.net.ribout.RibOut`.  The generated NDlog program runs on
the same two, so the oracle's ``gpv~ndlog`` pair compares selection and
event handling, not the wire.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable

from ..algebra.base import (
    PHI,
    RoutingAlgebra,
    Signature,
    origin_or_phi,
    rank_routes,
)
from ..algebra.extended import path_vector_folds
from ..net.network import Link, Network
from ..net.ribout import RibOut
from ..net.simulator import Simulator
from ..net.sizes import update_size

Path = tuple
#: (signature, path, rank key of the signature — None for φ); only
#: ``(signature, path)`` leaves the engine.
Route = tuple

_STORED_KEY = itemgetter(2)


@dataclass
class _NodeState:
    ribout: RibOut
    #: Routes per (neighbor, destination): a tuple because multipath
    #: advertisements can carry several (paper's top-k extension).
    rib_in: dict[tuple[str, str], tuple] = field(default_factory=dict)
    #: Raw advertisements as received, pre-⊕ — kept so a label change on a
    #: link can re-derive the combined routes (policy/metric perturbation).
    adj_in: dict[tuple[str, str], "Advertisement"] = field(default_factory=dict)
    best: dict[str, Route] = field(default_factory=dict)


@dataclass(slots=True)
class Advertisement:
    """Wire format: the sender's current best route for one destination.

    Under multipath operation (``top_k > 1``, the paper's Sec. VI-D
    "propagating the top-k paths instead of the current best"), up to
    ``k - 1`` additional routes ride along in ``alternates``.
    """

    dest: str
    sig: Signature
    path: Path
    alternates: tuple = ()

    def routes(self) -> list[tuple]:
        return [(self.sig, self.path), *self.alternates]

    def wire_size(self) -> int:
        size = update_size(len(self.path))
        for _sig, path in self.alternates:
            size += update_size(len(path)) - 19  # alternates share a header
        return size


class GPVEngine:
    """Path-vector protocol parameterised by a routing algebra.

    While ``sim.stats.route_log`` is a list, every non-φ route accepted
    into a RIB-in is appended to it — the raw material for SPP extraction
    (paper Sec. VI-B extracts per-node permitted paths from received
    advertisements).
    """

    def __init__(self, network: Network, algebra: RoutingAlgebra,
                 destinations: Iterable[str], *,
                 seed: int = 0,
                 batch_interval: float | None = None,
                 top_k: int = 1):
        if top_k < 1:
            raise ValueError("top_k must be at least 1")
        self.network = network
        self.algebra = algebra
        self._rank_key = algebra.rank_key
        self._combine, self._export = path_vector_folds(algebra)
        self.destinations = list(destinations)
        self.sim = Simulator(network, seed=seed)
        self.batch_interval = batch_interval
        self.top_k = top_k
        self._states = {
            node: _NodeState(RibOut(node, self.sim, batch_interval, 0,
                                    self._send))
            for node in network.nodes()}
        #: node → {neighbor: (Link, (node, neighbor))} in adjacency order,
        #: bound once and kept in step with the network by
        #: :meth:`fail_link`.  Labels are read from ``link.labels`` under
        #: the node's direction, where ``Network.set_label`` writes them.
        self._links: dict[str, dict[str, tuple[Link, tuple]]] = {
            node: {neighbor: (network.link(node, neighbor), (node, neighbor))
                   for neighbor in network.neighbors(node)}
            for node in network.nodes()}
        for node in network.nodes():
            self.sim.attach(node, functools.partial(self._receive, node))

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Inject origination routes (one-hop paths to each destination)."""
        for dest in self.destinations:
            for neighbor in self.network.neighbors(dest):
                label = self.network.label(neighbor, dest)
                if label is None:
                    continue
                sig = origin_or_phi(self.algebra, label)
                if sig is PHI:
                    continue
                route = (sig, (neighbor, dest), self._rank_key(sig))
                state = self._states[neighbor]
                state.rib_in[(neighbor, dest)] = (route,)
                self.sim.at(0.0, lambda n=neighbor, d=dest: self._reselect(n, d))

    def run(self, until: float | None = None,
            max_events: int | None = None) -> str:
        self.start()
        return self.sim.run(until=until, max_events=max_events)

    def inject_route(self, node: str, dest: str, label) -> None:
        """Plant a forged origination at ``node`` for ``dest`` (hijack).

        The node behaves as if it held a one-hop path to the destination
        over ``label`` — no link to the destination is required (that is
        the forgery) — and the route propagates through the normal
        advertisement machinery from the current sim time on.
        """
        sig = origin_or_phi(self.algebra, label)
        if sig is PHI:
            return
        state = self._states[node]
        state.rib_in[(node, dest)] = (
            (sig, (node, dest), self._rank_key(sig)),)
        self._reselect(node, dest)

    # -- queries ----------------------------------------------------------------

    def best_route(self, node: str, dest: str) -> tuple | None:
        route = self._states[node].best.get(dest)
        if route is None or route[0] is PHI:
            return None
        return route[:2]

    def best_path(self, node: str, dest: str) -> Path | None:
        route = self.best_route(node, dest)
        return route[1] if route else None

    def known_routes(self, node: str, dest: str) -> list[tuple]:
        """Every usable route in the node's RIB-in, most preferred first."""
        return [route[:2] for route in
                self._ranked(self._candidates(self._states[node], dest))]

    def fail_link(self, a: str, b: str) -> None:
        """Take the link between ``a`` and ``b`` down at the current time.

        Both endpoints drop every route learned from the other (including
        originations over the link), reselect, and the resulting changes —
        possibly withdraws (φ advertisements) — propagate through the
        normal machinery.  This is BGP session failure, and it exercises
        the full withdraw path: downstream nodes whose best route used the
        link must fall back or lose the destination entirely.
        """
        self.network.remove_link(a, b)
        del self._links[a][b], self._links[b][a]
        for node, gone in ((a, b), (b, a)):
            state = self._states[node]
            affected = []
            for (neighbor, dest) in list(state.rib_in):
                if neighbor == gone:
                    del state.rib_in[(neighbor, dest)]
                    state.adj_in.pop((neighbor, dest), None)
                    affected.append(dest)
                elif dest == gone and neighbor == node:
                    # Origination over the failed link.
                    del state.rib_in[(neighbor, dest)]
                    affected.append(dest)
            state.ribout.forget(gone)
            for dest in affected:
                self._reselect_after_loss(node, dest)

    def _reselect_after_loss(self, node: str, dest: str) -> None:
        """Reselection that can *withdraw*: the best route may be gone.

        While a usable route remains this is :meth:`_reselect`, sticky
        under ties like NDlog's ``a_pref``; only a node left with nothing
        but φ withdraws.
        """
        state = self._states[node]
        if any(route[0] is not PHI
               for route in self._candidates(state, dest)):
            self._reselect(node, dest)
            return
        current = state.best.get(dest)
        if current is None or current[0] is PHI:
            return
        lost = (PHI, (node,), None)
        state.best[dest] = lost
        self.sim.stats.record_route_change(self.sim.now, node)
        self._advertise(node, dest, lost)

    def perturb_link(self, a: str, b: str, *, label_ab=None,
                     label_ba=None) -> None:
        """Change a link's directed labels at the current sim time.

        Each endpoint re-derives the routes it had received over the link
        (the raw advertisements are kept pre-⊕) and re-runs selection —
        the path-vector reaction to a metric or policy change.
        """
        if label_ab is not None:
            self.network.set_label(a, b, label_ab)
        if label_ba is not None:
            self.network.set_label(b, a, label_ba)
        for node, src in ((a, b), (b, a)):
            state = self._states[node]
            for (neighbor, dest), adv in list(state.adj_in.items()):
                if neighbor == src:
                    self._receive(node, src, adv)
            # Locally originated one-hop routes over this link change too.
            if src in self.destinations:
                label = self.network.label(node, src)
                sig = origin_or_phi(self.algebra, label)
                if sig is not PHI:
                    state.rib_in[(node, src)] = (
                        (sig, (node, src), self._rank_key(sig)),)
                    self._reselect(node, src)

    # -- receive side ---------------------------------------------------------------

    def _receive(self, node: str, src: str, adv: Advertisement) -> None:
        bound = self._links[node].get(src)
        if bound is None:
            return  # session failed while the advertisement was in flight
        link, direction = bound
        label = link.labels.get(direction)
        state = self._states[node]
        dest = adv.dest
        slot = (src, dest)
        state.adj_in[slot] = adv
        combine = self._combine
        rank_key = self._rank_key
        if adv.alternates:
            routes = []
            for sig, path in adv.routes():
                sig = combine(label, sig, path, node)
                routes.append((sig, (node,) + path,
                               None if sig is PHI else rank_key(sig)))
            new = tuple(routes)
        else:
            sig = combine(label, adv.sig, adv.path, node)
            new = ((sig, (node,) + adv.path,
                    None if sig is PHI else rank_key(sig)),)
        log = self.sim.stats.route_log
        if log is not None:
            for sig, path, _rank in new:
                if sig is not PHI:
                    log.append((node, dest, sig, path))
        if state.rib_in.get(slot) == new:
            return
        state.rib_in[slot] = new
        self._reselect(node, dest)

    # -- selection --------------------------------------------------------------------

    def _candidates(self, state: _NodeState, dest: str) -> list[Route]:
        # A loop, not a comprehension (a call frame of its own): this runs
        # once per received message.
        candidates: list[Route] = []
        for (_, d), routes in state.rib_in.items():
            if d == dest:
                candidates += routes
        return candidates

    def _ranked(self, candidates: list[Route]) -> list[Route]:
        """Non-φ candidates, most preferred first, deduplicated by path."""
        return rank_routes(candidates, _STORED_KEY)

    def _reselect(self, node: str, dest: str) -> None:
        state = self._states[node]
        candidates = self._candidates(state, dest)
        winner: Route | None = None
        for route in candidates:
            # The first route of least rank key; φ (key None) wins only
            # when nothing else is on offer.
            if winner is None or route[2] is not None and (
                    winner[2] is None or route[2] < winner[2]):
                winner = route
        if winner is None:
            return
        current = state.best.get(dest)
        selected = winner
        if current is not None and current != winner:
            # Stickiness: keep the current selection on ties while it is
            # still offered.
            rank = winner[2]
            strictly_better = rank is not None and (
                current[2] is None or rank < current[2])
            if not strictly_better and current in candidates:
                selected = current
        if selected != current:
            state.best[dest] = selected
            self.sim.stats.record_route_change(self.sim.now, node)
            self._advertise(node, dest, selected)
        elif self.top_k > 1:
            # The best is unchanged but the advertised top-k *set* may
            # have grown or shrunk; per-neighbor RIB-out dedup keeps this
            # quiet when nothing actually changed.
            self._advertise(node, dest, selected)

    # -- send side -----------------------------------------------------------------------

    def _advertise(self, node: str, dest: str, route: Route) -> None:
        sig, path, _rank = route
        state = self._states[node]
        export = self._export
        offer = state.ribout.offer
        top_k = self.top_k
        extras: list[Route] = []
        if top_k > 1 and sig is not PHI:
            extras = [r for r in self._ranked(self._candidates(state, dest))
                      if r != route]
        for neighbor, (link, direction) in self._links[node].items():
            if neighbor == dest:
                continue
            label = link.labels.get(direction)
            out_sig = export(label, sig, path, neighbor)
            if top_k > 1:
                # The first top_k exportable routes in rank order.  ⊕E is
                # pure, so stopping there sends exactly what exporting the
                # whole pool and cutting it to top_k would.
                usable: list[tuple] = []
                if out_sig is not PHI:
                    usable.append((out_sig, path))
                for alt_sig, alt_path, _rank in extras:
                    exported = export(label, alt_sig, alt_path, neighbor)
                    if exported is not PHI:
                        usable.append((exported, alt_path))
                        if len(usable) == top_k:
                            break
                if usable:
                    (out_sig, out_path), *alternates = usable
                    offer(neighbor, dest,
                          (out_sig, out_path, tuple(alternates)))
                    continue
            offer(neighbor, dest, (out_sig, path, ()))

    def _send(self, node: str, neighbor: str, dest: str, value: tuple) -> None:
        adv = Advertisement(dest, *value)
        self.sim.send(node, neighbor, adv, adv.wire_size())
