"""HLP — Hybrid Link-state / Path-vector protocol (paper Sec. VI-D).

HLP (Subramanian et al., SIGCOMM 2005) partitions the network into
customer-provider *domains* (hierarchies):

* **within a domain** it runs a link-state protocol: nodes flood LSAs,
  build a domain-local link-state database and compute all intra-domain
  routes with Dijkstra — internal cost changes therefore trigger *no*
  routing messages beyond the LSA flood;
* **across domains** it runs a Fragmented Path Vector (FPV): border nodes
  advertise (destination, cost, domain-path) triples over cross-domain
  links, hiding everything about paths internal to the hierarchy; loop
  prevention is at domain granularity;
* **cost hiding** (threshold τ, paper uses 5): a border re-advertises a
  destination across a domain boundary only when reachability or the
  domain path changes, or the cost moved by at least τ — suppressing the
  chatter caused by minor internal fluctuations.  ``HLP-CH`` in Fig. 6 is
  this feature switched on.

Externally learned records are re-flooded *within* the receiving domain so
every member can combine them with its link-state distances; each node's
total cost to an external destination is ``dist(node, border) +
border's advertised cost``.

Transport: all three item kinds travel in **packed packets** — fragments
are small fixed-size entries (a domain path, not a router path), so many
pack into one packet behind a single header, exactly the aggregation
benefit HLP's fragmented path vector is designed for (and the reason its
byte cost undercuts a path-vector that must carry a distinct full router
path per destination).  Items enqueued for the same neighbor within a
short window (:data:`PACK_WINDOW_S`) share one packet.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from ..net.network import Network
from ..net.simulator import Simulator

#: Node attribute naming the domain a node belongs to.
DOMAIN_ATTR = "domain"

#: Packing window for outgoing items (seconds) — OSPF-style LS-Update /
#: BGP-style NLRI packing of entries that become ready close together.
PACK_WINDOW_S = 0.002

#: Per-packet header bytes (matches the BGP header used by the PV model).
PACKET_HEADER_BYTES = 19


@dataclass(frozen=True)
class Lsa:
    """Link-state advertisement: one node's intra-domain adjacencies."""

    origin: str
    links: tuple[tuple[str, str, int], ...]
    serial: int


@dataclass(frozen=True)
class ExtRecord:
    """Intra-domain flooded copy of a border's external route."""

    dest: str
    border: str
    cost: int
    dpath: tuple
    serial: int


@dataclass(frozen=True)
class FpvAdvert:
    """Cross-domain fragmented path-vector advertisement."""

    dest: str
    cost: int
    dpath: tuple  # domains from the sender's to the destination's, inclusive
    withdrawn: bool = False


@dataclass(frozen=True)
class Packet:
    """A packed wire unit carrying several protocol items."""

    items: tuple


def _entry_size(item) -> int:
    """On-the-wire bytes of one packed entry."""
    if isinstance(item, Lsa):
        return 4 + 8 * max(len(item.links), 1)
    if isinstance(item, ExtRecord):
        return 12 + 4 * len(item.dpath)
    if isinstance(item, FpvAdvert):
        return 12 + 4 * len(item.dpath)
    raise TypeError(f"unsized HLP item {item!r}")


@dataclass
class _NodeState:
    domain: object = None
    lsdb: dict[str, Lsa] = field(default_factory=dict)
    dist: dict[str, int] = field(default_factory=dict)
    #: Records received over my own cross links: (neighbor, dest) -> (cost, dpath).
    rib_cross: dict[tuple[str, str], tuple[int, tuple]] = field(default_factory=dict)
    #: Intra-domain flooded external records: (border, dest) -> ExtRecord.
    ext_records: dict[tuple[str, str], ExtRecord] = field(default_factory=dict)
    #: Chosen external route per destination: dest -> (cost, dpath, border).
    best_ext: dict[str, tuple[int, tuple, str]] = field(default_factory=dict)
    #: Last FPV advert sent per (cross neighbor, dest).
    fpv_out: dict[tuple[str, str], FpvAdvert] = field(default_factory=dict)
    #: Last (cost, dpath) view this border re-flooded per destination.
    refloods: dict[str, tuple] = field(default_factory=dict)
    #: Records whose intra-domain forwarding this node suppressed as
    #: dominated — revisited when the dominating evidence weakens.
    suppressed_forwards: set[tuple[str, str]] = field(default_factory=set)
    ext_serial: int = 0
    lsdb_version: int = 0
    #: Cached intra-domain distance maps, keyed by lsdb_version.
    pairwise_cache: tuple = (-1, None)
    #: Outgoing packed-transport queues, one per neighbor.
    out_queues: dict[str, list] = field(default_factory=dict)
    flush_scheduled: set[str] = field(default_factory=set)


class HLPEngine:
    """HLP over a domain-annotated :class:`Network`.

    Every node is a destination (it "owns its prefix").  Set
    ``cost_hiding_threshold`` to a positive τ for the HLP-CH variant.
    """

    def __init__(self, network: Network, *, seed: int = 0,
                 cost_hiding_threshold: int = 0):
        self.network = network
        self.sim = Simulator(network, seed=seed)
        self.threshold = cost_hiding_threshold
        self._states: dict[str, _NodeState] = {}
        for node in network.nodes():
            state = _NodeState(domain=network.node_attrs(node).get(DOMAIN_ATTR))
            if state.domain is None:
                raise ValueError(f"node {node} lacks the {DOMAIN_ATTR!r} attribute")
            self._states[node] = state
            self.sim.attach(node, self._make_handler(node))

    # -- topology helpers -------------------------------------------------------

    def _domain(self, node: str):
        return self._states[node].domain

    def _intra_neighbors(self, node: str) -> list[str]:
        return [n for n in self.network.neighbors(node)
                if self._domain(n) == self._domain(node)]

    def _cross_neighbors(self, node: str) -> list[str]:
        return [n for n in self.network.neighbors(node)
                if self._domain(n) != self._domain(node)]

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Each node floods its own LSA at t=0."""
        for node in self.network.nodes():
            lsa = self._own_lsa(node)
            self.sim.at(0.0, lambda n=node, l=lsa: self._accept_lsa(n, l, None))

    def run(self, until: float | None = None,
            max_events: int | None = None) -> str:
        self.start()
        return self.sim.run(until=until, max_events=max_events)

    def _own_lsa(self, node: str, serial: int = 0) -> Lsa:
        links = tuple(sorted(
            (node, neighbor, self.network.link(node, neighbor).weight)
            for neighbor in self._intra_neighbors(node)))
        return Lsa(origin=node, links=links, serial=serial)

    def perturb_link(self, a: str, b: str, weight: int) -> None:
        """Change an intra-domain link weight at the current sim time.

        Both endpoints re-originate their LSAs with bumped serials and the
        change ripples: distances recompute, borders re-advertise only the
        destinations whose cost moved by at least the hiding threshold —
        this is the regime cost hiding is designed for.
        """
        if self._domain(a) != self._domain(b):
            raise ValueError("perturb_link is for intra-domain links")
        self.network.link(a, b).weight = weight
        for endpoint in (a, b):
            self._reoriginate_lsa(endpoint)

    def fail_link(self, a: str, b: str) -> None:
        """Take the link between ``a`` and ``b`` down at the current time.

        BGP-session semantics, mirroring the other protocol engines: items
        in flight across the dead link are dropped on delivery, and the
        failure propagates through the protocol's own machinery.

        * A **cross-domain** failure deletes everything learned over the
          link from both ends' cross RIBs; each former endpoint refloods
          its (possibly now empty) view of every affected destination,
          which cascades into FPV withdrawals toward other domains.
        * An **intra-domain** failure makes both endpoints re-originate
          their LSAs without the link; distances recompute and border
          adverts refresh exactly as for a weight change.  Note that a
          failure that *partitions* a domain leaves the far partition's
          stale LSAs in place forever (LSAs carry no expiry here), so
          campaign schedules only fail cross-domain links.
        """
        cross = self._domain(a) != self._domain(b)
        self.network.remove_link(a, b)
        for node, gone in ((a, b), (b, a)):
            state = self._states[node]
            state.out_queues.pop(gone, None)
        if not cross:
            for endpoint in (a, b):
                self._reoriginate_lsa(endpoint)
            return
        for node, gone in ((a, b), (b, a)):
            state = self._states[node]
            affected = [dest for (src, dest) in list(state.rib_cross)
                        if src == gone]
            for dest in affected:
                del state.rib_cross[(gone, dest)]
            for key in [k for k in state.fpv_out if k[0] == gone]:
                del state.fpv_out[key]
            for dest in affected:
                self._reflood_ext(node, dest)

    def _reoriginate_lsa(self, endpoint: str) -> None:
        """Flood a fresh own-LSA with a bumped serial (topology changed)."""
        state = self._states[endpoint]
        current = state.lsdb.get(endpoint)
        serial = (current.serial + 1) if current else 1
        self._accept_lsa(endpoint, self._own_lsa(endpoint, serial), None)

    # -- queries ----------------------------------------------------------------------

    def route_cost(self, node: str, dest: str) -> int | None:
        """Total cost from ``node`` to ``dest`` (None when unreachable)."""
        state = self._states[node]
        if self._domain(dest) == state.domain:
            return state.dist.get(dest)
        choice = state.best_ext.get(dest)
        if choice is None:
            return None
        cost, _dpath, border = choice
        to_border = 0 if border == node else state.dist.get(border)
        if to_border is None:
            return None
        return to_border + cost

    def converged_everywhere(self) -> bool:
        nodes = self.network.nodes()
        return all(self.route_cost(u, d) is not None
                   for u in nodes for d in nodes if u != d)

    # -- message dispatch -----------------------------------------------------------------

    def _make_handler(self, node: str):
        def handler(src: str, payload) -> None:
            if not self.network.has_link(node, src):
                return  # session failed while the packet was in flight
            if not isinstance(payload, Packet):  # pragma: no cover - defensive
                raise TypeError(f"unexpected HLP payload {payload!r}")
            for item in payload.items:
                if isinstance(item, Lsa):
                    self._accept_lsa(node, item, src)
                elif isinstance(item, ExtRecord):
                    self._accept_ext_record(node, item, src)
                elif isinstance(item, FpvAdvert):
                    self._accept_fpv(node, item, src)
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unexpected HLP item {item!r}")
        return handler

    # -- packed transport -------------------------------------------------------

    def _enqueue(self, node: str, neighbor: str, item) -> None:
        """Queue an item for ``neighbor``; items within the packing window
        share one packet (fragment aggregation)."""
        state = self._states[node]
        state.out_queues.setdefault(neighbor, []).append(item)
        if neighbor not in state.flush_scheduled:
            state.flush_scheduled.add(neighbor)
            self.sim.schedule(PACK_WINDOW_S,
                              lambda: self._flush(node, neighbor))

    def _flush(self, node: str, neighbor: str) -> None:
        state = self._states[node]
        state.flush_scheduled.discard(neighbor)
        items = state.out_queues.pop(neighbor, [])
        if not items:
            return
        size = PACKET_HEADER_BYTES + sum(_entry_size(i) for i in items)
        self.sim.send(node, neighbor, Packet(tuple(items)), size)

    # -- link-state machinery ----------------------------------------------------------------

    def _accept_lsa(self, node: str, lsa: Lsa, from_neighbor: str | None) -> None:
        state = self._states[node]
        known = state.lsdb.get(lsa.origin)
        if known is not None and known.serial >= lsa.serial:
            return
        state.lsdb[lsa.origin] = lsa
        state.lsdb_version += 1
        for neighbor in self._intra_neighbors(node):
            if neighbor != from_neighbor:
                self._enqueue(node, neighbor, lsa)
        self._recompute_dist(node)

    def _recompute_dist(self, node: str) -> None:
        """Dijkstra over the LSDB; follow-up: externals may need refresh."""
        state = self._states[node]
        dist = self._dijkstra_from(state, node)
        if dist != state.dist:
            changed = {n for n in dist.keys() | state.dist.keys()
                       if dist.get(n) != state.dist.get(n)}
            state.dist = dist
            self.sim.stats.record_route_change(self.sim.now, node)
            # Border distances feed both external route selection and the
            # costs advertised across domain boundaries.
            borders_changed = any(
                border in changed for (border, _) in state.ext_records)
            if borders_changed:
                for dest in {d for (_, d) in state.ext_records}:
                    self._reselect_ext(node, dest)
            self._refresh_cross_adverts(node, changed, borders_changed)
            # Domination gaps are functions of intra-domain distances, so a
            # metric change (e.g. a weight perturbation growing a path) can
            # invalidate earlier suppression decisions — both forwards
            # declined by this node and own views it never flooded.
            self._recheck_suppressed_forwards(node)
            if self._cross_neighbors(node):
                for dest in {d for (_, d) in state.rib_cross
                             if state.refloods.get(d) is None}:
                    self._reflood_ext(node, dest)

    # -- FPV machinery ------------------------------------------------------------------------

    def _accept_fpv(self, node: str, adv: FpvAdvert, src: str) -> None:
        state = self._states[node]
        my_domain = state.domain
        key = (src, adv.dest)
        if adv.withdrawn or my_domain in adv.dpath:
            if key not in state.rib_cross:
                return
            del state.rib_cross[key]
        else:
            weight = self.network.link(node, src).weight
            entry = (adv.cost + weight, adv.dpath)
            if state.rib_cross.get(key) == entry:
                return
            state.rib_cross[key] = entry
        self._reflood_ext(node, adv.dest)

    def _border_external_view(self, node: str, dest: str
                              ) -> tuple[int, tuple] | None:
        """Best (cost, dpath) for ``dest`` among my own cross links."""
        state = self._states[node]
        best: tuple[int, tuple] | None = None
        for (src, d), (cost, dpath) in state.rib_cross.items():
            if d != dest:
                continue
            if best is None or (cost, len(dpath), dpath) < (
                    best[0], len(best[1]), best[1]):
                best = (cost, dpath)
        return best

    def _reflood_ext(self, node: str, dest: str) -> None:
        """My cross-link view of ``dest`` changed: reflood it intra-domain.

        A border that has never flooded a view for ``dest`` suppresses the
        flood when a *dominating* record already circulates: a record from
        border b with ``cost(b) + dist(node, b) <= cost(node)`` cannot be
        beaten by this view at any node x, because
        ``dist(x, b) <= dist(x, node) + dist(node, b)`` (triangle
        inequality over the intra-domain metric).  Distances computed from
        a partial LSDB only over-estimate, which makes the check err on
        the side of flooding — suppression stays sound during cold start.
        Updates to a previously flooded view are always flooded (downstream
        nodes may depend on it).
        """
        state = self._states[node]
        view = self._border_external_view(node, dest)
        last = state.refloods.get(dest)
        if last == view:
            return  # a non-best alternative changed; nothing to tell anyone
        if last is None and view is not None and self._dominated(
                node, dest, view[0]):
            return
        state.refloods[dest] = view
        state.ext_serial += 1
        if view is None:
            record = ExtRecord(dest=dest, border=node, cost=-1, dpath=(),
                               serial=state.ext_serial)
        else:
            cost, dpath = view
            record = ExtRecord(dest=dest, border=node, cost=cost,
                               dpath=(state.domain,) + dpath,
                               serial=state.ext_serial)
        self._accept_ext_record(node, record, None)

    def _dominated(self, node: str, dest: str, my_cost: int) -> bool:
        """Is some circulating record provably *strictly* better everywhere?

        Strict, not weak, dominance: a cost tie is settled by the domain
        path under the HLP preference order, so a weakly dominated view
        could still be the one every node would select.
        """
        state = self._states[node]
        for (border, d), record in state.ext_records.items():
            if d != dest or record.cost < 0 or border == node:
                continue
            to_border = state.dist.get(border)
            if to_border is not None and record.cost + to_border < my_cost:
                return True
        return False

    def _accept_ext_record(self, node: str, record: ExtRecord,
                           from_neighbor: str | None) -> None:
        state = self._states[node]
        key = (record.border, record.dest)
        known = state.ext_records.get(key)
        if known is not None and known.serial >= record.serial:
            return
        state.ext_records[key] = record
        # Forward updates to already-circulating records unconditionally
        # (downstream nodes depend on them); suppress the first wave of a
        # record that some known record dominates *everywhere* — sound by
        # the same triangle-inequality argument as origination suppression,
        # evaluated over the LSDB every HLP node holds.  Chains of
        # domination strictly decrease cost, so the per-node optimum always
        # propagates.
        if known is not None or not self._forward_dominated(node, record):
            state.suppressed_forwards.discard(key)
            for neighbor in self._intra_neighbors(node):
                if neighbor != from_neighbor:
                    self._enqueue(node, neighbor, record)
        else:
            state.suppressed_forwards.add(key)
        self._reselect_ext(node, record.dest)
        # Suppression is only sound against the evidence it was decided
        # on: when a record is withdrawn or worsens, both a suppressed
        # view of mine and records I declined to forward may have become
        # competitive.
        if (record.border != node and state.refloods.get(record.dest) is None
                and self._cross_neighbors(node)):
            self._reflood_ext(node, record.dest)
        if known is not None and (record.cost < 0
                                  or (known.cost >= 0
                                      and record.cost > known.cost)):
            self._recheck_suppressed_forwards(node, record.dest)

    def _recheck_suppressed_forwards(self, node: str,
                                     dest: str | None = None) -> None:
        """Forward previously dominated records that no longer are.

        Neighbors that already hold a re-forwarded record drop it on the
        serial check, so revisiting is idempotent and cheap.
        """
        state = self._states[node]
        for key in list(state.suppressed_forwards):
            if dest is not None and key[1] != dest:
                continue
            record = state.ext_records.get(key)
            if record is None or record.cost < 0:
                state.suppressed_forwards.discard(key)
                continue
            if not self._forward_dominated(node, record):
                state.suppressed_forwards.discard(key)
                for neighbor in self._intra_neighbors(node):
                    self._enqueue(node, neighbor, record)

    def _forward_dominated(self, node: str, record: ExtRecord) -> bool:
        """Does a known record beat ``record`` at every possible node?

        Record from border b' with cost c' dominates (b, c) when
        ``c' + dist(b, b') < c``: for any node x,
        ``dist(x, b') + c' <= dist(x, b) + dist(b, b') + c' < dist(x, b) + c``.
        Strictly — a cost tie is settled by the domain path under the HLP
        preference order, so a weakly dominated record could still win.
        Distances come from this node's (possibly partial) LSDB, which can
        only over-estimate — suppression stays sound during cold start.
        """
        state = self._states[node]
        for (border, dest), other in state.ext_records.items():
            if dest != record.dest or other.cost < 0:
                continue
            if border == record.border:
                continue
            gap = self._intra_dist(node, record.border, border)
            if gap is not None and other.cost + gap < record.cost:
                return True
        return False

    def _intra_dist(self, node: str, src: str, dst: str) -> int | None:
        """Distance between two intra-domain nodes per this node's LSDB."""
        if src == dst:
            return 0
        state = self._states[node]
        version, dist_maps = state.pairwise_cache
        if version != state.lsdb_version or dist_maps is None:
            dist_maps = {}
            state.pairwise_cache = (state.lsdb_version, dist_maps)
        if src not in dist_maps:
            dist_maps[src] = self._dijkstra_from(state, src)
        return dist_maps[src].get(dst)

    @staticmethod
    def _dijkstra_from(state: "_NodeState", source: str) -> dict[str, int]:
        graph: dict[str, list[tuple[str, int]]] = {}
        for lsa in state.lsdb.values():
            for u, v, w in lsa.links:
                graph.setdefault(u, []).append((v, w))
                graph.setdefault(v, []).append((u, w))
        dist = {source: 0}
        heap = [(0, source)]
        seen: set[str] = set()
        while heap:
            d, current = heapq.heappop(heap)
            if current in seen:
                continue
            seen.add(current)
            for neighbor, weight in graph.get(current, ()):
                candidate = d + weight
                if candidate < dist.get(neighbor, float("inf")):
                    dist[neighbor] = candidate
                    heapq.heappush(heap, (candidate, neighbor))
        return dist

    def _reselect_ext(self, node: str, dest: str) -> None:
        state = self._states[node]
        best: tuple[int, tuple, str] | None = None
        best_rank: tuple | None = None
        for (border, d), record in state.ext_records.items():
            if d != dest or record.cost < 0:
                continue
            to_border = 0 if border == node else state.dist.get(border)
            if to_border is None:
                continue
            # Tie order mirrors the HLP cost algebra's preference —
            # (cost, |dpath|, dpath) — so every implementation settles on
            # the same signature; the border name only breaks exact
            # signature ties deterministically.
            rank = (to_border + record.cost, len(record.dpath),
                    record.dpath, border)
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best = (record.cost, record.dpath, border)
        current = state.best_ext.get(dest)
        if best == current:
            return
        if best is None:
            del state.best_ext[dest]
        else:
            state.best_ext[dest] = best
        self.sim.stats.record_route_change(self.sim.now, node)
        self._advertise_cross(node, dest)

    # -- cross-domain advertising -----------------------------------------------------------------

    def _refresh_cross_adverts(self, node: str,
                               changed: set[str] | None = None,
                               borders_changed: bool = True) -> None:
        """Distances changed: re-advertise the affected destinations.

        ``changed`` restricts the intra-domain destinations refreshed;
        external destinations only need a refresh when a border distance
        moved (their advertised cost is dist(border) + border cost).
        """
        if not self._cross_neighbors(node):
            return
        state = self._states[node]
        my_domain = state.domain
        for dest in self.network.nodes():
            is_intra = self._domain(dest) == my_domain
            if changed is not None and dest != node:
                if is_intra and dest not in changed:
                    continue
                if not is_intra and not borders_changed:
                    continue
            self._advertise_cross(node, dest)

    def _advertise_cross(self, node: str, dest: str) -> None:
        state = self._states[node]
        cross = self._cross_neighbors(node)
        if not cross:
            return
        cost = self.route_cost(node, dest)
        if self._domain(dest) == state.domain:
            dpath: tuple = (state.domain,)
        else:
            # The selected record's domain path already leads with this
            # domain (refloods prepend it) — advertise it as is.
            choice = state.best_ext.get(dest)
            dpath = tuple(choice[1]) if choice else ()
        for neighbor in cross:
            if neighbor == dest:
                continue
            neighbor_domain = self._domain(neighbor)
            reachable = cost is not None and dpath and (
                neighbor_domain not in dpath)
            last = state.fpv_out.get((neighbor, dest))
            if not reachable:
                if last is not None and not last.withdrawn:
                    adv = FpvAdvert(dest, 0, (), withdrawn=True)
                    state.fpv_out[(neighbor, dest)] = adv
                    self._enqueue(node, neighbor, adv)
                continue
            adv = FpvAdvert(dest, cost, dpath)
            if last is not None and not last.withdrawn:
                if last.dpath == adv.dpath and abs(
                        last.cost - adv.cost) < max(self.threshold, 1):
                    continue  # cost hiding (τ >= 1 also dedups no-ops)
            state.fpv_out[(neighbor, dest)] = adv
            self._enqueue(node, neighbor, adv)
