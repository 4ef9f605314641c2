"""Physical network model: nodes and attributed links.

This is the substrate the discrete-event simulator transports messages over
(the reproduction's stand-in for ns-3's topology layer).  Links are
bidirectional but carry *per-direction* policy labels — e.g. in Gao-Rexford
topologies ``label(u, v) = 'c'`` means "v is u's customer" while the reverse
direction is ``'p'``.

The default link parameters mirror the paper's experimental setup:
100 Mbps bandwidth, 10 ms latency (Sec. VI-A), with optional jitter
(Sec. VI-B uses up to 3 ms).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Hashable, Iterable, Iterator

#: Paper defaults (Sec. VI-A): "all links have 100 Mbps in bandwidth and
#: 10 ms latency".
DEFAULT_BANDWIDTH_BPS = 100e6
DEFAULT_LATENCY_S = 0.010


@dataclass
class Link:
    """A bidirectional link with transmission characteristics.

    ``labels`` maps each direction ``(u, v)`` to its policy label; protocol
    engines read them through :meth:`Network.label`.
    """

    a: str
    b: str
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS
    latency_s: float = DEFAULT_LATENCY_S
    jitter_s: float = 0.0
    weight: int = 1  # IGP cost used by intradomain topologies
    labels: dict[tuple[str, str], Hashable] = field(default_factory=dict)
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def ends(self) -> frozenset:
        return frozenset((self.a, self.b))


class Network:
    """A set of named nodes and attributed links.

    Nodes are created implicitly by :meth:`add_link` or explicitly with
    :meth:`add_node` (which may attach arbitrary attributes, e.g. the
    AS's role or its domain in HLP topologies).
    """

    def __init__(self, name: str = "net"):
        self.name = name
        self._nodes: dict[str, dict[str, Any]] = {}
        self._links: dict[frozenset, Link] = {}
        #: Both directions of every link: the one lookup behind ``link()``,
        #: ``has_link()`` and ``label()``, and behind ``Simulator.send``,
        #: which reads it directly — all run per simulated message.
        self._by_pair: dict[tuple[str, str], Link] = {}
        self._adjacency: dict[str, list[str]] = {}

    # -- construction ----------------------------------------------------------

    def add_node(self, node: str, **attrs: Any) -> None:
        entry = self._nodes.setdefault(node, {})
        entry.update(attrs)
        self._adjacency.setdefault(node, [])

    def add_link(self, a: str, b: str, *,
                 bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
                 latency_s: float = DEFAULT_LATENCY_S,
                 jitter_s: float = 0.0,
                 weight: int = 1,
                 label_ab: Hashable = None,
                 label_ba: Hashable = None,
                 **attrs: Any) -> Link:
        """Create (or replace) the link between ``a`` and ``b``."""
        if a == b:
            raise ValueError(f"self-loop on {a}")
        self.add_node(a)
        self.add_node(b)
        link = Link(a, b, bandwidth_bps=bandwidth_bps, latency_s=latency_s,
                    jitter_s=jitter_s, weight=weight, attrs=attrs)
        if label_ab is not None:
            link.labels[(a, b)] = label_ab
        if label_ba is not None:
            link.labels[(b, a)] = label_ba
        key = frozenset((a, b))
        if key not in self._links:
            self._adjacency[a].append(b)
            self._adjacency[b].append(a)
        self._links[key] = link
        self._by_pair[(a, b)] = self._by_pair[(b, a)] = link
        return link

    # -- queries ------------------------------------------------------------------

    def nodes(self) -> list[str]:
        return list(self._nodes)

    def has_node(self, node: str) -> bool:
        return node in self._nodes

    def node_attrs(self, node: str) -> dict[str, Any]:
        return self._nodes[node]

    def links(self) -> Iterator[Link]:
        return iter(self._links.values())

    def link(self, a: str, b: str) -> Link:
        try:
            return self._by_pair[(a, b)]
        except KeyError:
            raise KeyError(f"no link {a}-{b} in {self.name}") from None

    def has_link(self, a: str, b: str) -> bool:
        return (a, b) in self._by_pair

    def neighbors(self, node: str) -> list[str]:
        return list(self._adjacency.get(node, []))

    def label(self, u: str, v: str) -> Hashable:
        """Policy label of the direction ``u -> v`` (None if unset)."""
        return self.link(u, v).labels.get((u, v))

    def set_label(self, u: str, v: str, label: Hashable) -> None:
        self.link(u, v).labels[(u, v)] = label

    def node_count(self) -> int:
        return len(self._nodes)

    def link_count(self) -> int:
        return len(self._links)

    # -- graph helpers ---------------------------------------------------------------

    def shortest_path_costs(self, source: str) -> dict[str, int]:
        """Dijkstra over link ``weight`` — IGP costs from ``source``."""
        import heapq

        dist = {source: 0}
        heap: list[tuple[int, str]] = [(0, source)]
        done: set[str] = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            for neighbor in self.neighbors(node):
                weight = self.link(node, neighbor).weight
                candidate = d + weight
                if candidate < dist.get(neighbor, float("inf")):
                    dist[neighbor] = candidate
                    heapq.heappush(heap, (candidate, neighbor))
        return dist

    def connected(self, among: Iterable[str] | None = None) -> bool:
        """True when the (sub)graph over ``among`` (or all nodes) is connected."""
        nodes = list(among) if among is not None else self.nodes()
        if not nodes:
            return True
        allowed = set(nodes)
        seen = {nodes[0]}
        frontier = [nodes[0]]
        while frontier:
            node = frontier.pop()
            for neighbor in self.neighbors(node):
                if neighbor in allowed and neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return seen == allowed

    def remove_link(self, a: str, b: str) -> None:
        """Delete the link between ``a`` and ``b`` (KeyError if absent)."""
        if (a, b) not in self._by_pair:
            raise KeyError(f"no link {a}-{b} in {self.name}")
        del self._links[frozenset((a, b))]
        del self._by_pair[(a, b)], self._by_pair[(b, a)]
        self._adjacency[a].remove(b)
        self._adjacency[b].remove(a)

    def copy(self) -> "Network":
        """An independent network a session may mutate (``remove_link``,
        ``set_label``) without the original noticing.

        Node, adjacency and link insertion orders and every link's
        per-direction labels and attrs carry over — iteration order is
        behaviour (the order a node hears its neighbours in decides
        ``rib_in`` order and with it tie-breaks).  Labels and attr
        values themselves are shared, not copied.
        """
        twin = Network(name=self.name)
        twin._nodes = {node: dict(attrs)
                       for node, attrs in self._nodes.items()}
        twin._adjacency = {node: list(neighbors)
                           for node, neighbors in self._adjacency.items()}
        for key, link in self._links.items():
            twin._links[key] = replace(link, labels=dict(link.labels),
                                       attrs=dict(link.attrs))
        twin._by_pair = {pair: twin._links[link.ends]
                         for pair, link in self._by_pair.items()}
        return twin

    def __repr__(self) -> str:
        return (f"<Network {self.name!r}: {self.node_count()} nodes, "
                f"{self.link_count()} links>")
