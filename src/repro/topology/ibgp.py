"""iBGP route-reflection configurations (paper Sec. VI-B / Fig. 5).

Builds the paper's experimental setup on a Rocketfuel-like router graph:

* a **reflector-client session hierarchy** (paper: 6 levels, 53 reflectors
  out of 87 routers) — the top level is a full mesh, every lower-level
  reflector and every client sessions to 1-2 parents;
* the **IGP-cost policy**: each router prefers the route whose egress has
  the lowest IGP cost *from itself* — expressed as the finite
  :class:`IGPCostAlgebra` whose signatures are (router, egress) pairs, so
  the node-dependent preference becomes a per-node ranking exactly like an
  SPP conversion;
* the **Figure-3 gadget embedding**: pick three top-mesh reflectors with
  one client egress each and override their IGP costs so each reflector
  prefers the *next* reflector's client egress — the preference cycle that
  makes the configuration oscillate.

The external destination is modelled as the virtual node :data:`EXT_DEST`
attached to every egress router.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from ..algebra.base import PHI, Label, MonoEntry, PrefStatement, Rel, RoutingAlgebra, Signature
from ..net.network import Network

#: Virtual node representing the remote destination outside the AS.
EXT_DEST = "EXT"


@dataclass
class IBGPConfig:
    """A complete iBGP experiment configuration."""

    session_net: Network
    reflectors: list[str]
    levels: dict[str, int]
    egresses: list[str]
    igp_costs: dict[str, dict[str, int]]
    #: (router, egress) -> overridden IGP cost (gadget embedding).
    overrides: dict[tuple[str, str], int] = field(default_factory=dict)
    gadget_members: list[str] = field(default_factory=list)

    def cost(self, router: str, egress: str) -> int:
        override = self.overrides.get((router, egress))
        if override is not None:
            return override
        return self.igp_costs[router].get(egress, 10 ** 6)


def build_reflector_hierarchy(router_net: Network, *,
                              levels: int = 6,
                              reflector_count: int = 53,
                              top_mesh: int = 3,
                              seed: int = 0,
                              session_latency_s: float = 0.010,
                              session_jitter_s: float = 0.003) -> tuple[Network, list[str], dict[str, int]]:
    """Build the session graph over the routers of ``router_net``.

    Returns ``(session_net, reflectors, level_of)``.  Backbone routers are
    preferred as reflectors.  Session links carry SPP-style directed labels
    ``('l', u, v)`` for the GPV deployment.
    """
    routers = router_net.nodes()
    if reflector_count >= len(routers):
        raise ValueError("reflector_count must leave room for clients")
    rng = random.Random(seed)
    backbone = [r for r in routers
                if router_net.node_attrs(r).get("role") == "backbone"]
    others = [r for r in routers if r not in backbone]
    ordered = backbone + others
    reflectors = ordered[:reflector_count]
    clients = [r for r in routers if r not in set(reflectors)]

    session_net = Network(name=f"{router_net.name}-ibgp")
    level_of: dict[str, int] = {}

    def connect(u: str, v: str) -> None:
        if u != v and not session_net.has_link(u, v):
            session_net.add_link(u, v, label_ab=("l", u, v),
                                 label_ba=("l", v, u),
                                 latency_s=session_latency_s,
                                 jitter_s=session_jitter_s)

    # Distribute reflectors across levels: a small top mesh, then even tiers.
    tiers: list[list[str]] = [reflectors[:top_mesh]]
    rest = reflectors[top_mesh:]
    per_tier = max(1, len(rest) // (levels - 1)) if levels > 1 else len(rest)
    for i in range(levels - 1):
        chunk = rest[i * per_tier: (i + 1) * per_tier]
        if i == levels - 2:
            chunk = rest[i * per_tier:]
        tiers.append(chunk)
    tiers = [t for t in tiers if t]

    for level, members in enumerate(tiers):
        for router in members:
            level_of[router] = level
            session_net.add_node(router)
    # Top-level full mesh.
    for i, a in enumerate(tiers[0]):
        for b in tiers[0][i + 1:]:
            connect(a, b)
    # Lower tiers and clients are single-homed: below the top mesh the
    # session graph is a tree, so the session path between any two routers
    # is unique and hot-potato preference conflicts (natural dispute
    # wheels) can only arise among the meshed top reflectors — the place
    # the Figure-3 gadget embedding deliberately creates one.
    for level in range(1, len(tiers)):
        parents = tiers[level - 1]
        for router in tiers[level]:
            connect(router, rng.choice(parents))
    lowest = tiers[-1]
    for client in clients:
        level_of[client] = len(tiers)
        connect(client, rng.choice(lowest))
    return session_net, reflectors, level_of


class IGPCostAlgebra(RoutingAlgebra):
    """Hot-potato iBGP policy: prefer the egress closest in IGP cost.

    Signatures are ``(router, egress)`` pairs — embedding the router makes
    the node-dependent preference a well-defined (partial, per-node)
    order, exactly the trick of the SPP conversion (paper Sec. III-B).
    Labels are directed session-edge constants ``('l', u, v)``.
    """

    def __init__(self, config: IBGPConfig):
        self.config = config
        self.name = f"igp-cost:{config.session_net.name}"
        self._egresses = set(config.egresses)

    # -- operational ---------------------------------------------------------

    def rank_key(self, sig: Signature) -> tuple:
        # Per router: IGP cost to the egress, ties by egress name; across
        # routers an arbitrary but consistent extension, by router.
        router, egress = sig
        return (router, self.config.cost(router, egress), egress)

    def oplus(self, label: Label, sig: Signature) -> Signature:
        if sig is PHI:
            return PHI
        _, u, v = label
        holder, egress = sig
        if holder != v or u == EXT_DEST:
            return PHI
        return (u, egress)

    def labels(self) -> Sequence[Label]:
        out = []
        for link in self.config.session_net.links():
            out.append(("l", link.a, link.b))
            out.append(("l", link.b, link.a))
        return out

    def origin_signature(self, label: Label) -> Signature:
        _, u, v = label
        if v == EXT_DEST and u in self._egresses:
            return (u, u)
        return PHI

    # -- declarative -----------------------------------------------------------

    def signatures(self) -> Sequence[Signature]:
        routers = [n for n in self.config.session_net.nodes()
                   if n != EXT_DEST]
        return [(router, egress) for router in sorted(routers)
                for egress in sorted(self._egresses)]

    def preference_statements(self) -> list[PrefStatement]:
        """Per-router ranking chains over egresses by IGP cost."""
        statements = []
        routers = sorted(n for n in self.config.session_net.nodes()
                         if n != EXT_DEST)
        for router in routers:
            ranked = sorted(self._egresses,
                            key=lambda e: (self.config.cost(router, e), e))
            for better, worse in zip(ranked, ranked[1:]):
                rel = (Rel.STRICT
                       if self.config.cost(router, better)
                       < self.config.cost(router, worse) else Rel.EQUAL)
                statements.append(PrefStatement(
                    (router, better), rel, (router, worse),
                    origin=f"rank[{router}]"))
        return statements

    def mono_entries(self) -> list[MonoEntry]:
        """Deliberately unsupported — analyze iBGP via SPP extraction.

        Signatures here carry only (router, egress), not the session path,
        so enumerating ⊕ over every session direction would also enumerate
        relays that can never happen operationally (u→v→u bouncing of the
        same egress route), and *every* pair of adjacent routers would
        produce a false ``x < y, y < x`` conflict.  The paper's workflow
        (Sec. VI-B) solves this by extracting the concrete SPP instance
        from a protocol run — permitted paths carry the path information
        the plain signatures lack.  Use
        :func:`repro.experiments.extraction.extract_spp`.
        """
        raise NotImplementedError(
            "IGPCostAlgebra cannot be analyzed by direct (+)-enumeration; "
            "log a GPV run's routes (sim.stats.route_log = []) and analyze "
            "the extracted SPP instance "
            "(repro.experiments.extraction.extract_spp), as in paper Sec. VI-B")


def make_ibgp_config(router_net: Network, *,
                     levels: int = 6,
                     reflector_count: int = 53,
                     egress_count: int = 5,
                     seed: int = 0,
                     embed_gadget: bool = False) -> IBGPConfig:
    """Assemble the full Sec. VI-B configuration.

    ``embed_gadget=True`` reproduces the paper's fault injection: three
    top-mesh reflectors, each with a dedicated client egress, get IGP-cost
    overrides forming the Figure-3 preference cycle.
    """
    from .rocketfuel import pairwise_igp_costs

    session_net, reflectors, level_of = build_reflector_hierarchy(
        router_net, levels=levels, reflector_count=reflector_count, seed=seed)
    igp_costs = pairwise_igp_costs(router_net)
    rng = random.Random(seed + 1)

    clients = [r for r in router_net.nodes() if r not in set(reflectors)]
    top_mesh = [r for r, lvl in level_of.items() if lvl == 0]

    overrides: dict[tuple[str, str], int] = {}
    gadget_members: list[str] = []
    egresses: list[str]

    if embed_gadget:
        if len(top_mesh) < 3 or len(clients) < 3:
            raise ValueError("need 3 top reflectors and 3 clients for gadget")
        gadget_reflectors = top_mesh[:3]
        gadget_egresses = clients[:3]
        # Attach each gadget egress *exclusively* to its reflector — in
        # Figure 3 each of d/e/f is the client of exactly one reflector.
        # Alternative session paths would let a reflector keep reaching the
        # other client's egress while the peer reflector flaps, destroying
        # the oscillation.
        for egress in gadget_egresses:
            for neighbor in list(session_net.neighbors(egress)):
                session_net.remove_link(egress, neighbor)
        for reflector, egress in zip(gadget_reflectors, gadget_egresses):
            session_net.add_link(reflector, egress,
                                 label_ab=("l", reflector, egress),
                                 label_ba=("l", egress, reflector),
                                 jitter_s=0.003)
        extra = [c for c in clients if c not in set(gadget_egresses)]
        egresses = gadget_egresses + rng.sample(
            extra, max(0, egress_count - 3))
        # Figure-3 cost structure: each reflector prefers the NEXT
        # reflector's client egress (cost 4) over its own client (cost 10),
        # and finds every other egress (gadget or not) unattractive.
        for i, reflector in enumerate(gadget_reflectors):
            own = gadget_egresses[i]
            nxt = gadget_egresses[(i + 1) % 3]
            for other in egresses:
                overrides[(reflector, other)] = 100
            overrides[(reflector, own)] = 10
            overrides[(reflector, nxt)] = 4
        # Egress routers prefer their own external route.
        for egress in gadget_egresses:
            for other in egresses:
                overrides[(egress, other)] = 0 if other == egress else 60
        gadget_members = gadget_reflectors + gadget_egresses
    else:
        egresses = rng.sample(clients, min(egress_count, len(clients)))

    config = IBGPConfig(
        session_net=session_net,
        reflectors=reflectors,
        levels=level_of,
        egresses=egresses,
        igp_costs=igp_costs,
        overrides=overrides,
        gadget_members=gadget_members,
    )
    # Attach the virtual external destination to every egress.
    for egress in egresses:
        if not session_net.has_link(egress, EXT_DEST):
            session_net.add_link(egress, EXT_DEST,
                                 label_ab=("l", egress, EXT_DEST),
                                 label_ba=("l", EXT_DEST, egress))
    return config
