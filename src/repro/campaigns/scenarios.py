"""Spec → scenario materialization.

Turns a declarative :class:`~repro.campaigns.spec.ScenarioSpec` into the
concrete objects a worker needs: the network, the algebra, the destination
set, the analysis subject for the safety half of the differential oracle,
and the resolved event schedule.  Materialization is a pure function of the
spec — every random draw comes from ``random.Random(spec.seed)`` — so the
same spec always yields the same scenario in any process.

Family → oracle wiring:

* ``gadget`` — an SPP instance (base zoo member, replicated, chained, or
  ranking-perturbed); analyzed directly, executed on its induced network;
* ``caida`` / ``hierarchy`` / ``rocketfuel`` — a generated topology labelled
  for the drawn library algebra; the *algebra* is analyzed (the verdict is
  topology-independent) and the pair is executed;
* ``ibgp`` — a reflection hierarchy with hot-potato selection; analysis
  must follow the paper's Sec. VI-B extraction workflow (run first, extract
  the SPP from logged advertisements, then analyze), so the subject is
  filled in by the oracle after execution;
* ``hlp`` — a domain hierarchy (paper Sec. VI-D) labelled for the
  domain-constrained :class:`~repro.algebra.hlp.HLPCostAlgebra`, so the
  generic backends compute exactly what the HLP engine computes and the
  three-way ``gpv ~ ndlog ~ hlp`` differential is meaningful;
* ``multipath`` — one of the AS/intradomain shapes re-materialized with
  ``top_k > 1`` (Sec. VI-D's top-k propagation); backends advertise and
  the oracle compares k-best route *sets*.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Hashable

from ..algebra.base import RoutingAlgebra
from ..algebra.gadgets import GADGET_ZOO, disagree_chain, replicate
from ..algebra.hlp import HLPCostAlgebra, HLPTauAlgebra
from ..algebra.library import (
    ShortestHopCount,
    ShortestPath,
    gao_rexford_a,
    gao_rexford_b,
    gao_rexford_with_hopcount,
    safe_backup,
    widest_shortest,
)
from ..algebra.secure import SecureAlgebra
from ..algebra.spp import SPPAlgebra, SPPInstance
from ..ndlog.codegen import network_from_spp
from ..net.network import Network
from ..protocols.hlp import DOMAIN_ATTR
from ..topology.caida import caida_like, hierarchy
from ..topology.hlp_topo import hlp_topology
from ..topology.ibgp import EXT_DEST, make_ibgp_config, IGPCostAlgebra
from ..topology.rocketfuel import rocketfuel_like
from .spec import ScenarioSpec

#: Gao-Rexford relationship → safe-backup avoidance level / bandwidth class.
_BACKUP_LEVEL = {"c": 0, "r": 1, "p": 2}
_BANDWIDTH_CLASS = {"c": 1000, "r": 100, "p": 10}


@dataclass
class ResolvedEvent:
    """An event bound to a concrete link of the materialized network.

    ``kind == "hijack"`` binds to a *virtual* link: ``a`` is the attacker,
    ``b`` the hijacked destination (never an actual neighbor of ``a``),
    and ``label`` is the forged origination label the attacker announces
    under — backends inject the origination without any link existing.
    """

    time: float
    kind: str  # "fail" | "perturb" | "hijack"
    a: str
    b: str
    label: Hashable = None  # new per-direction label / forged origin label


@dataclass
class Scenario:
    """Everything one differential-oracle evaluation needs."""

    spec: ScenarioSpec
    network: Network
    algebra: RoutingAlgebra
    destinations: list[str]
    #: Subject of the safety analysis (None ⇒ extract post-run, iBGP style).
    analysis_subject: RoutingAlgebra | SPPInstance | None
    #: Destination whose SPP is extracted after the run (iBGP workflow).
    extract_dest: str | None = None
    log_routes: bool = False
    #: Routes advertised per (neighbor, destination) — the paper's Sec.
    #: VI-D top-k propagation when > 1 (the ``multipath`` family).
    top_k: int = 1
    #: Periodic propagation interval (the paper's "batch and propagate
    #: routes every second"); None ⇒ advertise per change.
    batch_interval: float | None = None
    events: list[ResolvedEvent] = field(default_factory=list)
    #: Compromised node injecting a forged origination (secure-hijack).
    attacker: str | None = None
    #: Destination whose prefix the attacker forges.
    hijack_dest: str | None = None


def materialize(spec: ScenarioSpec) -> Scenario:
    """Build the concrete scenario a spec describes (deterministic)."""
    builder = _BUILDERS.get(spec.family)
    if builder is None:
        raise ValueError(f"unknown scenario family {spec.family!r}")
    scenario = builder(spec)
    scenario.batch_interval = spec.param("batch_interval")
    return scenario


# -- gadget family -----------------------------------------------------------


def build_gadget_instance(spec: ScenarioSpec) -> SPPInstance:
    """The (possibly replicated / perturbed) SPP instance of a gadget spec."""
    rng = random.Random(spec.seed)
    kind = spec.param("gadget", "good")
    if kind == "chain":
        instance = disagree_chain(spec.param("pairs", 2),
                                  spec.param("conflict", 1.0))
    else:
        instance = GADGET_ZOO[kind]()
        copies = spec.param("copies")
        if copies:
            instance = replicate(instance, copies)
    perturb = spec.param("perturb")
    if perturb:
        instance = perturb_rankings(instance, perturb, rng)
    return instance


def perturb_rankings(instance: SPPInstance, probability: float,
                     rng: random.Random) -> SPPInstance:
    """Reshuffle each node's ranking with the given probability.

    The permitted-path *sets* are untouched — only their order changes —
    so the result is a structurally valid SPP instance whose safety verdict
    is genuinely unknown until analyzed.  This is the campaign's source of
    gadgets beyond the hand-written zoo.
    """
    permitted = {}
    for node in sorted(instance.permitted):
        ranked = list(instance.permitted[node])
        if len(ranked) > 1 and rng.random() < probability:
            rng.shuffle(ranked)
        permitted[node] = ranked
    return SPPInstance.build(
        f"{instance.name}-perturbed", instance.destination, permitted,
        extra_edges=[tuple(sorted(edge)) for edge in instance.edges],
        display_names=instance.display_names)


def _materialize_gadget(spec: ScenarioSpec) -> Scenario:
    instance = build_gadget_instance(spec)
    network = network_from_spp(instance, jitter_s=0.003)
    scenario = Scenario(
        spec=spec,
        network=network,
        algebra=SPPAlgebra(instance),
        destinations=[instance.destination],
        analysis_subject=instance,
    )
    scenario.events = _resolve_events(spec, network, scenario.destinations)
    return scenario


# -- AS-level families -------------------------------------------------------


def build_library_algebra(spec: ScenarioSpec) -> RoutingAlgebra:
    """Instantiate the library algebra a topology-family spec names."""
    name = spec.algebra
    if ":" in name:
        # Secure transformer naming: "<variant>-<mode>:<base algebra>".
        prefix, base_name = name.split(":", 1)
        variant, _, mode = prefix.partition("-")
        base = build_library_algebra(replace(spec, algebra=base_name))
        return SecureAlgebra(base, variant=variant, mode=mode,
                             roa=bool(spec.param("roa", True)), name=name)
    if name == "gr-a":
        return gao_rexford_a()
    if name == "gr-b":
        return gao_rexford_b()
    if name == "gr-a-hopcount":
        return gao_rexford_with_hopcount("a")
    if name == "gr-b-hopcount":
        return gao_rexford_with_hopcount("b")
    if name == "safe-backup":
        return safe_backup(levels=4)
    if name == "widest-shortest":
        return widest_shortest(tuple(sorted(_BANDWIDTH_CLASS.values())))
    if name == "hop-count":
        return ShortestHopCount()
    if name == "shortest-path":
        return ShortestPath(spec.param("weights", (1,)))
    raise ValueError(f"unknown campaign algebra {name!r}")


def _relationship_label_fn(algebra_name: str):
    """How a Gao-Rexford relationship becomes this algebra's link label."""
    if algebra_name in ("gr-a", "gr-b"):
        return lambda rel: rel
    if algebra_name in ("gr-a-hopcount", "gr-b-hopcount"):
        return lambda rel: (rel, 1)
    if algebra_name == "safe-backup":
        return lambda rel: _BACKUP_LEVEL[rel]
    if algebra_name == "widest-shortest":
        return lambda rel: (_BANDWIDTH_CLASS[rel], 1)
    if algebra_name == "hop-count":
        return lambda rel: 1
    raise ValueError(f"{algebra_name!r} is not an interdomain algebra")


def _pick_destinations(network: Network, count: int,
                       rng: random.Random) -> list[str]:
    nodes = sorted(network.nodes())
    return rng.sample(nodes, min(count, len(nodes)))


def _materialize_caida(spec: ScenarioSpec) -> Scenario:
    rng = random.Random(spec.seed)
    network = caida_like(
        spec.param("as_count", 12), seed=spec.seed,
        peer_fraction=spec.param("peer_fraction", 0.15),
        label_fn=_relationship_label_fn(spec.algebra),
        jitter_s=0.002)
    return _topology_scenario(spec, network, rng)


def _materialize_hierarchy(spec: ScenarioSpec) -> Scenario:
    rng = random.Random(spec.seed)
    network = hierarchy(
        spec.param("depth", 3), branching=spec.param("branching", 2),
        seed=spec.seed, max_nodes=spec.param("max_nodes", 30),
        label_fn=_relationship_label_fn(spec.algebra),
        jitter_s=0.002)
    return _topology_scenario(spec, network, rng)


def _materialize_rocketfuel(spec: ScenarioSpec) -> Scenario:
    rng = random.Random(spec.seed)
    network = rocketfuel_like(
        spec.param("routers", 10), spec.param("links", 14),
        seed=spec.seed, jitter_s=0.002)
    weights = spec.param("weights", (1,))
    for link in network.links():
        if spec.algebra == "shortest-path":
            label: Hashable = rng.choice(weights)
        else:
            label = 1
        link.labels[(link.a, link.b)] = label
        link.labels[(link.b, link.a)] = label
    return _topology_scenario(spec, network, rng)


def _topology_scenario(spec: ScenarioSpec, network: Network,
                       rng: random.Random) -> Scenario:
    algebra = build_library_algebra(spec)
    scenario = Scenario(
        spec=spec,
        network=network,
        algebra=algebra,
        destinations=_pick_destinations(
            network, spec.param("destinations", 1), rng),
        analysis_subject=algebra,
    )
    scenario.events = _resolve_events(spec, network, scenario.destinations)
    return scenario


# -- HLP family --------------------------------------------------------------


def _materialize_hlp(spec: ScenarioSpec) -> Scenario:
    """HLP domain hierarchy, labelled for the domain-constrained algebra.

    Every directed link label becomes ``(weight, receiver_domain,
    sender_domain)`` so the generic backends (native GPV, generated NDlog)
    compute exactly the metric the HLP engine's link-state + FPV machinery
    does — the property the three-way differential rests on.

    Event resolution is family-specific: failures bind to sorted
    *cross-domain* links (a cross failure can never partition a domain's
    LSA flood), perturbations bind to sorted *intra-domain* links and
    re-weight both directions.
    """
    rng = random.Random(spec.seed)
    # Random cross-link placement can leave a domain unattached on small
    # configurations; step the topology seed deterministically until the
    # generator produces a connected instance (still a pure function of
    # the spec).
    last_error: RuntimeError | None = None
    for attempt in range(32):
        try:
            network = hlp_topology(
                spec.param("domains", 3), spec.param("nodes_per_domain", 5),
                spec.param("cross_links", 8), seed=spec.seed + attempt)
            break
        except RuntimeError as error:
            last_error = error
    else:
        raise RuntimeError(
            f"no connected HLP topology near seed {spec.seed}: {last_error}")
    domain_of = {node: network.node_attrs(node)[DOMAIN_ATTR]
                 for node in network.nodes()}
    for link in network.links():
        da, db = domain_of[link.a], domain_of[link.b]
        link.labels[(link.a, link.b)] = (link.weight, da, db)
        link.labels[(link.b, link.a)] = (link.weight, db, da)
    algebra = HLPCostAlgebra(domains=sorted(set(domain_of.values())))
    scenario = Scenario(
        spec=spec,
        network=network,
        algebra=algebra,
        destinations=_pick_destinations(
            network, spec.param("destinations", 1), rng),
        analysis_subject=algebra,
    )
    scenario.events = _resolve_hlp_events(spec, network, domain_of)
    return scenario


def _resolve_hlp_events(spec: ScenarioSpec, network: Network,
                        domain_of: dict) -> list[ResolvedEvent]:
    by_kind = {"fail": [], "perturb": []}
    for link in sorted(network.links(),
                       key=lambda l: tuple(sorted((l.a, l.b)))):
        cross = domain_of[link.a] != domain_of[link.b]
        by_kind["fail" if cross else "perturb"].append(link)
    resolved = []
    failed: set[frozenset] = set()
    for event in spec.events:
        links = by_kind[event.kind]
        if not links:
            continue
        link = links[event.link_index % len(links)]
        label: Hashable = None
        if event.kind == "fail":
            if link.ends in failed:
                continue
            failed.add(link.ends)
        else:
            domain = domain_of[link.a]
            label = (event.weight, domain, domain)
        resolved.append(ResolvedEvent(
            time=event.time, kind=event.kind, a=link.a, b=link.b,
            label=label))
    return resolved


# -- tau-sweep family --------------------------------------------------------


def _materialize_tau_sweep(spec: ScenarioSpec) -> Scenario:
    """HLP cost-hiding sweep: ⊕ variants over one preference relation.

    An intradomain topology whose links carry positive weights from the
    spec's drawn vocabulary, routed under the finite
    :class:`~repro.algebra.hlp.HLPTauAlgebra` — advertised costs are
    rounded up to multiples of ``tau`` (HLP's cost hiding, paper Sec.
    VI-D) and capped at the family-wide ``max_cost``.  Every ``(tau,
    weights)`` draw changes only the ⊕ table; the algebra is finite and
    not an SPP instance, so the family reaches the analyzer's tier 2,
    and every scenario is batch-admitted.
    """
    rng = random.Random(spec.seed)
    network = rocketfuel_like(
        spec.param("routers", 8), spec.param("links", 16),
        seed=spec.seed, jitter_s=0.002)
    weights = spec.param("weights", (1, 2))
    for link in network.links():
        label: Hashable = rng.choice(weights)
        link.labels[(link.a, link.b)] = label
        link.labels[(link.b, link.a)] = label
    algebra = HLPTauAlgebra(
        tau=spec.param("tau", 0),
        weights=weights,
        max_cost=spec.param("max_cost", 14))
    scenario = Scenario(
        spec=spec,
        network=network,
        algebra=algebra,
        destinations=_pick_destinations(
            network, spec.param("destinations", 1), rng),
        analysis_subject=algebra,
    )
    scenario.events = _resolve_events(spec, network, scenario.destinations)
    return scenario


# -- secure families ---------------------------------------------------------


def resolve_deployment(network: Network, spec: ScenarioSpec) -> set[str]:
    """The set of validation-deploying nodes a spec's draw describes.

    ``"none"``/``"full"`` are the sweep endpoints; ``"random"`` samples
    ``deployment_fraction`` of the nodes from a dedicated rng stream (so
    the bitmap never perturbs destination/label draws), ``"top-degree"``
    deploys the highest-degree nodes first — the tier-1-first adoption
    regime the RPKI measurement literature describes.
    """
    mode = spec.param("deployment", "none")
    if mode == "none":
        return set()
    nodes = sorted(network.nodes())
    if mode == "full":
        return set(nodes)
    fraction = float(spec.param("deployment_fraction", 0.0))
    count = min(len(nodes), max(0, round(fraction * len(nodes))))
    if count == 0:
        return set()
    if mode == "random":
        rng = random.Random(f"{spec.seed}-deployment")
        return set(rng.sample(nodes, count))
    if mode == "top-degree":
        ranked = sorted(
            nodes, key=lambda n: (-len(list(network.neighbors(n))), n))
        return set(ranked[:count])
    raise ValueError(f"unknown deployment mode {mode!r}")


def _forged_base_label(base_name: str) -> Hashable:
    """The base-algebra label the attacker forges its origination under.

    The customer relationship — the most attractive origination the
    wrapped algebra offers — models the attacker announcing the victim
    prefix as its own.
    """
    return _relationship_label_fn(base_name)("c")


def _materialize_secure(spec: ScenarioSpec) -> Scenario:
    """Secure families: lifted labels, deployment bitmap, maybe a hijack.

    The CAIDA-like AS topology is labelled for the *wrapped* algebra
    first, then every directed label is lifted to ``(deploy_bit,
    base_label)`` where the bit says whether the **importing** endpoint
    deployed validation.  A ``hijack`` event resolves to an attacker
    drawn from the destination's non-neighbors (so forged routes are
    identifiable by their path tail at every backend) announcing the
    forged customer origination.
    """
    rng = random.Random(spec.seed)
    base_name = spec.algebra.split(":", 1)[1]
    network = caida_like(
        spec.param("as_count", 12), seed=spec.seed,
        peer_fraction=spec.param("peer_fraction", 0.15),
        label_fn=_relationship_label_fn(base_name),
        jitter_s=0.002)
    algebra = build_library_algebra(spec)
    destinations = _pick_destinations(
        network, spec.param("destinations", 1), rng)
    deployed = resolve_deployment(network, spec)
    for link in network.links():
        for importer, exporter in ((link.a, link.b), (link.b, link.a)):
            link.labels[(importer, exporter)] = (
                1 if importer in deployed else 0,
                link.labels[(importer, exporter)])
    scenario = Scenario(
        spec=spec,
        network=network,
        algebra=algebra,
        destinations=destinations,
        analysis_subject=algebra,
    )
    scenario.events = _resolve_events(spec, network, destinations)
    _resolve_hijacks(spec, network, scenario, base_name)
    return scenario


def _resolve_hijacks(spec: ScenarioSpec, network: Network,
                     scenario: Scenario, base_name: str) -> None:
    """Bind hijack events to a concrete attacker (in-place)."""
    hijacks = [e for e in spec.events if e.kind == "hijack"]
    if not hijacks or not scenario.destinations:
        return
    dest = scenario.destinations[0]
    pool = sorted(node for node in network.nodes()
                  if node != dest and not network.has_link(node, dest))
    if not pool:
        return  # every node neighbors the destination: nowhere to forge from
    label = SecureAlgebra.hijack_label(_forged_base_label(base_name))
    for event in hijacks:
        attacker = pool[(event.attacker_index or 0) % len(pool)]
        scenario.events.append(ResolvedEvent(
            time=event.time, kind="hijack", a=attacker, b=dest,
            label=label))
        scenario.attacker = attacker
        scenario.hijack_dest = dest
    scenario.events.sort(key=lambda e: e.time)


# -- multipath family --------------------------------------------------------


def _materialize_multipath(spec: ScenarioSpec) -> Scenario:
    """Top-k scenario: one of the AS/intradomain shapes plus a ``top_k``."""
    shape = spec.param("shape", "caida")
    builder = _BUILDERS.get(shape)
    if builder is None or shape == "multipath":
        raise ValueError(f"unknown multipath shape {shape!r}")
    scenario = builder(spec)
    scenario.top_k = spec.param("top_k", 2)
    return scenario


# -- iBGP family -------------------------------------------------------------


def _materialize_ibgp(spec: ScenarioSpec) -> Scenario:
    router_net = rocketfuel_like(
        spec.param("routers", 18), spec.param("links", 26), seed=spec.seed)
    config = make_ibgp_config(
        router_net,
        levels=spec.param("levels", 3),
        reflector_count=spec.param("reflector_count", 6),
        egress_count=spec.param("egress_count", 3),
        seed=spec.seed,
        embed_gadget=spec.param("embed_gadget", False))
    return Scenario(
        spec=spec,
        network=config.session_net,
        algebra=IGPCostAlgebra(config),
        destinations=[EXT_DEST],
        analysis_subject=None,       # analyzed via post-run SPP extraction
        extract_dest=EXT_DEST,
        log_routes=True,
    )


# -- event resolution --------------------------------------------------------


def best_path_link_pool(network: Network,
                        destinations: list[str]) -> list:
    """Links on hop-count shortest paths toward any destination.

    The cheap pre-run probe behind adaptive event schedules: a BFS from
    each destination marks every link ``(a, b)`` whose endpoints differ by
    exactly one hop level — precisely the links some node's shortest path
    to that destination crosses, and therefore the links whose failure
    actually perturbs selected best paths.  Deterministic (sorted
    adjacency, sorted output) so specs stay reproducers.
    """
    links = sorted(network.links(), key=lambda l: tuple(sorted((l.a, l.b))))
    adjacency: dict[str, list[str]] = {}
    for link in links:
        adjacency.setdefault(link.a, []).append(link.b)
        adjacency.setdefault(link.b, []).append(link.a)
    for neighbors in adjacency.values():
        neighbors.sort()
    pool = []
    on_tree: set[frozenset] = set()
    for dest in destinations:
        if dest not in adjacency:
            continue
        dist = {dest: 0}
        frontier = [dest]
        while frontier:
            nxt = []
            for node in frontier:
                for neighbor in adjacency[node]:
                    if neighbor not in dist:
                        dist[neighbor] = dist[node] + 1
                        nxt.append(neighbor)
            frontier = nxt
        for link in links:
            da, db = dist.get(link.a), dist.get(link.b)
            if da is None or db is None or abs(da - db) != 1:
                continue
            if link.ends not in on_tree:
                on_tree.add(link.ends)
                pool.append(link)
    return pool


def _resolve_events(spec: ScenarioSpec, network: Network,
                    destinations: list[str] | None = None
                    ) -> list[ResolvedEvent]:
    """Bind link indices to concrete links (sorted order, modulo count).

    With the ``adaptive_events`` spec param, ``fail`` events draw from the
    best-path link pool of :func:`best_path_link_pool` instead of the full
    sorted link list — the probability that a drawn failure actually hits
    a selected best path rises from ``|tree|/|links|`` to ~1 — while
    ``perturb`` events and non-adaptive specs keep the uniform binding.
    """
    links = sorted(network.links(), key=lambda l: tuple(sorted((l.a, l.b))))
    if not links:
        return []
    fail_pool = links
    if spec.param("adaptive_events") and destinations:
        adaptive = best_path_link_pool(network, destinations)
        if adaptive:
            fail_pool = adaptive
    resolved = []
    failed: set[frozenset] = set()
    for event in spec.events:
        if event.kind == "hijack":
            continue  # bound to an attacker node, not a link (_resolve_hijacks)
        if event.kind == "fail":
            link = fail_pool[event.link_index % len(fail_pool)]
            if link.ends in failed:
                continue  # one failure per link is enough
            failed.add(link.ends)
            label: Hashable = None
        else:
            link = links[event.link_index % len(links)]
            if spec.algebra != "shortest-path":
                continue  # metric perturbation only has meaning on weights
            label = event.weight
        resolved.append(ResolvedEvent(
            time=event.time, kind=event.kind, a=link.a, b=link.b,
            label=label))
    return resolved


_BUILDERS = {
    "gadget": _materialize_gadget,
    "caida": _materialize_caida,
    "hierarchy": _materialize_hierarchy,
    "rocketfuel": _materialize_rocketfuel,
    "ibgp": _materialize_ibgp,
    "hlp": _materialize_hlp,
    "multipath": _materialize_multipath,
    "tau-sweep": _materialize_tau_sweep,
    "secure-rov": _materialize_secure,
    "secure-hijack": _materialize_secure,
}
