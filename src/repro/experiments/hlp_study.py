"""Figure 6: alternative routing mechanisms — PV vs HLP vs HLP-CH
(paper Sec. VI-D).

The 10-domain × 20-node topology with 84 cross-domain links; every node is
a destination.  The paper reports HLP converging faster than PV (0.35 s vs
0.4 s) with lower per-node communication (1.09 MB vs 1.75 MB), and cost
hiding (threshold 5) cutting HLP's cost further (0.59 MB).  We reproduce
the *ordering and rough factors*: HLP beats PV on both axes, HLP-CH beats
HLP on bytes.  PV runs on the :data:`BACKEND` engine, HLP on HLPEngine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..algebra.library import ShortestPath
from ..net.network import Network
from ..net.stats import BandwidthPoint
from ..protocols.hlp import HLPEngine
from ..topology.hlp_topo import hlp_topology
from .convergence import _prepare

BACKEND = "gpv"


@dataclass
class MechanismResult:
    """One protocol's Fig. 6 measurements."""

    mechanism: str
    converged: bool
    convergence_s: float
    messages: int
    per_node_mb: float
    bandwidth: list[BandwidthPoint] = field(default_factory=list)


def _measure(name: str, engine, node_count: int, *, until: float,
             bin_s: float) -> MechanismResult:
    stats = engine.sim.stats
    stats.send_log = []  # the bandwidth series reads it
    ran = engine.run(until=until, max_events=20_000_000)
    if isinstance(engine, HLPEngine):
        converged = ran == "quiescent" and engine.converged_everywhere()
    else:
        converged = ran.converged and None not in ran.routes.values()
    return MechanismResult(
        mechanism=name,
        converged=converged,
        convergence_s=stats.convergence_time,
        messages=stats.messages_sent,
        per_node_mb=stats.per_node_megabytes(node_count),
        bandwidth=stats.bandwidth_series(node_count, bin_s=bin_s),
    )


def _weight_labelled(topology: Network) -> Network:
    """Copy of the topology whose directed labels are the link weights."""
    copy = Network(name=topology.name + "-pv")
    for node in topology.nodes():
        copy.add_node(node, **topology.node_attrs(node))
    for link in topology.links():
        copy.add_link(link.a, link.b, bandwidth_bps=link.bandwidth_bps,
                      latency_s=link.latency_s, jitter_s=link.jitter_s,
                      weight=link.weight, label_ab=link.weight,
                      label_ba=link.weight, **link.attrs)
    return copy


def _engine(mechanism: str, topology: Network, *, seed: int,
            cost_hiding_threshold: int):
    """A fresh run of one Fig. 6 mechanism (PV, HLP or HLP-CH)."""
    if mechanism == "PV":
        # The baseline path-vector routes on the same weighted metric as
        # HLP but carries full router-level paths — no hierarchy, no
        # fragment hiding.
        net = _weight_labelled(topology)
        weights = sorted({link.weight for link in net.links()})
        return _prepare(BACKEND, net, ShortestPath(weights), net.nodes(),
                        seed=seed)
    if mechanism == "HLP":
        return HLPEngine(topology, seed=seed)
    if mechanism == "HLP-CH":
        return HLPEngine(topology, seed=seed,
                         cost_hiding_threshold=cost_hiding_threshold)
    raise ValueError(f"unknown mechanism {mechanism!r}")


def figure6_study(*, seed: int = 0,
                  domains: int = 10,
                  nodes_per_domain: int = 20,
                  cross_links: int = 84,
                  cost_hiding_threshold: int = 5,
                  until: float = 60.0,
                  bin_s: float = 0.05,
                  mechanisms: Sequence[str] = ("PV", "HLP", "HLP-CH"),
                  ) -> list[MechanismResult]:
    """Run the requested mechanisms on one shared topology."""
    topology = hlp_topology(domains, nodes_per_domain, cross_links,
                            seed=seed)
    node_count = topology.node_count()
    results: list[MechanismResult] = []
    for mechanism in mechanisms:
        engine = _engine(mechanism, topology, seed=seed,
                         cost_hiding_threshold=cost_hiding_threshold)
        results.append(_measure(mechanism, engine, node_count,
                                until=until, bin_s=bin_s))
    return results


@dataclass
class PerturbationResult:
    """Messages caused by post-convergence intra-domain cost changes."""

    mechanism: str
    perturbations: int
    messages: int
    megabytes: float
    reconverged: bool


def perturbation_study(*, seed: int = 0,
                       domains: int = 10,
                       nodes_per_domain: int = 20,
                       cross_links: int = 84,
                       cost_hiding_threshold: int = 5,
                       perturbations: int = 20,
                       settle_s: float = 5.0,
                       mechanisms: Sequence[str] = ("PV", "HLP", "HLP-CH"),
                       ) -> list[PerturbationResult]:
    """The regime cost hiding is designed for (HLP paper's motivation).

    Converge cold, then apply small (±1..3) intra-domain weight changes
    and count only the messages they trigger.  HLP contains the churn to
    the affected domain's LSA flood plus over-threshold FPV refreshes;
    HLP-CH suppresses most cross-domain refreshes entirely; PV re-explores
    router-level paths globally.
    """
    import random

    reference = hlp_topology(domains, nodes_per_domain, cross_links,
                             seed=seed)
    rng = random.Random(seed + 99)
    intra_links = [(link.a, link.b, link.weight)
                   for link in reference.links()
                   if link.labels.get((link.a, link.b)) != ("r", 1)]
    schedule = []
    for _ in range(perturbations):
        a, b, weight = rng.choice(intra_links)
        delta = rng.choice([-3, -2, -1, 1, 2, 3])
        schedule.append((a, b, max(1, weight + delta)))

    results: list[PerturbationResult] = []
    for mechanism in mechanisms:
        # Each mechanism gets a fresh copy of the topology: perturbations
        # mutate link weights in place.
        topology = hlp_topology(domains, nodes_per_domain, cross_links,
                                seed=seed)
        engine = _engine(mechanism, topology, seed=seed,
                         cost_hiding_threshold=cost_hiding_threshold)
        engine.run(until=settle_s, max_events=20_000_000)
        base_msgs = engine.sim.stats.messages_sent
        base_bytes = engine.sim.stats.bytes_sent_total
        reason = "quiescent"
        for a, b, new_weight in schedule:
            engine.perturb_link(a, b, new_weight)
            reason = engine.sim.run(until=engine.sim.now + settle_s,
                                    max_events=20_000_000)
        results.append(PerturbationResult(
            mechanism=mechanism,
            perturbations=perturbations,
            messages=engine.sim.stats.messages_sent - base_msgs,
            megabytes=(engine.sim.stats.bytes_sent_total - base_bytes) / 1e6,
            reconverged=(reason == "quiescent"),
        ))
    return results


def threshold_sweep(thresholds: Sequence[int] = (0, 2, 5, 10, 20), *,
                    seed: int = 0, domains: int = 6,
                    nodes_per_domain: int = 12,
                    cross_links: int = 40,
                    until: float = 60.0) -> list[MechanismResult]:
    """Ablation: how the cost-hiding threshold trades messages for staleness."""
    topology = hlp_topology(domains, nodes_per_domain, cross_links,
                            seed=seed)
    node_count = topology.node_count()
    out = []
    for threshold in thresholds:
        engine = HLPEngine(topology, seed=seed,
                           cost_hiding_threshold=threshold)
        out.append(_measure(f"HLP-CH({threshold})", engine, node_count,
                            until=until, bin_s=0.05))
    return out


def format_figure6(results: Sequence[MechanismResult]) -> str:
    lines = ["Figure 6 — mechanism comparison",
             f"{'mech':>10} {'conv(s)':>9} {'msgs':>9} {'MB/node':>9} {'ok':>3}"]
    for r in results:
        lines.append(f"{r.mechanism:>10} {r.convergence_s:>9.3f} "
                     f"{r.messages:>9} {r.per_node_mb:>9.3f} "
                     f"{'y' if r.converged else 'n':>3}")
    return "\n".join(lines)
