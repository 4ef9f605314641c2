"""Figure 4: convergence time vs. length of the longest customer-provider
chain (paper Sec. VI-A).

The workload: Gao-Rexford guideline A composed with shortest hop-count
(provably safe by the composition rule), deployed on the :data:`BACKEND`
engine over hierarchies of increasing depth, route batching every second,
100 Mbps / 10 ms links.
For a chain of length d the theoretical worst case is 2·(d+1) phases
(Sami-Schapira-Zohar), i.e. ``2 (d+1) batch_interval`` seconds; the
measured curve should grow linearly and sit *below* the bound (leaf
customers are multihomed and reach providers early, paper's observation).

``profile='testbed'`` mirrors the deployment-mode validation: identical
logic over testbed-like links (GbE latency, small jitter); the two curves
should track each other closely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..algebra.library import gao_rexford_with_hopcount
from ..campaigns.scenarios import Scenario
from ..exec import get_backend
from ..topology.caida import hierarchy, longest_customer_provider_chain, product_label

BACKEND = "gpv"

#: Link profiles: (latency_s, jitter_s).  Simulation mode follows the
#: paper's 10 ms LAN-like links; testbed mode models the 32-machine GbE
#: cluster (sub-millisecond latency, scheduling jitter).
PROFILES = {
    "sim": (0.010, 0.0),
    "testbed": (0.0002, 0.001),
}


@dataclass
class ConvergencePoint:
    """One x/y point of Figure 4."""

    depth: int
    nodes: int
    links: int
    convergence_s: float
    worst_case_s: float
    messages: int
    converged: bool
    batch_interval: float = 1.0

    @property
    def phases(self) -> int:
        """Rounds of route advertisements used (the bound's unit)."""
        import math
        if self.batch_interval <= 0:
            return 0
        return math.ceil(self.convergence_s / self.batch_interval)

    @property
    def worst_case_phases(self) -> int:
        return 2 * (self.depth + 1)


def _prepare(backend: str, network, algebra, destinations, *, seed: int,
             batch_interval: float | None = None):
    """A ``backend`` session over a scenario with no spec or analysis subject."""
    scenario = Scenario(spec=None, network=network, algebra=algebra,
                        destinations=destinations, analysis_subject=None,
                        batch_interval=batch_interval)
    return get_backend(backend).prepare(scenario, seed=seed)


def worst_case_bound(depth: int, batch_interval: float = 1.0) -> float:
    """Sami-Schapira-Zohar bound: 2 (d+1) phases."""
    return 2 * (depth + 1) * batch_interval


def run_depth(depth: int, *, seed: int = 0, profile: str = "sim",
              batch_interval: float = 1.0,
              max_nodes: int = 160,
              until: float = 300.0) -> ConvergencePoint:
    """Run the Fig. 4 workload for one hierarchy depth."""
    latency, jitter = PROFILES[profile]
    network = hierarchy(depth, seed=seed, label_fn=product_label,
                        max_nodes=max_nodes, latency_s=latency,
                        jitter_s=jitter)
    actual_depth = longest_customer_provider_chain(network)
    session = _prepare(BACKEND, network, gao_rexford_with_hopcount(),
                       network.nodes(), seed=seed,
                       batch_interval=batch_interval)
    outcome = session.run(until=until, max_events=20_000_000)
    stats = session.sim.stats
    return ConvergencePoint(
        depth=actual_depth,
        nodes=network.node_count(),
        links=network.link_count(),
        convergence_s=stats.convergence_time,
        worst_case_s=worst_case_bound(actual_depth, batch_interval),
        messages=stats.messages_sent,
        converged=outcome.converged and None not in outcome.routes.values(),
        batch_interval=batch_interval,
    )


def figure4_sweep(depths: Sequence[int] = tuple(range(3, 17)), *,
                  seed: int = 0, profile: str = "sim",
                  batch_interval: float = 1.0,
                  max_nodes: int = 160) -> list[ConvergencePoint]:
    """The full Fig. 4 series (one point per chain depth)."""
    return [run_depth(d, seed=seed + d, profile=profile,
                      batch_interval=batch_interval, max_nodes=max_nodes)
            for d in depths]


def figure4_from_caida(*, as_count: int = 1500, seed: int = 2,
                       depths: Sequence[int] = tuple(range(3, 17)),
                       batch_interval: float = 1.0,
                       max_cone_nodes: int = 220,
                       until: float = 300.0) -> list[ConvergencePoint]:
    """Fig. 4 via the paper's own methodology.

    Generates one large CAIDA-like AS graph, prunes stubs, extracts the
    customer/peer cone of candidate roots, buckets cones by their longest
    customer-provider chain and runs the composed Gao-Rexford ⊗ hop-count
    policy on one cone per realized depth.  Cone depth coverage is
    best-effort (deep cones in scale-free graphs are huge); the
    deterministic :func:`figure4_sweep` covers the full 3-16 range.
    """
    from ..topology.caida import caida_like, cones_by_depth

    graph = caida_like(as_count, seed=seed, label_fn=product_label)
    cones = cones_by_depth(graph, list(depths), max_nodes=max_cone_nodes,
                           seed=seed)
    points: list[ConvergencePoint] = []
    for depth in sorted(cones):
        cone = cones[depth]
        session = _prepare(BACKEND, cone, gao_rexford_with_hopcount(),
                           cone.nodes(), seed=seed,
                           batch_interval=batch_interval)
        outcome = session.run(until=until, max_events=20_000_000)
        stats = session.sim.stats
        points.append(ConvergencePoint(
            depth=depth,
            nodes=cone.node_count(),
            links=cone.link_count(),
            convergence_s=stats.convergence_time,
            worst_case_s=worst_case_bound(depth, batch_interval),
            messages=stats.messages_sent,
            # Cones may contain policy-unreachable pairs (peer-only
            # joins), so quiescence — not all-pairs reachability — is the
            # convergence criterion here.
            converged=outcome.converged,
            batch_interval=batch_interval,
        ))
    return points


def format_series(points: Iterable[ConvergencePoint],
                  label: str = "CAIDA-Sim") -> str:
    """Render a series the way the paper's figure reads."""
    lines = [f"# {label}",
             f"{'chain':>5} {'nodes':>6} {'conv(s)':>9} {'bound(s)':>9} "
             f"{'phases':>7} {'bound':>6} {'messages':>9} {'ok':>3}"]
    for p in points:
        lines.append(f"{p.depth:>5} {p.nodes:>6} {p.convergence_s:>9.2f} "
                     f"{p.worst_case_s:>9.1f} {p.phases:>7} "
                     f"{p.worst_case_phases:>6} {p.messages:>9} "
                     f"{'y' if p.converged else 'n':>3}")
    return "\n".join(lines)
