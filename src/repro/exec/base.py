"""Execution-backend contract for differential campaigns.

FSR has two operational halves that must agree: the *native* GPV engine
(:mod:`repro.protocols.gpv`) and the *generated* NDlog program executed on
the NDlog runtime (:mod:`repro.ndlog`) — the paper's actual implementation
path.  An :class:`ExecutionBackend` abstracts "run this scenario and tell
me what the routing system did" so the campaign oracle can execute the same
seeded scenario on N independent implementations and cross-check them
pairwise.

The lifecycle is two calls:

1. ``backend.prepare(scenario, seed=...)`` builds an
   :class:`ExecutionSession` — engine state wired to a fresh seeded
   :class:`~repro.net.simulator.Simulator` (exposed as ``session.sim``)
   with the scenario's event schedule already on its timeline.
   Scheduling is the last step of building the session, at sim time 0,
   so events mean the same thing to every backend: every backend
   executes the *same* pre-scheduled timeline;
2. ``session.run(until=..., max_events=...)`` drains the simulator and
   returns an :class:`ExecutionOutcome`: converged/diverged status, the
   final best-route table, and message/byte statistics.

That lifecycle is the whole scalar contract.  The vectorized
:class:`~repro.exec.batch.BatchBackend` does not implement it — it has no
simulator, no timeline and no ``prepare``: its own contract is
``supports(scenario)`` (admission, returning the compiled problem) →
``prepare_batch(problems)`` → ``run()``, many scenarios per call, ending
in the same :class:`ExecutionOutcome`.

Backends never see campaign types: a "scenario" is anything with
``network`` / ``algebra`` / ``destinations`` / ``events`` attributes,
and an "event" is anything with ``kind`` / ``a`` / ``b`` / ``label`` /
``time`` — so the layer has no import cycle with :mod:`repro.campaigns`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..algebra.base import RoutingAlgebra
from ..net.simulator import Simulator, StopReason

if TYPE_CHECKING:  # only for annotations; no runtime campaign dependency
    from ..campaigns.scenarios import ResolvedEvent, Scenario


@dataclass
class ExecutionOutcome:
    """What one backend did with one scenario (picklable, worker → parent).

    ``routes`` / ``sigs`` map ``(node, dest)`` to the selected best path /
    signature (``None`` where the node holds no route) — the raw material
    for cross-backend route-table comparison.
    """

    backend: str
    converged: bool
    stop_reason: str
    messages: int = 0
    bytes_sent: int = 0
    sim_time_s: float = 0.0
    routes: dict = field(default_factory=dict)
    sigs: dict = field(default_factory=dict)
    #: Multipath outcomes only (``top_k > 1``): ``(node, dest)`` → ranked
    #: tuple of selected ``(sig, path)`` routes, best first, capped at k.
    route_sets: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-safe rendering (route tables are summarized, not dumped)."""
        held = sum(1 for path in self.routes.values() if path is not None)
        record = {
            "backend": self.backend,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "messages": self.messages,
            "bytes_sent": self.bytes_sent,
            "sim_time_s": self.sim_time_s,
            "routes_held": held,
            "route_pairs": len(self.routes),
        }
        if self.route_sets:
            record["multipath_routes"] = sum(
                len(routes) for routes in self.route_sets.values())
        return record


class ExecutionSession(ABC):
    """One prepared scenario on one backend, ready to run.

    Shared by every scalar session: the scenario's ``algebra`` /
    ``destinations`` / ``top_k``, ``network`` (the simulator's, owned by
    this session — backends must not share a mutable network), the event
    dispatch, and the rendering of routes into an outcome.  The run's two
    logs are ``None`` unless a caller sets a list between ``prepare`` and
    ``run``: with ``sim.stats.route_log`` a path-vector engine appends each
    accepted non-φ route as ``(node, dest, sig, path)``, with
    ``sim.stats.send_log`` the simulator appends each send's
    ``(time, size)``.

    A concrete session wires its engine in :meth:`_wire`, provides the
    event operations its scenarios need — ``inject_route(node, dest,
    label)`` (hijack), ``fail_link(a, b)``, ``perturb_link(a, b, label)``
    — and the two lookups: :meth:`_selected_routes`, and
    ``_ranked_routes(node)`` (``dest`` → candidate routes best first) if
    it runs top-k scenarios.
    """

    sim: Simulator

    def __init__(self, scenario: "Scenario", *, seed: int):
        self.algebra: RoutingAlgebra = scenario.algebra
        self.destinations = list(scenario.destinations)
        self.top_k = getattr(scenario, "top_k", 1)
        self.sim = self._wire(scenario, seed)
        for event in scenario.events:
            self.sim.at(event.time, lambda e=event: self.apply_event(e))

    @property
    def network(self):
        return self.sim.network

    @abstractmethod
    def _wire(self, scenario: "Scenario", seed: int) -> Simulator:
        """Build the engine over the scenario; return its simulator."""

    @abstractmethod
    def _selected_routes(self, node: str) -> dict:
        """``dest`` → the node's selected ``(sig, path)`` (absent or
        ``None`` where it holds no route)."""

    # ``run`` (and each backend's ``prepare``) stays on the concrete class:
    # the benchmark's tracing shims wrap ``vars(cls)[name]``.
    @abstractmethod
    def run(self, until: float | None = None,
            max_events: int | None = None) -> ExecutionOutcome:
        """Start the protocol, drain the simulator, snapshot the outcome."""

    def apply_event(self, event: "ResolvedEvent") -> None:
        """Apply one resolved topology event at the current sim time."""
        if event.kind == "hijack":
            # The attacker-destination pair is never a link — the forged
            # origination is injected before any link-existence guard.
            self.inject_route(event.a, event.b, event.label)
        elif not self.network.has_link(event.a, event.b):
            return  # already failed (or never materialized)
        elif event.kind == "fail":
            self.fail_link(event.a, event.b)
        elif event.kind == "perturb":
            self.perturb_link(event.a, event.b, event.label)

    # -- rendering -------------------------------------------------------------

    def _outcome(self, name: str, reason: str) -> ExecutionOutcome:
        routes, sigs = self.route_table()
        return ExecutionOutcome(
            backend=name,
            converged=reason == StopReason.QUIESCENT,
            stop_reason=reason,
            messages=self.sim.stats.messages_sent,
            bytes_sent=self.sim.stats.bytes_sent_total,
            sim_time_s=self.sim.now,
            routes=routes,
            sigs=sigs,
            route_sets=self.route_sets(),
        )

    def route_table(self) -> tuple[dict, dict]:
        """``(routes, sigs)`` keyed ``(node, dest)`` over all pairs."""
        routes: dict = {}
        sigs: dict = {}
        for node in self.network.nodes():
            selected = self._selected_routes(node)
            for dest in self.destinations:
                if node == dest:
                    continue
                route = selected.get(dest)
                routes[(node, dest)] = route[1] if route else None
                sigs[(node, dest)] = route[0] if route else None
        return routes, sigs

    def route_sets(self) -> dict:
        """Top-k selected route sets per ``(node, dest)`` (multipath only).

        Each pair's ranked pool cut at k; a pair with no route is left
        out.  Single-path sessions return ``{}`` — the best-route table
        already carries everything comparable.
        """
        if self.top_k < 2:
            return {}
        sets: dict = {}
        for node in self.network.nodes():
            ranked = self._ranked_routes(node)
            for dest in self.destinations:
                pool = ranked.get(dest)
                if pool and node != dest:
                    sets[(node, dest)] = tuple(pool[:self.top_k])
        return sets


class ExecutionBackend(ABC):
    """Factory for :class:`ExecutionSession`s; stateless and reusable."""

    #: Registry / CLI name (``--backends gpv,ndlog,hlp,batch``).
    name: str = "backend"

    def supports(self, scenario: "Scenario") -> bool:
        """Can this backend execute the scenario?

        The generic backends run any algebra over any network, so the
        default is True.  Protocol-specific backends (HLP needs
        domain-annotated topologies and the HLP cost algebra for its
        outcome to be comparable) override this; the campaign oracle skips
        non-supporting backends per scenario, so one ``--backends`` list
        can span heterogeneous families.
        """
        return True

    @abstractmethod
    def prepare(self, scenario: "Scenario", *,
                seed: int = 0) -> ExecutionSession:
        """Build a session for the scenario (which this session then owns),
        its events scheduled."""


def route_mismatches(algebra: RoutingAlgebra, first: ExecutionOutcome,
                     second: ExecutionOutcome,
                     limit: int = 8) -> list[str]:
    """Where two converged outcomes disagree, up to algebra-equivalence.

    Implementations may legitimately settle on *different but equally
    preferred* routes when the algebra declares ties (stickiness makes the
    pick arrival-order dependent), so two selections only count as a
    mismatch when one node holds a route the other lacks, or the selected
    signatures are not preference-EQUAL under the algebra.
    """
    mismatches: list[str] = []
    rank_key = algebra.rank_key
    for key in sorted(set(first.routes) | set(second.routes)):
        node, dest = key
        p1, p2 = first.routes.get(key), second.routes.get(key)
        if (p1 is None) != (p2 is None):
            mismatches.append(
                f"{node}->{dest}: {first.backend}={p1} {second.backend}={p2}")
        elif p1 is not None and p1 != p2:
            s1, s2 = first.sigs.get(key), second.sigs.get(key)
            if s1 is None or s2 is None:
                # A backend reported a route without its signature: the
                # tables cannot be proven equivalent, so report a mismatch
                # instead of crashing the oracle on the missing key.
                mismatches.append(
                    f"{node}->{dest}: signature missing "
                    f"{first.backend}={p1}({s1}) {second.backend}={p2}({s2})")
            elif _apart(rank_key(s1), rank_key(s2)):
                mismatches.append(
                    f"{node}->{dest}: {first.backend}={p1}({s1}) "
                    f"{second.backend}={p2}({s2})")
        if len(mismatches) >= limit:
            break
    return mismatches


def route_set_mismatches(algebra: RoutingAlgebra, first: ExecutionOutcome,
                         second: ExecutionOutcome,
                         limit: int = 8) -> list[str]:
    """Where two converged multipath outcomes' k-best *sets* disagree.

    Strict rank-wise comparison: both backends must hold the same number
    of routes per ``(node, dest)`` and the signatures at each rank must
    be preference-EQUAL (paths may differ — ties are real, and stickiness
    makes the tied pick arrival-order dependent).  This flags dropped or
    extra k-best entries, wrong ranking order, and strictly-worse
    alternates alike.  Empirically the stable k-best sets match at this
    granularity across every campaign family (ordered per-link transport
    plus tie-refined algebras make the stable state unique); if a
    scenario ever surfaces a genuine tie-margin ambiguity, the oracle
    should flag it for human eyes rather than silently absorb it.
    """
    mismatches: list[str] = []
    rank_key = algebra.rank_key
    for key in sorted(set(first.route_sets) | set(second.route_sets)):
        node, dest = key
        routes1 = first.route_sets.get(key, ())
        routes2 = second.route_sets.get(key, ())
        if len(routes1) != len(routes2):
            mismatches.append(
                f"{node}->{dest}: {first.backend} holds {len(routes1)} "
                f"routes, {second.backend} holds {len(routes2)}")
        elif any(_apart(rank_key(sig1), rank_key(sig2))
                 for (sig1, _p1), (sig2, _p2) in zip(routes1, routes2)):
            render1 = [str(sig) for sig, _path in routes1]
            render2 = [str(sig) for sig, _path in routes2]
            mismatches.append(
                f"{node}->{dest}: k-best sets diverge "
                f"{first.backend}={render1} {second.backend}={render2}")
        if len(mismatches) >= limit:
            break
    return mismatches


def _apart(k1, k2) -> bool:
    """Do two rank keys say different preferences (not a tie)?"""
    return k1 < k2 or k2 < k1
