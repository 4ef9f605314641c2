"""Execution-backend contract for differential campaigns.

FSR has two operational halves that must agree: the *native* GPV engine
(:mod:`repro.protocols.gpv`) and the *generated* NDlog program executed on
the NDlog runtime (:mod:`repro.ndlog`) — the paper's actual implementation
path.  An :class:`ExecutionBackend` abstracts "run this scenario and tell
me what the routing system did" so the campaign oracle can execute the same
seeded scenario on N independent implementations and cross-check them
pairwise.

The lifecycle is three calls:

1. ``backend.prepare(scenario, seed=..., log_routes=...)`` builds an
   :class:`ExecutionSession` — engine state wired to a fresh seeded
   :class:`~repro.net.simulator.Simulator` (exposed as ``session.sim``);
2. the caller schedules the spec's perturbation schedule on ``session.sim``
   via :func:`schedule_events` / ``session.apply_event`` — events mean the
   same thing to every backend because every backend executes the *same*
   pre-scheduled simulator timeline;
3. ``session.run(until=..., max_events=...)`` drains the simulator and
   returns an :class:`ExecutionOutcome`: converged/diverged status, the
   final best-route table, and message/byte statistics.

That lifecycle is the whole scalar contract.  The vectorized
:class:`~repro.exec.batch.BatchBackend` does not implement it — it has no
simulator, no timeline and no ``prepare``: its own contract is
``supports(scenario)`` (admission, returning the compiled problem) →
``prepare_batch(problems)`` → ``run()``, many scenarios per call, ending
in the same :class:`ExecutionOutcome`.

Backends never see campaign types: a "scenario" is anything with
``network`` / ``algebra`` / ``destinations`` attributes, and an "event" is
anything with ``kind`` / ``a`` / ``b`` / ``label`` / ``time`` — so the
layer has no import cycle with :mod:`repro.campaigns`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from ..algebra.base import Pref, RoutingAlgebra
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

    Concrete sessions expose ``sim`` (the seeded simulator driving the
    run), ``network`` / ``algebra`` / ``destinations`` (the scenario
    artifacts, owned by this session — backends must not share a mutable
    network), and ``route_log`` (accepted non-φ routes as
    ``(node, dest, sig, path)``, populated when prepared with
    ``log_routes=True`` — the input to the paper's Sec. VI-B SPP
    extraction).
    """

    sim: Simulator
    algebra: RoutingAlgebra
    destinations: list
    route_log: list

    @property
    def network(self):
        return self.sim.network

    @abstractmethod
    def apply_event(self, event: "ResolvedEvent") -> None:
        """Apply one resolved topology event at the current sim time."""

    @abstractmethod
    def run(self, until: float | None = None,
            max_events: int | None = None) -> ExecutionOutcome:
        """Start the protocol, drain the simulator, snapshot the outcome."""

    # -- shared helpers -------------------------------------------------------

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

    @abstractmethod
    def route_table(self) -> tuple[dict, dict]:
        """``(routes, sigs)`` keyed ``(node, dest)`` over all pairs."""

    def route_sets(self) -> dict:
        """Top-k selected route sets per ``(node, dest)`` (multipath only).

        Single-path sessions return ``{}`` — the best-route table already
        carries everything comparable.
        """
        return {}


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
    def prepare(self, scenario: "Scenario", *, seed: int = 0,
                log_routes: bool = False) -> ExecutionSession:
        """Build a session for the scenario (which this session then owns)."""


def schedule_events(session: ExecutionSession,
                    events: Iterable["ResolvedEvent"]) -> None:
    """Pre-schedule a spec's event schedule on the session's simulator.

    Scheduling happens *before* the run, at sim time 0, so the failure /
    perturbation timeline is identical for every backend evaluating the
    same spec — the property the differential oracle depends on.
    """
    for event in events:
        session.sim.at(event.time, lambda e=event: session.apply_event(e))


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
            elif algebra.preference(s1, s2) is not Pref.EQUAL:
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
    for key in sorted(set(first.route_sets) | set(second.route_sets)):
        node, dest = key
        routes1 = first.route_sets.get(key, ())
        routes2 = second.route_sets.get(key, ())
        if len(routes1) != len(routes2):
            mismatches.append(
                f"{node}->{dest}: {first.backend} holds {len(routes1)} "
                f"routes, {second.backend} holds {len(routes2)}")
        elif any(algebra.preference(sig1, sig2) is not Pref.EQUAL
                 for (sig1, _p1), (sig2, _p2) in zip(routes1, routes2)):
            render1 = [str(sig) for sig, _path in routes1]
            render2 = [str(sig) for sig, _path in routes2]
            mismatches.append(
                f"{node}->{dest}: k-best sets diverge "
                f"{first.backend}={render1} {second.backend}={render2}")
        if len(mismatches) >= limit:
            break
    return mismatches
