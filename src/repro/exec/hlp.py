"""HLP execution backend (paper Sec. VI-D as a third implementation).

Wraps :class:`~repro.protocols.hlp.HLPEngine` — hybrid link-state /
fragmented-path-vector routing over a domain-annotated topology — behind
the :class:`ExecutionBackend` contract, so campaigns can cross-check a
*mechanistically different* implementation against the native GPV engine
and the generated NDlog program.

What makes the three comparable is the algebra: HLP-family scenarios label
their links for :class:`~repro.algebra.hlp.HLPCostAlgebra` (summed weights
under domain-granularity loop prevention), which is precisely the metric
HLP's link-state + FPV machinery computes.  This session renders HLP's
routing state in that algebra's signature vocabulary — ``(cost, dpath)``
per ``(node, destination)`` — and the oracle's preference-equality
comparison does the rest: equal costs agree, regardless of which concrete
(router- or domain-level) path each implementation settled on.

The paths this backend reports are *domain-granular* (HLP's fragmented
path vector intentionally hides router-level detail), so cross-backend
route comparison virtually always falls through to signature equality —
which is the point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..algebra.hlp import HLPCostAlgebra
from ..net.simulator import Simulator
from ..protocols.hlp import HLPEngine
from .base import ExecutionBackend, ExecutionOutcome, ExecutionSession

if TYPE_CHECKING:
    from ..campaigns.scenarios import Scenario


class HLPSession(ExecutionSession):
    """A prepared :class:`HLPEngine` run.

    HLP's fragmented adverts carry no router-level paths, so it appends
    nothing to the collector's ``route_log``.
    """

    def _wire(self, scenario: "Scenario", seed: int) -> Simulator:
        if not isinstance(scenario.algebra, HLPCostAlgebra):
            raise ValueError(
                "the HLP backend executes HLP-cost scenarios only "
                f"(got algebra {scenario.algebra.name!r})")
        self.engine = HLPEngine(scenario.network, seed=seed)
        return self.engine.sim

    def fail_link(self, a: str, b: str) -> None:
        self.engine.fail_link(a, b)

    def perturb_link(self, a: str, b: str, label) -> None:
        # HLP-family perturbations re-weight intra-domain links; the
        # resolved label is the algebra triple (weight, domain, domain).
        self.engine.perturb_link(a, b, label[0])

    def run(self, until: float | None = None,
            max_events: int | None = None) -> ExecutionOutcome:
        reason = self.engine.run(until=until, max_events=max_events)
        return self._outcome(HLPBackend.name, reason)

    def _selected_routes(self, node: str) -> dict:
        return {dest: self._route(node, dest)
                for dest in self.destinations if dest != node}

    def _route(self, node: str, dest: str) -> tuple | None:
        """``(sig, path)`` of HLP's current route in algebra vocabulary."""
        engine = self.engine
        cost = engine.route_cost(node, dest)
        if cost is None:
            return None
        state = engine._states[node]
        if engine._domain(dest) == state.domain:
            return (cost, (state.domain,)), (node, dest)
        _border_cost, dpath, border = state.best_ext[dest]
        path = (node, dest) if border == node else (node, border, dest)
        return (cost, tuple(dpath)), path


class HLPBackend(ExecutionBackend):
    """The hierarchical protocol (`hlp`): link-state + FPV over domains."""

    name = "hlp"

    def supports(self, scenario: "Scenario") -> bool:
        """Only HLP-cost scenarios are executable *and* comparable.

        The algebra check implies the topology one: HLP-family
        materialization only labels domain-annotated networks for
        :class:`HLPCostAlgebra`, and the signatures it renders are only
        meaningful against backends running the same algebra.
        """
        return (isinstance(scenario.algebra, HLPCostAlgebra)
                and getattr(scenario, "top_k", 1) == 1)

    def prepare(self, scenario: "Scenario", *, seed: int = 0) -> HLPSession:
        return HLPSession(scenario, seed=seed)
