"""Native GPV engine as an execution backend.

Wraps :class:`~repro.protocols.gpv.GPVEngine` — the fast Python
path-vector implementation — behind the :class:`ExecutionBackend`
contract.  This is the campaign's reference implementation: large
topologies simulate quickly, and its ``route_log`` feeds the iBGP
extraction workflow.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..net.simulator import Simulator
from ..protocols.gpv import GPVEngine
from .base import ExecutionBackend, ExecutionOutcome, ExecutionSession

if TYPE_CHECKING:
    from ..campaigns.scenarios import Scenario


class GPVSession(ExecutionSession):
    """A prepared :class:`GPVEngine` run."""

    def _wire(self, scenario: "Scenario", seed: int) -> Simulator:
        self.engine = GPVEngine(
            scenario.network, scenario.algebra, scenario.destinations,
            seed=seed, log_routes=scenario.log_routes, top_k=self.top_k,
            batch_interval=getattr(scenario, "batch_interval", None))
        self.route_log = self.engine.route_log
        return self.engine.sim

    def inject_route(self, node: str, dest: str, label) -> None:
        self.engine.inject_route(node, dest, label)

    def fail_link(self, a: str, b: str) -> None:
        self.engine.fail_link(a, b)

    def perturb_link(self, a: str, b: str, label) -> None:
        self.engine.perturb_link(a, b, label_ab=label, label_ba=label)

    def run(self, until: float | None = None,
            max_events: int | None = None) -> ExecutionOutcome:
        reason = self.engine.run(until=until, max_events=max_events)
        return self._outcome(GPVBackend.name, reason)

    def _selected_routes(self, node: str) -> dict:
        return {dest: self.engine.best_route(node, dest)
                for dest in self.destinations if dest != node}

    def _ranked_routes(self, node: str) -> dict:
        return {dest: self.engine.known_routes(node, dest)
                for dest in self.destinations if dest != node}


class GPVBackend(ExecutionBackend):
    """The native engine (`gpv`): fast, extraction-capable."""

    name = "gpv"

    def prepare(self, scenario: "Scenario", *, seed: int = 0) -> GPVSession:
        return GPVSession(scenario, seed=seed)
