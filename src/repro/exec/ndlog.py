"""Generated-NDlog execution backend.

Compiles the scenario's algebra through :mod:`repro.ndlog.codegen` (the
paper's Sec. V-B translation) and runs the generated GPV program on the
NDlog runtime over the *same* seeded simulator and event schedule as every
other backend — the campaign-scale version of the paper's claim that the
analysis half and the generated implementation agree.

Topology events need GPV-protocol-aware handling on top of the generic
runtime primitives (the runtime knows tables, not BGP sessions):

* **link failure** — delete the ``label`` facts across the dead session,
  drop per-neighbor transport state, then *withdraw* every ``sig`` row
  learned from (or originated over) the vanished neighbor by upserting a
  φ row at the same ``(U, V, D)`` key.  The φ delta flows through the
  normal aggregate/send machinery, so downstream nodes see ordinary φ
  (withdraw) advertisements — exactly the native engine's failure path;
* **metric/policy perturbation** — update the ``label`` facts and replay
  the raw advertisements received over the link (the runtime keeps them
  pre-⊕, mirroring the native engine's ``adj_in``), re-deriving the
  combined signatures under the new label; locally originated one-hop
  routes over the link are re-injected with their new origin signature.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..algebra.base import PHI, origin_or_phi, rank_routes
from ..ndlog.codegen import deploy_gpv
from ..net.simulator import Simulator
from .base import ExecutionBackend, ExecutionOutcome, ExecutionSession

if TYPE_CHECKING:
    from ..campaigns.scenarios import Scenario

#: Column positions of the generated GPV program's relations (the top-k
#: variant appends a rank column to ``sig`` at SIG_RANK).
SIG_NEIGHBOR, SIG_DEST, SIG_SIG, SIG_PATH, SIG_RANK = 1, 2, 3, 4, 5
OPT_DEST, OPT_SIG, OPT_PATH = 1, 2, 3


class NDlogSession(ExecutionSession):
    """A deployed GPV program prepared for one scenario."""

    def _wire(self, scenario: "Scenario", seed: int) -> Simulator:
        sim = Simulator(scenario.network, seed=seed)
        self.runtime = deploy_gpv(
            scenario.network, scenario.algebra, self.destinations,
            simulator=sim, top_k=self.top_k,
            batch_interval=getattr(scenario, "batch_interval", None))
        if scenario.log_routes:
            self.runtime.observers.append(self._log_route)
        return sim

    def _log_route(self, node: str, relation: str, row: tuple) -> None:
        """Mirror the native engine's RIB-in route log off ``sig`` deltas.

        Self-originated rows (neighbor column == node) are skipped: the
        native engine logs *received* advertisements only, and extraction
        (paper Sec. VI-B) is defined over those.
        """
        if (relation == "sig" and row[SIG_SIG] is not PHI
                and row[SIG_NEIGHBOR] != node):
            self.route_log.append(
                (node, row[SIG_DEST], row[SIG_SIG], row[SIG_PATH]))

    # -- events ---------------------------------------------------------------

    def inject_route(self, node: str, dest: str, label) -> None:
        """Forged origination (hijack): a ``sig`` fact with no link behind it.

        Mirrors the origination replay of :meth:`perturb_link` — the delta
        flows through the generated aggregate/send rules like any other
        locally originated route.
        """
        sig = origin_or_phi(self.algebra, label)
        if sig is PHI:
            return
        forged = (node, node, dest, sig, (node, dest))
        if self.top_k > 1:
            forged += (0,)
        self.runtime.apply_delta(node, "sig", forged)

    def fail_link(self, a: str, b: str) -> None:
        """BGP session failure: withdraw everything learned over (a, b)."""
        runtime = self.runtime
        self.network.remove_link(a, b)
        for node, gone in ((a, b), (b, a)):
            runtime.delete_facts(node, "label",
                                 lambda row: row[1] == gone)
            runtime.drop_neighbor_state(node, gone)
            if self.top_k > 1:
                # Rank slots already advertised toward the vanished
                # neighbor are void (the label join keeps them from ever
                # being re-derived or sent).
                runtime.delete_facts(node, "advBest",
                                     lambda row: row[1] == gone)
            for row in runtime.table_rows(node, "sig"):
                if row[SIG_SIG] is PHI:
                    continue
                learned_from_gone = row[SIG_NEIGHBOR] == gone
                originated_over = (row[SIG_NEIGHBOR] == node
                                   and row[SIG_DEST] == gone)
                if learned_from_gone or originated_over:
                    withdrawal = (node, row[SIG_NEIGHBOR], row[SIG_DEST],
                                  PHI, (node,))
                    if self.top_k > 1:
                        withdrawal += (row[SIG_RANK],)
                    runtime.apply_delta(node, "sig", withdrawal)

    def perturb_link(self, a: str, b: str, label) -> None:
        """Re-label both directions of the link and re-derive everything
        received over it."""
        self.network.set_label(a, b, label)
        self.network.set_label(b, a, label)
        runtime = self.runtime
        for node, src in ((a, b), (b, a)):
            runtime.install_fact(node, "label", (node, src, label))
            for row in runtime.raw_advertisements(node, src):
                runtime.apply_delta(node, runtime.transport.msg_relation, row)
            if src in self.destinations:
                sig = origin_or_phi(self.algebra, label)
                if sig is not PHI:
                    origination = (node, node, src, sig, (node, src))
                    if self.top_k > 1:
                        origination += (0,)
                    runtime.apply_delta(node, "sig", origination)

    # -- run / snapshot -------------------------------------------------------

    def run(self, until: float | None = None,
            max_events: int | None = None) -> ExecutionOutcome:
        reason = self.sim.run(until=until, max_events=max_events)
        return self._outcome(NDlogBackend.name, reason)

    def _selected_routes(self, node: str) -> dict:
        return {row[OPT_DEST]: (row[OPT_SIG], row[OPT_PATH])
                for row in self.runtime.table_rows(node, "localOpt")
                if row[OPT_SIG] is not PHI}

    def _ranked_routes(self, node: str) -> dict:
        """Mirrors the native engine's ``known_routes``: the pair's
        ``sig`` rows in the shared :func:`rank_routes` order (φ dropped)."""
        pools: dict = {}
        for row in self.runtime.table_rows(node, "sig"):
            pools.setdefault(row[SIG_DEST], []).append(
                (row[SIG_SIG], row[SIG_PATH]))
        rank_key = self.algebra.rank_key
        return {dest: rank_routes(pool, lambda route: rank_key(route[0]))
                for dest, pool in pools.items()}


class NDlogBackend(ExecutionBackend):
    """The generated-code path (`ndlog`): algebra → NDlog → runtime."""

    name = "ndlog"

    def prepare(self, scenario: "Scenario", *,
                seed: int = 0) -> NDlogSession:
        return NDlogSession(scenario, seed=seed)
